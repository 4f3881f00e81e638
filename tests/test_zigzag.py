import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipersist import ioutil
from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.rank_dp import rank_from_resolution
from bipersist.resolution import presentation, presented_module
from bipersist.weakexact import kappa_iota
from bipersist.zigzag import (
    ZigzagBarcode,
    col_zigzag_barcode,
    row_zigzag_barcode,
    write_zbar,
)
from conftest import clique_bifiltration
from paperlib import (
    ZigzagComplex,
    col_zigzag,
    count_spanning,
    int_rows,
    interval_multiplicities,
    module_barcode,
    row_zigzag,
    zigzag_barcode,
)


def random_interval_diagram(rng, stations, p):
    """Realize a random interval multiset as an explicit zigzag module.

    Each interval occupies one coordinate while alive; a bar absent on
    either side of an arrow simply gets no matrix entry, which is legal
    in both directions.
    """
    bars = sorted(
        tuple(sorted((rng.randrange(stations), rng.randrange(stations))))
        for _ in range(rng.randint(1, 6))
    )
    alive = [[i for i, (b, d) in enumerate(bars) if b <= m <= d] for m in range(stations)]
    dims = [len(a) for a in alive]
    arrows = []
    for m in range(stations - 1):
        direction = rng.choice(("fwd", "bwd"))
        src, tgt = (m, m + 1) if direction == "fwd" else (m + 1, m)
        mat = np.zeros((dims[tgt], dims[src]), dtype=np.int64)
        for i in set(alive[m]) & set(alive[m + 1]):
            mat[alive[tgt].index(i), alive[src].index(i)] = 1
        arrows.append((direction, mat))
    return dims, arrows, [tuple(b) for b in bars]


def test_module_barcode_single_station():
    assert module_barcode([3], [], 7) == [(0, 0)] * 3


def test_module_barcode_identity_chain():
    eye = np.eye(2, dtype=np.int64)
    assert module_barcode([2, 2, 2], [("fwd", eye), ("bwd", eye)], 2) == [
        (0, 2),
        (0, 2),
    ]


def test_module_barcode_death_and_birth():
    # one bar dies into the kernel of the forward arrow, a fresh one is
    # born outside the image of the backward arrow
    fwd = np.array([[1, 0]], dtype=np.int64)
    bwd = np.array([[1, 0]], dtype=np.int64)
    assert module_barcode([2, 1, 2], [("fwd", fwd), ("bwd", bwd)], 3) == [
        (0, 0),
        (0, 2),
        (2, 2),
    ]


def test_module_barcode_recovers_random_interval_diagrams():
    rng = random.Random(9)
    for trial in range(40):
        p = rng.choice((2, 5))
        dims, arrows, bars = random_interval_diagram(rng, rng.randint(1, 7), p)
        assert module_barcode(dims, arrows, p) == bars


def test_module_barcode_input_validation():
    eye = np.eye(1, dtype=np.int64)
    with pytest.raises(ValueError):
        module_barcode([1, 1], [], 2)
    with pytest.raises(ValueError):
        module_barcode([1, 1], [("sideways", eye)], 2)
    with pytest.raises(ValueError):
        module_barcode([1, 2], [("fwd", eye)], 2)


def test_barcode_dim_and_spanning_counts():
    bc = ZigzagBarcode(4, [(0, 2), (1, 3), (1, 1)])
    assert [bc.dim_at(i) for i in range(4)] == [1, 3, 2, 1]
    assert count_spanning(bc, 1, 2) == 2
    assert count_spanning(bc, 0, 3) == 0
    assert count_spanning(bc, 1, 1) == 3
    with pytest.raises(ValueError):
        count_spanning(bc, 2, 1)
    with pytest.raises(ValueError):
        ZigzagBarcode(2, [(0, 2)])


TRIANGLE = [
    ((0, 0), (0,)),
    ((0, 0), (1,)),
    ((0, 0), (2,)),
    ((1, 0), (0, 1)),
    ((1, 0), (1, 2)),
    ((1, 0), (0, 2)),
    ((2, 0), (0, 1, 2)),
]


def test_zigzag_barcode_insert_then_delete():
    zz = ZigzagComplex(
        [(0,), (1,)],
        [
            ("insert", [(2,), (0, 1), (1, 2)]),
            ("insert", [(0, 2)]),
            ("delete", [(0, 2), (1, 2)]),
        ],
    )
    bc = zigzag_barcode(zz, 0, 2)
    # two components merge to one, then split back to two
    assert sorted(bc.intervals) == [(0, 0), (0, 3), (3, 3)]
    loop = zigzag_barcode(zz, 1, 2)
    assert loop.intervals == [(2, 2)]


def test_zigzag_barcode_rejects_invalid_complex():
    zz = ZigzagComplex([(0, 1)], [])  # edge without its vertices
    with pytest.raises(ValueError):
        zigzag_barcode(zz, 0, 2)
    zz = ZigzagComplex([(0,)], [("delete", [(1,)])])
    with pytest.raises(ValueError):
        zigzag_barcode(zz, 0, 2)


def test_row_zigzag_matches_pointwise_homology(random_bif):
    bif = random_bif(21, max_simplices=25, nx=5, ny=4)
    module = homology_module(bif, 0)
    t = (3, 2)
    bc = row_zigzag_barcode(bif, t, 0)
    # stations walk (0,2),(1,2),(2,2),(3,2),(3,1),(3,0)
    walk = [(0, 2), (1, 2), (2, 2), (3, 2), (3, 1), (3, 0)]
    assert [bc.dim_at(i) for i in range(len(walk))] == [module.dim_at(w) for w in walk]


def test_col_zigzag_matches_pointwise_homology(random_bif):
    bif = random_bif(22, max_simplices=25, nx=5, ny=4)
    module = homology_module(bif, 1)
    s = (1, 1)
    bc = col_zigzag_barcode(bif, s, 1)
    walk = [(1, 3), (1, 2), (1, 1), (2, 1), (3, 1), (4, 1)]
    assert [bc.dim_at(i) for i in range(len(walk))] == [module.dim_at(w) for w in walk]
    for path_barcode in (row_zigzag_barcode, col_zigzag_barcode):
        with pytest.raises(ValueError, match=r"\(5, 1\) outside the 5x4 grid"):
            path_barcode(bif, (5, 1), 1)


def test_row_zigzag_of_one_row_grid_is_ordinary_persistence(random_bif):
    # a pure filtration's zigzag barcode is the usual persistence barcode,
    # which the rectangle barcode of the homology module's naive rank
    # invariant gives independently
    for seed in (3, 4, 5):
        bif = random_bif(seed, max_simplices=20, nx=6, ny=1)
        for degree in (0, 1):
            bc = row_zigzag_barcode(bif, (5, 0), degree)
            bars = interval_multiplicities(homology_module(bif, degree))
            expect = sorted(iv for iv, mult in bars.items() for _ in range(mult))
            assert sorted(bc.intervals) == expect


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1, 2]),
    n_vert=st.integers(1, 8),
    grid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 10**6),
)
@example(p=3, degree=1, n_vert=5, grid=(4, 4), seed=0)
@example(p=2**31 - 1, degree=2, n_vert=8, grid=(3, 4), seed=9)
def test_path_barcodes_match_the_subspace_oracle(p, degree, n_vert, grid, seed):
    # the flag walks against the event lists and subspace pushes, at
    # every point of the grid; zero-dimensional stations restart a walk,
    # and the second example has H_2 of dimension 3 at the top corner
    bif = clique_bifiltration(seed, n_vert, 0.6, *grid, p)
    for t in np.ndindex(*grid):
        assert row_zigzag_barcode(bif, t, degree) == zigzag_barcode(row_zigzag(bif, t), degree, p), t
        assert col_zigzag_barcode(bif, t, degree) == zigzag_barcode(col_zigzag(bif, t), degree, p), t


def corner_bars(stations: int, rank) -> list:
    """The bars of a zigzag of `stations` stations whose generalized
    rank, the number of bars covering [i, j], is rank(i, j): the corner
    differences, as for one-parameter persistence."""
    r = lambda i, j: rank(i, j) if 0 <= i <= j < stations else 0
    return sorted(
        (i, j) for i in range(stations) for j in range(i, stations)
        for _ in range(r(i, j) - r(i - 1, j) - r(i, j + 1) + r(i - 1, j + 1))
    )


def row_path_bars(r, iota, t) -> list:
    """The row path through t read off the check's tables: r along its
    row leg (i, t_y) and its column leg (t_x, y), and across the apex,
    from (x, t_y) to (t_x, y), iota((x, y), t)."""
    tx, ty = t
    point = lambda i: (i, ty) if i <= tx else (tx, ty - (i - tx))

    def rank(i, j):
        u, v = point(i), point(j)
        if j <= tx:
            return r.get(u, v)
        return r.get(v, u) if i >= tx else iota.get((u[0], v[1]), t)

    return corner_bars(tx + ty + 1, rank)


def col_path_bars(r, kappa, s, nx, ny) -> list:
    """The column path through s read off the check's tables: r along its
    column leg (s_x, y), walked down, and its row leg (x, s_y), and across
    the apex, for the span (s_x, y) <- s -> (x, s_y), the rank from its
    limit to its colimit, dim M_s - kappa(s, (x, y))."""
    sx, sy = s
    apex = ny - 1 - sy
    point = lambda i: (sx, ny - 1 - i) if i <= apex else (sx + i - apex, sy)

    def rank(i, j):
        u, v = point(i), point(j)
        if j <= apex:
            return r.get(v, u)
        return r.get(u, v) if i >= apex else r.get(s, s) - kappa.get(s, (v[0], u[1]))

    return corner_bars(apex + nx - sx, rank)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, 2**31 - 1]),
    degree=st.sampled_from([0, 1, 2]),
    n_vert=st.integers(1, 12),
    q=st.floats(0.2, 0.8),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
@example(p=2**31 - 1, degree=2, n_vert=8, q=0.6, grid=(3, 4), seed=9)
@example(p=65521, degree=1, n_vert=9, q=0.45, grid=(4, 4), seed=3)
def test_path_barcodes_are_read_off_the_checks_tables(p, degree, n_vert, q, grid, seed):
    # the zigzag of each path through each point is determined by the
    # rank invariant of the module's presentation and its kappa/iota
    # tables: a route to the bars with no homology solved per station
    bif = clique_bifiltration(seed, n_vert, q, *grid, p)
    pres = presentation(bif, degree)
    r, tables = rank_from_resolution(pres), kappa_iota(presented_module(pres))
    for t in np.ndindex(*grid):
        assert sorted(row_zigzag_barcode(bif, t, degree).intervals) == row_path_bars(r, tables.iota, t), t
        assert sorted(col_zigzag_barcode(bif, t, degree).intervals) == col_path_bars(r, tables.kappa, t, *grid), t


def stated_path_bytes(path_barcode, bif, t, degree) -> int:
    """The bytes `path_barcode(bif, t, degree)` states, read off its
    refusal at a cap below any input."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "BYTES_CAP", -1)
        with pytest.raises(ioutil.TooLargeError) as refused:
            path_barcode(bif, t, degree)
    return int(re.search(r"would need ([0-9,]+) bytes", str(refused.value))[1].replace(",", ""))


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1, 2]),
    n_vert=st.integers(2, 50),
    q=st.floats(0.05, 0.45),
    grid=st.tuples(st.integers(1, 10), st.integers(1, 10)),
    seed=st.integers(0, 10**6),
    at=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
)
@example(p=3, degree=0, n_vert=400, q=0.0, grid=(3, 3), seed=4, at=(0.9, 0.9))
@example(p=2, degree=1, n_vert=50, q=0.45, grid=(10, 10), seed=5, at=(0.5, 0.5))
@example(p=2, degree=1, n_vert=1000, q=0.0, grid=(1000, 1), seed=3, at=(0.9995, 0))
def test_path_states_at_least_the_bytes_it_peaks_at(p, degree, n_vert, q, grid, seed, at):
    # the byte rule of a path is stated from its held simplex counts
    # before any array is built, and bounds the traced peak of the whole
    # path, its rebuilt complex included; the isolated vertices make
    # every station's basis the identity, or, on the 1000 x 1 grid in
    # degree 1, leave only the table of the bars on 1000 stations
    bif = clique_bifiltration(seed, n_vert, q, *grid, p)
    t = tuple(int(f * n) for f, n in zip(at, grid))
    for path_barcode in (row_zigzag_barcode, col_zigzag_barcode):
        stated = stated_path_bytes(path_barcode, bif, t, degree)
        tracemalloc.start()
        try:
            path_barcode(bif, t, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stated


@pytest.mark.parametrize("p", [2, 3])
def test_a_long_path_states_no_homology_basis_per_station(p):
    # the walk holds the station before's homology basis and flag, and
    # of the others only their flags' births, so past the bars' table,
    # 32 bytes an entry of the stations squared, the stated bytes of a
    # path of b held vertices grow by less than b^2 a station; holding
    # every station's basis, map and flag stated 24 b^2 a station
    b = 200
    stated = {}
    for n in (2, 40):
        bif = Bifiltration({(v,): (0, 0) for v in range(b)}, n, 1, p)
        stated[n] = stated_path_bytes(row_zigzag_barcode, bif, (n - 1, 0), 0)
    grow = stated[40] - stated[2] - 32 * (41**2 - 3**2)
    assert 0 < grow < b * b * (40 - 2)


def test_zbar_roundtrip_and_validation():
    # the .zbar lines are the 1-based intervals of each barcode in turn,
    # read back by the field rule of every format; a barcode refuses an
    # interval outside its stations or with birth after death
    bc0 = ZigzagBarcode(4, [(0, 2), (1, 3)], degree=0)
    bc1 = ZigzagBarcode(4, [(2, 2)], degree=1)
    rows, lines, error = int_rows(write_zbar([bc0, bc1]), "degree birth death")
    assert error is None and lines.tolist() == [2, 3, 4]
    assert rows.tolist() == [[0, 1, 3], [0, 2, 4], [1, 3, 3]]
    for bad in ([(0, 4)], [(3, 2)], [(-1, 1)]):
        with pytest.raises(ValueError):
            ZigzagBarcode(4, bad)

