import random
import sys
import tracemalloc

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist import ioutil, resolution
from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.constructions import EXAMPLE_NAMES, example, indecgrid, random_rectangle_module
from bipersist.grid_module import PairTable, RankInvariant, pair_count, rank_invariant_naive
from bipersist.ioutil import MAX_MODULUS, InvariantError, TooLargeError
from bipersist.rank_dp import rank_from_resolution
from bipersist.rect_decomp import _RECTANGLE_BYTES, RectangleBarcode, decompose
from bipersist.resolution import presentation, presented_module
from bipersist.weakexact import (
    KappaIota,
    check_bifiltration,
    check_module,
    check_rectangle_decomposable,
    kappa_iota,
    kappa_iota_from_zigzags,
)
from bipersist.zigzag import ZigzagBarcode
from conftest import clique_bifiltration, kappa_iota_naive
from paperlib import (
    comparable_mask,
    count_spanning,
    image_basis,
    is_strongly_exact,
    kernel_basis,
    module_barcode,
    rectangle_rank_invariant,
    reference_check,
    set_pair,
    subspace_intersect,
    subspace_sum,
    zero_module,
)


def rand_mat(rng, rows, cols, p):
    entries = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def test_image_intersection_is_a_spanning_count():
    # C --delta--> D <--gamma-- B: the intersection of the two images
    # has one dimension per bar covering all three stations
    rng = random.Random(30)
    for trial in range(60):
        p = rng.choice((2, 5))
        c, d, b = (rng.randint(0, 5) for _ in range(3))
        delta = rand_mat(rng, d, c, p)
        gamma = rand_mat(rng, d, b, p)
        want = subspace_intersect(image_basis(delta, p), image_basis(gamma, p)).dim
        bars = module_barcode([c, d, b], [("fwd", delta), ("bwd", gamma)], p)
        bc = ZigzagBarcode(3, bars)
        assert count_spanning(bc, 0, 2) == want


def test_kernel_sum_is_a_spanning_codeficit():
    # C <--delta-- S --gamma--> B: bars covering all three stations are
    # exactly the part of S that neither kernel touches
    rng = random.Random(31)
    for trial in range(60):
        p = rng.choice((2, 5))
        c, s, b = (rng.randint(0, 5) for _ in range(3))
        delta = rand_mat(rng, c, s, p)
        gamma = rand_mat(rng, b, s, p)
        want = subspace_sum(kernel_basis(delta, p), kernel_basis(gamma, p)).dim
        bars = module_barcode([c, s, b], [("bwd", delta), ("fwd", gamma)], p)
        bc = ZigzagBarcode(3, bars)
        assert s - count_spanning(bc, 0, 2) == want


@pytest.mark.parametrize("degree", (0, 1))
@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_zigzag_tables_match_subspace_oracle(clique_bif, p, degree):
    for seed in range(4):
        bif = clique_bif(seed, n_vert=7, q=0.6, nx=5, ny=5, p=p)
        ki = kappa_iota_from_zigzags(bif, degree)
        oracle = kappa_iota_naive(homology_module(bif, degree))
        assert ki.iota == oracle.iota
        assert ki.kappa == oracle.kappa


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1]),
    n_vert=st.integers(1, 8),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
@hypothesis.example(p=2**31 - 1, degree=1, n_vert=8, grid=(5, 4), seed=3)
@hypothesis.example(p=3, degree=1, n_vert=5, grid=(5, 5), seed=0)
def test_kappa_iota_equals_subspace_oracle_on_drawn_cliques(p, degree, n_vert, grid, seed):
    # degree 1 and sparse vertex sets leave zero-dimensional points;
    # in the second example they also lie between nonzero ones along
    # a column, where the pushed flag bases restart from nothing
    bif = clique_bifiltration(seed, n_vert, 0.6, *grid, p)
    module = homology_module(bif, degree)
    ki, oracle = kappa_iota(module), kappa_iota_naive(module)
    assert ki.iota == oracle.iota
    assert ki.kappa == oracle.kappa


def explicit_modules(p):
    for name in EXAMPLE_NAMES:
        yield name, example(name, p)
    for n in (2, 3, 4):
        yield f"indecgrid({n})", indecgrid(n, p)
    for seed in range(6):
        yield f"rectangles-{seed}", random_rectangle_module(4, 3, 5, seed=seed, p=p)[0]


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_kappa_iota_matches_subspace_oracle_on_explicit_modules(p):
    for name, m in explicit_modules(p):
        ki, oracle = kappa_iota(m), kappa_iota_naive(m)
        assert ki.iota == oracle.iota, name
        assert ki.kappa == oracle.kappa, name


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_kappa_iota_verdicts_match_the_algebraic_checker(p):
    for name in EXAMPLE_NAMES:
        m = example(name, p)
        table = check_rectangle_decomposable(rank_invariant_naive(m), kappa_iota(m))
        algebraic = check_module(m, "algebraic")
        assert table[0] == algebraic[0], name
        if not table[0]:
            assert table[1][:2] == algebraic[1][:2], name


def test_checker_refuses_tables_that_break_the_bounds():
    # r(s, t) <= iota(s, t) and kappa(s, t) <= r(s, s) - r(s, t) hold
    # for every module; fabricated tables past them are a fault, not a
    # verdict, even where the true tables already fail at an earlier pair
    m = example("ex3-right")
    r = rank_invariant_naive(m)
    s, t = (1, 1), (2, 1)  # r(s, t) = 1, r(s, s) = 2
    corank = r.get(s, s) - r.get(s, t)
    for field, value in (("iota", r.get(s, t) - 1), ("kappa", corank + 1)):
        ki = kappa_iota_naive(m)
        set_pair(getattr(ki, field), s, t, value)
        with pytest.raises(InvariantError, match=r"\[1, 1, 2, 1\]"):
            check_rectangle_decomposable(r, ki)


INT16_MAX = 2**15 - 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_checking_int16_tables_near_their_top_is_checking_int64_copies(data):
    # corank = r(s, s) - r(s, t) is taken in the table's type; with ranks
    # near 2**15 - 1, the tables of a rectangle sum, one entry of kappa or
    # iota moved by one (a failing pair, or a broken bound), give in int16
    # the verdict, witness and reason, or the fault, of their int64 copies
    nx, ny = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rects = {(0, 0, nx - 1, ny - 1): INT16_MAX - 6}
    for _ in range(data.draw(st.integers(0, 3))):
        sx, tx = sorted(data.draw(st.integers(0, nx - 1)) for _ in range(2))
        sy, ty = sorted(data.draw(st.integers(0, ny - 1)) for _ in range(2))
        rects[(sx, sy, tx, ty)] = rects.get((sx, sy, tx, ty), 0) + data.draw(st.integers(1, 2))
    r = rectangle_rank_invariant(RectangleBarcode(rects), nx, ny)
    assert INT16_MAX - 6 <= r.values.max() <= INT16_MAX
    dense, mask = r.table, comparable_mask(nx, ny)
    x, y = np.arange(nx)[:, None], np.arange(ny)
    tables = {"kappa": (dense[x, y, x, y][:, :, None, None] - dense)[mask], "iota": r.values.copy()}
    if data.draw(st.booleans()):
        moved = tables[data.draw(st.sampled_from(sorted(tables)))]
        i = data.draw(st.integers(0, moved.size - 1))
        moved[i] = min(max(moved[i] + data.draw(st.sampled_from([-1, 1])), 0), INT16_MAX)

    def outcome(dtype):
        ki = KappaIota(nx, ny, *(PairTable(nx, ny, tables[name].astype(dtype)) for name in ("kappa", "iota")))
        try:
            return check_rectangle_decomposable(RankInvariant(nx, ny, r.values.astype(dtype)), ki)
        except InvariantError as e:
            return str(e)

    assert outcome(np.int16) == outcome(np.int64)


def moved_rectangle_sum(nx, ny, rects, moves):
    """The rank invariant of a sum of rectangles and its true kappa and
    iota, with each (table, s, t, step) of `moves` applied: that table's
    entry at (s, t) moved by step, kept in [0, INT16_MAX]."""
    r = rectangle_rank_invariant(RectangleBarcode(rects), nx, ny)
    dense, mask = r.table, comparable_mask(nx, ny)
    x, y = np.arange(nx)[:, None], np.arange(ny)
    tables = {
        "kappa": PairTable(nx, ny, (dense[x, y, x, y][:, :, None, None] - dense)[mask]),
        "iota": PairTable(nx, ny, r.values.copy()),
    }
    for name, s, t, step in moves:
        set_pair(tables[name], s, t, min(max(tables[name].get(s, t) + step, 0), INT16_MAX))
    return r, tables


@st.composite
def moved_rectangle_sums(draw):
    """(nx, ny, rects, moves) for `moved_rectangle_sum`: up to four moves,
    each in the block of a different source s, on ranks near 1 or near
    the int16 top."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rects = {(0, 0, nx - 1, ny - 1): draw(st.sampled_from([1, INT16_MAX - 6]))}
    for _ in range(draw(st.integers(0, 3))):
        sx, tx = sorted(draw(st.integers(0, nx - 1)) for _ in range(2))
        sy, ty = sorted(draw(st.integers(0, ny - 1)) for _ in range(2))
        rects[(sx, sy, tx, ty)] = rects.get((sx, sy, tx, ty), 0) + draw(st.integers(1, 2))
    sources = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=4, unique=True))
    moves = []
    for s in sources:
        t = (draw(st.integers(s[0], nx - 1)), draw(st.integers(s[1], ny - 1)))
        moves.append((draw(st.sampled_from(["kappa", "iota"])), s, t, draw(st.sampled_from([-1, 1]))))
    return nx, ny, rects, moves


def check_outcomes(case, dtype):
    """The outcome of `check_rectangle_decomposable` and of the dense
    oracle on the tables of `moved_rectangle_sum(*case)` in `dtype`: the
    verdict and witness, or the InvariantError's text."""
    nx, ny, _, _ = case
    r, tables = moved_rectangle_sum(*case)

    def outcome(check):
        ki = KappaIota(nx, ny, *(PairTable(nx, ny, tables[name].values.astype(dtype)) for name in ("kappa", "iota")))
        try:
            return check(RankInvariant(nx, ny, r.values.astype(dtype)), ki)
        except InvariantError as e:
            return str(e)

    return outcome(check_rectangle_decomposable), outcome(reference_check)


# a failing pair in the block of (0, 0), and kappa past its bound in the
# later block of (2, 1): the check raises for the bound
FAIL_THEN_BROKEN = (3, 3, {(0, 0, 2, 2): 2}, [("iota", (0, 0), (1, 1), 1), ("kappa", (2, 1), (2, 2), 1)])
# three broken bounds in three blocks: the check names the
# lexicographically first, whichever table it is in
THREE_BROKEN = (3, 3, {(0, 0, 2, 2): 2}, [("kappa", (1, 0), (2, 2), 1), ("iota", (0, 2), (2, 2), -1), ("iota", (2, 0), (2, 1), -1)])


@settings(max_examples=150, deadline=None)
@given(case=moved_rectangle_sums(), dtype=st.sampled_from([np.int16, np.int32]))
def test_the_check_is_the_dense_scan_of_the_comparable_pairs(case, dtype):
    # with several kappa/iota entries of a rectangle sum moved by one,
    # in different blocks, the check gives the verdict, witness and
    # reason, or the InvariantError, of the scan in comparable_pairs order
    got, want = check_outcomes(case, dtype)
    assert got == want
    if isinstance(got, tuple) and not got[0]:
        s, t, _ = got[1]
        assert all(type(c) is int for c in (*s, *t))  # JSON-dumpable


@pytest.mark.parametrize("dtype", (np.int16, np.int32))
def test_a_broken_bound_anywhere_raises_and_names_the_first(dtype):
    for case, where in ((FAIL_THEN_BROKEN, "[2, 1, 2, 2]"), (THREE_BROKEN, "[0, 2, 2, 2]")):
        got, want = check_outcomes(case, dtype)
        assert got == want == f"kernel/image tables out of bounds at [s, t] = {where}"


def test_zigzag_tables_take_no_jobs(random_bif):
    bif = random_bif(43, max_simplices=18, nx=4, ny=3)
    for jobs in (0, 1, 4):
        with pytest.raises(ValueError):
            kappa_iota_from_zigzags(bif, 0, jobs)


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1]),
    n_vert=st.integers(1, 8),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
def test_check_path_solves_no_homology(p, degree, n_vert, grid, seed):
    # the .bif check reads kappa/iota off the presentation: with every
    # homology solver in the package made to raise, it still gives the
    # verdict and tables of the homology module
    bif = clique_bifiltration(seed, n_vert, 0.6, *grid, p)
    oracle = homology_module(bif, degree)
    want, want_ki = check_module(oracle, "algebraic"), kappa_iota(oracle)

    def refuse(*args, **kwargs):
        raise AssertionError("homology solved on the check path")

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name == "bipersist" or name.startswith("bipersist."):
                for solver in ("homology_module", "homology_basis", "homology_map"):
                    if hasattr(module, solver):
                        mp.setattr(module, solver, refuse)
        got, ki = check_bifiltration(bif, degree), kappa_iota_from_zigzags(bif, degree)
    assert got[0] == want[0] and (got[0] or got[1][:2] == want[1][:2])
    assert ki.kappa == want_ki.kappa and ki.iota == want_ki.iota


def test_dense_tables_refuse_grids_past_the_cap(monkeypatch):
    # every library entry point states the bytes of its tables on the
    # comparable pairs, and a .bif route those of its presentation and
    # of the module it presents too, before it allocates them: it runs
    # with the cap at those bytes and is refused, naming them, one byte
    # short.  The 61 x 1 grid has 1,891 pairs, 2 bytes each at int16; the
    # presentation of one vertex states 257 bytes, a bit and its column's
    # 256, and 2^18 of fixed work,
    # the module it presents 16 bytes of work for its one generator, 640
    # for each of its 60 maps and 2^18 of fixed work, the DP 61^2 (2 + 24)
    # bytes of pair counts, and `decompose` 6 bytes per entry of its slab
    # and `_RECTANGLE_BYTES` for the one rectangle of its barcode
    wide = Bifiltration({(0,): (60, 0)}, 61, 1)
    module, pres, pairs, one = zero_module(61, 1, 2), presentation(wide, 0), pair_count(61, 1), 257 + (1 << 18)
    presented = 16 + 640 * 60 + (1 << 18)
    inv = rank_from_resolution(pres)
    for need, build in (
        (8 * pairs, lambda: RankInvariant(61, 1)),  # int64, since a caller may write any rank
        (2 * pairs, lambda: rank_invariant_naive(module)),
        (2 * pairs + 61 * 61 * 26, lambda: rank_from_resolution(pres)),
        (6 * 61 + _RECTANGLE_BYTES, lambda: decompose(inv)),
        (4 * pairs, lambda: kappa_iota(module)),
        (6 * pairs, lambda: check_module(module)),
        (one + 2 * pairs, lambda: presentation(wide, 0)),
        (presented + 4 * pairs, lambda: kappa_iota_from_zigzags(wide, 0)),
        (presented + 6 * pairs, lambda: check_bifiltration(wide, 0)),
    ):
        monkeypatch.setattr(ioutil, "BYTES_CAP", need)
        build()
        monkeypatch.setattr(ioutil, "BYTES_CAP", need - 1)
        with pytest.raises(TooLargeError, match=f" would need {need:,} bytes, past the {need - 1:,}-byte cap$"):
            build()


@pytest.mark.parametrize("route", ["check_bifiltration", "kappa_iota_from_zigzags", "presented_module"])
def test_every_route_that_builds_the_module_refuses_its_maps_past_the_cap(route):
    # 100 vertices in degree 1: the presentation and three tables state
    # 30.9 MB, but the check peaked at 119.4 MB traced, in the maps of
    # the module it presents and their copies; those now count, and a
    # cap between the two statements refuses the module, on the check
    # route and on the naive rank's and the explicit checkers' (the
    # presented module with one table), before its maps pass the cap
    bif = clique_bifiltration(1, 100, 0.2, 20, 20, 2)
    runs = {
        "check_bifiltration": lambda: check_bifiltration(bif, 1),
        "kappa_iota_from_zigzags": lambda: kappa_iota_from_zigzags(bif, 1),
        "presented_module": lambda: presented_module(presentation(bif, 1)),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "BYTES_CAP", 64 << 20)
        presentation(bif, 1, tables=3)
        with pytest.raises(TooLargeError, match=r"^the maps into the points up to \(\d+,\d+\) of the module presented"):
            runs[route]()


@pytest.mark.parametrize("p", [2, 3])
def test_the_check_route_states_at_least_the_bytes_it_peaks_at(monkeypatch, p):
    # the largest of the statements of the presentation and of the
    # module it presents bounds the traced peak of the whole check, the
    # rank DP and the kappa/iota walks included; on these inputs the
    # module's maps are the largest arrays
    bif = clique_bifiltration(1, 60 if p == 2 else 45, 0.2, 20, 20, p)
    stated = []
    monkeypatch.setattr(resolution, "check_bytes", lambda need, what, line=None: stated.append(need))
    tracemalloc.start()
    try:
        check_bifiltration(bif, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stated[-1] == max(stated) > stated[0]  # the module's last statement, above the presentation's
    assert peak <= max(stated)


def test_check_bifiltration_peak_is_four_int32_tables_and_the_masks():
    # r, kappa and iota at 4 bytes a comparable pair; the presentation,
    # the module it presents and the comparison's temporaries of one
    # block r(s, .) fit in 5 more bytes a pair.  A dense (nx, ny, nx, ny) table
    # would be 4 bytes a cell, about 3.7 cells a pair on this grid
    bif = clique_bifiltration(3, 30, 0.2, 30, 30)
    pairs = pair_count(bif.nx, bif.ny)
    tracemalloc.start()
    try:
        verdict = check_bifiltration(bif, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict[0] is False
    assert peak <= (3 * 4 + 5) * pairs


def test_checker_accepts_rectangle_sums():
    for seed in range(8):
        m, _ = random_rectangle_module(4, 4, 5, seed=seed, p=2)
        verdict = check_rectangle_decomposable(
            rank_invariant_naive(m), kappa_iota_naive(m)
        )
        assert verdict == (True, None)


def test_checker_rejects_with_outermost_witness():
    m = example("ex3-right")
    ok, witness = check_rectangle_decomposable(
        rank_invariant_naive(m), kappa_iota_naive(m)
    )
    assert not ok
    s, t, reason = witness
    assert (s, t) == ((0, 0), (2, 1))
    assert "rank" in reason or "corank" in reason


def test_checker_rejects_mismatched_grids():
    a, _ = random_rectangle_module(3, 3, 2, seed=0, p=2)
    b, _ = random_rectangle_module(4, 3, 2, seed=0, p=2)
    with pytest.raises(ValueError):
        check_rectangle_decomposable(rank_invariant_naive(a), kappa_iota_naive(b))


def test_check_module_methods_agree_on_catalogue():
    for name in EXAMPLE_NAMES:
        m = example(name)
        algebraic = check_module(m, "algebraic")
        geometric = check_module(m, "geometric")
        assert algebraic[0] == geometric[0]
        if not algebraic[0]:
            assert algebraic[1][:2] == geometric[1][:2]
    # the default pairing route gives the subspace checker's verdict and
    # first witness pair, at every prime
    for p in (2, 3, MAX_MODULUS):
        modules = [example(name, p) for name in EXAMPLE_NAMES]
        modules += [indecgrid(n, p) for n in range(2, 7)]
        modules += [random_rectangle_module(6, 5, 8, seed, p)[0] for seed in range(3)]
        for m in modules:
            algebraic = check_module(m, "algebraic")
            zigzag = check_module(m)
            assert zigzag[0] == algebraic[0]
            if not algebraic[0]:
                assert zigzag[1][:2] == algebraic[1][:2]
    for method in ("telepathic", "strong"):
        with pytest.raises(ValueError):
            check_module(example("ex2"), method)


def test_check_module_strong_is_strictly_finer():
    assert is_strongly_exact(example("ex4-left")) == (True, None)
    assert check_module(example("ex4-left"), "algebraic") == (True, None)
    assert check_module(example("ex4-right"), "algebraic") == (True, None)
    assert check_module(example("ex4-right"), "geometric") == (True, None)
    ok, witness = is_strongly_exact(example("ex4-right"))
    assert not ok and witness is not None


def test_check_bifiltration_agrees_with_module_checkers(random_bif):
    for seed in (50, 51, 52):
        for degree in (0, 1):
            bif = random_bif(seed, max_simplices=20, nx=4, ny=3)
            end_to_end = check_bifiltration(bif, degree)
            direct = check_module(homology_module(bif, degree), "algebraic")
            assert end_to_end[0] == direct[0]
            if not end_to_end[0]:
                assert end_to_end[1][:2] == direct[1][:2]
