import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.grid_module import RankInvariant, rank_invariant_naive
from bipersist import linalg
from bipersist.ioutil import MAX_MODULUS
from bipersist.linalg import ColumnReducer, matmul, pair_counts, rank
from bipersist.rank_dp import rank_from_resolution
from bipersist.fres import read_fres
from bipersist.resolution import FreeModule, FreeResolution, column_bytes, free_resolution, presented_module
from paperlib import comparable_pairs, dense, graded_matrix, inhomogeneous_entries, set_pair
from test_acceptance import _perf_fixture_text

TRIANGLE = [
    ((0, 0), (0,)), ((1, 0), (1,)), ((0, 1), (2,)),
    ((1, 1), (0, 1)), ((1, 1), (0, 2)), ((2, 1), (1, 2)),
    ((2, 2), (0, 1, 2)),
]


def hand_resolution(gens, rels, phi, nx, ny, p=2):
    g = FreeModule(gens)
    r = FreeModule(rels)
    z = FreeModule([])
    phi = graded_matrix(g, r, phi, p)
    psi = graded_matrix(r, z, np.zeros((len(rels), 0), dtype=np.int64), p)
    return FreeResolution(g, r, z, phi, psi, nx, ny, p)


def test_single_generator_is_full_rank_one():
    res = hand_resolution([(0, 0)], [], [], 3, 3)
    inv = rank_from_resolution(res)
    for x in range(3):
        for y in range(3):
            assert inv.get((0, 0), (x, y)) == 1
            assert inv.get((x, y), (x, y)) == 1


def test_one_relation_kills_rank_past_its_grade():
    res = hand_resolution([(0, 0)], [(1, 1)], [[1]], 3, 3)
    inv = rank_from_resolution(res)
    assert inv.get((0, 0), (0, 2)) == 1
    assert inv.get((0, 0), (1, 1)) == 0  # relation lub (0,0), grade (1,1)
    assert inv.get((1, 0), (2, 2)) == 0
    assert inv.get((0, 1), (0, 1)) == 1


def test_dp_equals_naive_on_random_bifiltrations(random_bif):
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    for degree in (0, 1):
        res = free_resolution(bif, degree)
        dp = rank_from_resolution(res)
        assert dp == rank_invariant_naive(homology_module(bif, degree))
    for seed in range(10):
        bif = random_bif(300 + seed, nx=6, ny=5)
        for degree in (0, 1):
            res = free_resolution(bif, degree)
            dp = rank_from_resolution(res)
            assert dp == rank_invariant_naive(homology_module(bif, degree))


PRIMES = [2, 3, 65521, MAX_MODULUS]


def low_rank_presentation(rng, k, l, nx, ny, p):
    """A valid presentation whose phi is a low-rank product with zeroed columns.

    Generator y-grades are drawn from two values, so runs of s_y share
    one reduction, and about half the relations touch only the lower
    one; each relation sits at or above the join of the generators in
    its column's support.
    """
    y_pool = np.sort(rng.integers(0, ny, 2))
    gens = np.column_stack((rng.integers(0, nx, k), rng.choice(y_pool, k)))
    r = int(rng.integers(0, min(k, l) + 1))
    left = rng.integers(0, p, (k, r)) * (rng.random((k, r)) < 0.5)
    phi = matmul(left, rng.integers(0, p, (r, l)), p)
    phi[np.ix_(gens[:, 1] > y_pool[0], rng.random(l) < 0.5)] = 0
    phi[:, rng.random(l) < 0.2] = 0
    rels = np.column_stack((rng.integers(0, nx, l), rng.integers(0, ny, l)))
    for j in range(l):
        support = gens[phi[:, j] != 0]
        if support.size:
            rels[j] = np.maximum(rels[j], support.max(axis=0))
    res = hand_resolution(gens.tolist(), rels.tolist(), phi, nx, ny, p)
    assert not inhomogeneous_entries(res.phi)
    return res


def rank_by_pairs(res):
    """Oracle: #gens <= s - rank phi[:, <= t] + rank phi[rows not <= s, <= t], pair by pair."""
    phi, p = dense(res.phi), res.p
    gens = np.array(res.gens.grades, dtype=np.int64).reshape(-1, 2)
    rels = np.array(res.rels.grades, dtype=np.int64).reshape(-1, 2)
    inv = RankInvariant(res.nx, res.ny)
    for s, t in comparable_pairs(res.nx, res.ny):
        low = (gens <= s).all(axis=1)
        cols = (rels <= t).all(axis=1)
        set_pair(inv, s, t, int(low.sum()) - rank(phi[:, cols], p) + rank(phi[~low][:, cols], p))
    return inv


def test_dp_exact_at_the_largest_prime():
    # low-rank products keep the reduction working against dense pivot
    # columns, whose raw int64 products exceed 2**63 at p = 2**31 - 1
    rng = np.random.default_rng(31)
    for _ in range(50):
        res = low_rank_presentation(rng, 6, 8, 4, 4, MAX_MODULUS)
        assert rank_from_resolution(res) == rank_by_pairs(res)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.sampled_from([0, 1, 63, 64, 65, 130]),
    l=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_dp_equals_rank_of_every_pair(p, k, l, seed):
    # row counts straddle the 64-bit words of the packed p = 2 path;
    # k = 0 gives relations on no generators, l = 0 generators with no
    # relations; a 3 x 4 grid keeps the x and y extents apart
    res = low_rank_presentation(np.random.default_rng(seed), k, l, 3, 4, p)
    assert rank_from_resolution(res) == rank_by_pairs(res)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.sampled_from([0, 1, 63, 64, 65, 130]),
    l=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_presented_module_has_the_rank_of_every_pair(p, k, l, seed):
    # the presented module's own composites against the per-pair oracle;
    # r(t, t) = dim M_t, so the dimensions are checked too
    res = low_rank_presentation(np.random.default_rng(seed), k, l, 3, 4, p)
    module = presented_module(res)
    assert module.validate() == []
    assert rank_invariant_naive(module) == rank_by_pairs(res)


def scattered_presentation(rng, k, l, nx, ny, p):
    """A valid presentation whose generators sit at three or more y-grades
    (so as many generator classes), most of them off the origin, with a
    low-rank phi and each relation at or above the join of its column's
    support."""
    ys = rng.choice(ny, size=min(ny, 3), replace=False)
    gens = np.column_stack((rng.integers(0, nx, k), np.concatenate([ys, rng.integers(0, ny, k)])[:k]))
    r = int(rng.integers(1, min(k, l) + 1))
    phi = matmul(rng.integers(0, p, (k, r)), rng.integers(0, p, (r, l)), p)
    phi[:, rng.random(l) < 0.2] = 0
    rels = np.column_stack((rng.integers(0, nx, l), rng.integers(0, ny, l)))
    for j in range(l):
        support = gens[phi[:, j] != 0]
        if support.size:
            rels[j] = np.maximum(rels[j], support.max(axis=0))
    res = hand_resolution(gens.tolist(), rels.tolist(), phi, nx, ny, p)
    assert not inhomogeneous_entries(res.phi)
    return res


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, MAX_MODULUS]), k=st.integers(3, 9), l=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_dp_table_written_slab_by_slab_equals_the_presented_module(p, k, l, seed):
    # each class's rows of each s_x slab are written once, masked and
    # checked; the rows below the lowest generator are zero
    res = scattered_presentation(np.random.default_rng(seed), k, l, 4, 5, p)
    assert len({y for _, y in res.gens.grades}) >= 3
    assert rank_from_resolution(res) == rank_invariant_naive(presented_module(res))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), k=st.sampled_from([0, 1, 5, 64, 65]), n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_prepacked_pair_counts_equal_the_ranks_of_submatrices(p, k, n, seed):
    # the columns are converted once and a subset of them paired, as the
    # DP pairs the relation columns of each t_y; rows keyed 3 never count
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, p, (k, n)) * (rng.random((k, n)) < 0.5)
    row_key = np.sort(rng.integers(0, 4, k))[::-1]
    col_key = np.sort(rng.integers(0, 4, n))
    picked = np.flatnonzero(rng.random(n) < 0.7)
    columns = ColumnReducer.columns(mat, p)
    got = pair_counts([columns[j] for j in picked.tolist()], k, row_key, col_key[picked], (3, 4), p)
    sub, keys = mat[:, picked], col_key[picked]
    assert np.array_equal(got, pair_counts(ColumnReducer.columns(sub, p), k, row_key, keys, (3, 4), p))
    for a in range(3):
        for b in range(4):
            cols = keys <= b
            assert got[a, b] == rank(sub[:, cols], p) - rank(sub[row_key > a][:, cols], p)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), k=st.sampled_from([1, 5, 64, 65]), n=st.integers(0, 10), m=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_pair_counts_from_reduced_forms_equal_a_cold_run(p, k, n, m, seed):
    # a first pass reduces n of the n + m columns in place; pairing its
    # reduced forms again, in the same order with the other m columns
    # inserted among them, gives the counts of the raw columns
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, p, (k, n + m)) * (rng.random((k, n + m)) < 0.7)
    row_key = np.sort(rng.integers(0, 4, k))[::-1]
    col_key = np.sort(rng.integers(0, 4, n + m))
    old = np.sort(rng.choice(n + m, n, replace=False)).tolist()
    columns = ColumnReducer.columns(mat, p)
    first = [columns[j] for j in old]
    pair_counts(first, k, row_key, col_key[old], (3, 4), p)
    assert sum(bool(np.any(v)) for v in first) == rank(mat[:, old], p)
    for j, v in zip(old, first):
        columns[j] = v
    cold = pair_counts(ColumnReducer.columns(mat, p), k, row_key, col_key, (3, 4), p)
    assert np.array_equal(pair_counts(columns, k, row_key, col_key, (3, 4), p), cold)


def late_low_presentation(rng, k, l, p):
    """A presentation on a tall 3 x 8 grid with a dense, high-rank phi:
    generators on three or more y-grades below 4, relations whose g_x
    ties and falls as their g_y rises, and every entry kept whose
    generator lies below its relation."""
    gy = np.concatenate([rng.choice(4, 3, replace=False), rng.integers(0, 4, k)])[:k]
    gens = np.column_stack((rng.integers(0, 2, k), gy))
    fixed = [(2, 1), (2, 2), (0, 6), (1, 5), (2, 3), (0, 7)]
    rels = np.array((fixed + list(zip(rng.integers(0, 3, l), rng.integers(0, 8, l))))[:l], dtype=np.int64)
    phi = rng.integers(0, p, (k, l))
    phi[~(gens[:, None, :] <= rels[None, :, :]).all(axis=2)] = 0
    res = hand_resolution(gens.tolist(), rels.tolist(), phi, 3, 8, p)
    assert not inhomogeneous_entries(res.phi)
    return res


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), k=st.integers(3, 10), l=st.integers(6, 14), seed=st.integers(0, 2**32 - 1))
def test_warm_started_sweeps_equal_the_rank_of_every_pair(p, k, l, seed):
    # each t_y sweep starts from the reduced forms of the one below it,
    # while relations that arrive later sit left of the live columns
    res = late_low_presentation(np.random.default_rng(seed), k, l, p)
    assert rank_from_resolution(res) == rank_by_pairs(res)


@pytest.mark.parametrize("p", [3, MAX_MODULUS])
def test_dp_leaves_phi_as_it_was(p):
    # the reduced forms replace list entries; none is written through a
    # view into phi, so a second call sees the same phi
    res = late_low_presentation(np.random.default_rng(p % 1000), 9, 14, p)
    entries = dense(res.phi).copy()
    first = rank_from_resolution(res)
    assert np.array_equal(dense(res.phi), entries)
    assert rank_from_resolution(res) == first


def test_dense_fixture_at_p3_matches_prefix_ranks():
    # the 50 x 50 timing fixture read at p = 3: every generator sits at
    # the origin, so r(s, t) = 500 - rank phi[:, <= t] for all s <= t;
    # the cold per-row sweeps took about 15 s here
    res = read_fres(_perf_fixture_text().replace("field 2", "field 3", 1))
    inv = rank_from_resolution(res)
    rels = np.array(res.rels.grades, dtype=np.int64)
    for t in [(i, i) for i in (0, 12, 24, 36, 49)] + [(x, 49) for x in (0, 12, 24, 36)]:
        expected = 500 - rank(dense(res.phi)[:, (rels <= t).all(axis=1)], 3)
        assert inv.get((0, 0), t) == inv.get(t, t) == expected


def test_dp_peak_memory_is_the_table_and_a_few_slabs():
    # on a 40 x 40 grid: beside the vector of ranks on the comparable
    # pairs, one array of pair counts [s_x, t_x, t_y], shared by the
    # classes, and the gathers of one (s_x, class) range; the
    # presentation's 60 x 60 phi is small beside them, and a dense
    # (nx, ny, nx, ny) table is not
    res = low_rank_presentation(np.random.default_rng(7), 60, 60, 40, 40, 2)
    tracemalloc.start()
    try:
        inv = rank_from_resolution(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pair_counts_bytes = 40 * 40 * 40 * inv.values.itemsize
    assert inv.values.dtype == np.int16
    assert peak <= inv.values.nbytes + 2 * pair_counts_bytes


def test_dp_peak_memory_is_the_vector_phi_and_one_pairs_array():
    # at p = 2, with a 300 x 300 phi on a 30 x 30 grid: phi's bitsets are
    # gathered in each class's row order a chunk of columns at a time, so
    # beside the vector and one (nx, nx, ny) array of pair counts the DP
    # holds a few copies of phi's columns and one chunk's bits, no dense
    # or reordered phi (114 kB measured, against 720 kB of an int64 phi)
    res = low_rank_presentation(np.random.default_rng(8), 300, 300, 30, 30, 2)
    tracemalloc.start()
    try:
        inv = rank_from_resolution(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gens = np.array(res.gens.grades, dtype=np.int64)
    rels = np.array(res.rels.grades, dtype=np.int64)
    for s, t in [((0, 0), (29, 29)), ((3, 7), (20, 9)), ((11, 0), (11, 29)), ((29, 29), (29, 29))]:
        low = (gens <= s).all(axis=1)
        cols = (rels <= t).all(axis=1)
        assert inv.get(s, t) == int(low.sum()) - rank(dense(res.phi)[:, cols], 2) + rank(dense(res.phi)[~low][:, cols], 2)
    work = 4 * column_bytes(len(gens), len(rels), 2) + 4 * linalg._CHUNK_ENTRIES
    assert peak <= inv.values.nbytes + work + 30 * 30 * 30 * inv.values.itemsize


@pytest.mark.parametrize("p", PRIMES)
def test_column_reducer_counts_prefix_ranks_up_to_full_rank(p):
    # 140 columns in F_p^130: the rank of every prefix, a zero column and
    # a combination are dependent, and once the rank is full every
    # further column is dependent; column 0 is 1 over p - 1 entries and
    # column 1 is all p - 1, so reducing column 1 multiplies p - 1 by
    # p - 1, the largest product an axpy forms
    rng = np.random.default_rng(p % 1000)
    mat = rng.integers(0, p, (130, 140))
    mat[:, :2] = p - 1
    mat[0, 0] = 1
    mat[:, 5] = 0
    mat[:, 70] = (mat[:, 3] + 2 * mat[:, 60]) % p
    reducer = ColumnReducer(130, p)
    independent = [reducer.add(mat[:, j]) is not None for j in range(140)]
    assert not independent[5] and not independent[70]
    for j in (1, 63, 64, 65, 66, 129, 130, 131, 140):
        assert sum(independent[:j]) == rank(mat[:, :j], p)
    assert reducer.rank == 130


def test_column_reducer_on_empty_space():
    reducer = ColumnReducer(0, 2)
    assert reducer.add(np.zeros(0, dtype=np.int64)) is None
    assert reducer.rank == 0
    no_gens = hand_resolution([], [(0, 0), (1, 1)], np.zeros((0, 2)), 2, 2, 3)
    assert not rank_from_resolution(no_gens).values.any()
    assert not presented_module(no_gens).dims.any()


# degree-1 inputs whose relation columns get dense enough to overflow
# int64 products at p = 2**31 - 1: (seed, vertices, q, nx, ny)
DENSE_CLIQUES = [(0, 36, 0.2, 5, 5), (12, 44, 0.18, 6, 4), (16, 32, 0.25, 8, 3)]


@pytest.mark.parametrize("p", [2, 3, 65521, MAX_MODULUS])
def test_dp_equals_naive_for_every_prime_size(clique_bif, p):
    for seed, n_vert, q, nx, ny in DENSE_CLIQUES:
        bif = clique_bif(seed, n_vert, q, nx, ny, p)
        res = free_resolution(bif, 1)
        assert rank_from_resolution(res) == rank_invariant_naive(homology_module(bif, 1))


def test_dp_serializes_like_the_oracle(random_bif):
    bif = random_bif(42, nx=5, ny=5)
    res = free_resolution(bif, 0)
    oracle = rank_invariant_naive(homology_module(bif, 0))
    assert rank_from_resolution(res).to_text() == oracle.to_text()
