import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.constructions import example, random_rectangle_module
from bipersist.grid_module import GridModule, RankInvariant, comparable_pairs, rank_invariant_naive
from bipersist.linalg import MAX_MODULUS, ColumnReducer, matmul, rank
from bipersist.rank_dp import rank_1d, rank_from_resolution
from bipersist.resolution import FreeModule, FreeResolution, GradedMatrix, free_resolution, presented_module

TRIANGLE = [
    ((0, 0), (0,)), ((1, 0), (1,)), ((0, 1), (2,)),
    ((1, 1), (0, 1)), ((1, 1), (0, 2)), ((2, 1), (1, 2)),
    ((2, 2), (0, 1, 2)),
]


def hand_resolution(gens, rels, phi, nx, ny, p=2):
    g = FreeModule(gens)
    r = FreeModule(rels)
    z = FreeModule([])
    phi = GradedMatrix(g, r, np.array(phi, dtype=np.int64).reshape(len(gens), len(rels)), p)
    psi = GradedMatrix(r, z, np.zeros((len(rels), 0), dtype=np.int64), p)
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
    assert not res.phi.validate_homogeneous()
    return res


def rank_by_pairs(res):
    """Oracle: #gens <= s - rank phi[:, <= t] + rank phi[rows not <= s, <= t], pair by pair."""
    phi, p = res.phi.entries, res.p
    gens = np.array(res.gens.grades, dtype=np.int64).reshape(-1, 2)
    rels = np.array(res.rels.grades, dtype=np.int64).reshape(-1, 2)
    inv = RankInvariant(res.nx, res.ny)
    for s, t in comparable_pairs(res.nx, res.ny):
        low = (gens <= s).all(axis=1)
        cols = (rels <= t).all(axis=1)
        inv.set(s, t, int(low.sum()) - rank(phi[:, cols], p) + rank(phi[~low][:, cols], p))
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


@pytest.mark.parametrize("p", PRIMES)
def test_column_reducer_grows_past_its_first_block(p):
    # 140 columns in F_p^130: the block doubles past 64 and 128 pivots,
    # and once the rank is full every further column is dependent
    rng = np.random.default_rng(p % 1000)
    mat = rng.integers(0, p, (130, 140))
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
    assert not rank_from_resolution(no_gens).table.any()
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


def test_rank_1d_on_two_bars():
    m = example("ex1")
    assert rank_1d(m) == {(0, 2): 1, (0, 1): 1}


def test_rank_1d_interval_modules():
    # single interval [1, 2] on a 4-point line
    mod = GridModule.rectangle(4, 1, (1, 0, 2, 0), 3)
    assert rank_1d(mod) == {(1, 2): 1}
    both = mod.direct_sum(GridModule.rectangle(4, 1, (1, 0, 2, 0), 3))
    assert rank_1d(both) == {(1, 2): 2}


def test_rank_1d_random_interval_sums():
    for seed in range(10):
        mod, truth = random_rectangle_module(6, 1, 4, seed=seed, p=2)
        expected = {}
        for (sx, _, tx, _), mult in truth.items():
            expected[(sx, tx)] = expected.get((sx, tx), 0) + mult
        assert rank_1d(mod) == expected


def test_rank_1d_requires_one_row():
    with pytest.raises(ValueError):
        rank_1d(GridModule.zero(3, 2, 2))
