import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.constructions import example, random_rectangle_module
from bipersist.grid_module import GridModule, rank_invariant_naive
from bipersist.linalg import MAX_MODULUS, ColumnReducer, matmul, rank
from bipersist.rank_dp import _prefix_rank_table, rank_1d, rank_from_resolution
from bipersist.resolution import FreeModule, FreeResolution, GradedMatrix, free_resolution

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


def test_prefix_rank_table_exact_at_the_largest_prime():
    # low-rank products keep the sweep reducing against dense pivot
    # columns, whose raw int64 products exceed 2**63 at p = 2**31 - 1
    p = MAX_MODULUS
    rng = np.random.default_rng(31)
    for _ in range(50):
        k, l, r = 6, 8, int(rng.integers(1, 5))
        mat = matmul(rng.integers(0, p, (k, r)), rng.integers(0, p, (r, l)), p)
        grades = rng.integers(0, 4, (l, 2))
        table = _prefix_rank_table(mat, grades, 4, 4, p)
        for x in range(4):
            for y in range(4):
                cols = (grades[:, 0] <= x) & (grades[:, 1] <= y)
                assert table[x, y] == rank(mat[:, cols], p)


PRIMES = [2, 3, 65521, MAX_MODULUS]


def prefix_ranks_by_rank(mat, grades, nx, ny, p):
    """Oracle: linalg.rank of the columns of grade <= (x, y), grid point by grid point."""
    out = np.zeros((nx, ny), dtype=np.int64)
    for x in range(nx):
        for y in range(ny):
            cols = (grades[:, 0] <= x) & (grades[:, 1] <= y)
            out[x, y] = rank(mat[:, cols], p)
    return out


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.sampled_from([0, 1, 63, 64, 65, 130]),
    l=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_rank_table_equals_rank_of_every_prefix(p, k, l, seed):
    # row counts straddle the 64-bit words of the packed p = 2 path;
    # low-rank products and zeroed columns make dependent columns common
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(k, l) + 1))
    mat = matmul(rng.integers(0, p, (k, r)), rng.integers(0, p, (r, l)), p)
    mat[:, rng.random(l) < 0.2] = 0
    grades = rng.integers(0, 3, (l, 2))
    table = _prefix_rank_table(mat, grades, 3, 3, p)
    assert np.array_equal(table, prefix_ranks_by_rank(mat, grades, 3, 3, p))


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
    assert not np.any(_prefix_rank_table(np.zeros((4, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 2, 2, 3))


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
