import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.linalg import (
    MAX_MODULUS,
    ColumnReducer,
    Subspace,
    image_basis,
    image_of_subspace,
    inv_mod,
    invertible,
    is_prime,
    kernel_basis,
    matmul,
    preimage_of_subspace,
    rank,
    rref,
    solve,
    solve_matrix,
    subspace_intersect,
    subspace_sum,
)


def span_set(cols, p):
    """Oracle: the full set of vectors in the span, by enumeration."""
    cols = np.asarray(cols, dtype=np.int64) % p
    n, k = cols.shape
    vecs = set()
    for coeffs in itertools.product(range(p), repeat=k):
        v = np.zeros(n, dtype=np.int64)
        for c, col in zip(coeffs, cols.T):
            v = (v + c * col) % p
        vecs.add(tuple(v.tolist()))
    return vecs


def random_matrix(rng, rows, cols, p):
    m = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = rng.randrange(p)
    return m


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 101, 2**31 - 1}
    for p in primes:
        assert is_prime(p)
    for q in (0, 1, 4, 9, 91, 2**31 - 2):
        assert not is_prime(q)


def test_inv_mod():
    for p in (2, 5, 101):
        for a in range(1, min(p, 30)):
            assert a * inv_mod(a, p) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 7)


def test_rank_known_matrix():
    # the unipotent 2x2 used throughout the worked examples
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert rank(m, 2) == 2
    comp = matmul(np.array([[1, -1]]) % 2, m, 2)
    assert rank(comp, 2) == 1


def test_rank_nullity_random():
    rng = random.Random(7)
    for p in (2, 5, 101):
        for _ in range(40):
            rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
            m = random_matrix(rng, rows, cols, p)
            assert rank(m, p) + kernel_basis(m, p).dim == cols


def test_kernel_vectors_are_killed():
    rng = random.Random(11)
    for p in (2, 101):
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), p)
            ker = kernel_basis(m, p)
            assert np.all(matmul(m, ker.basis, p) == 0)


def test_subspace_canonical_equality_f2_exhaustive():
    # two generating sets span the same subspace iff the canonical
    # bases coincide; oracle is full span enumeration over F_2
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n, rng.randrange(0, 4), 2)
        b = random_matrix(rng, n, rng.randrange(0, 4), 2)
        sa, sb = Subspace.from_columns(a, 2), Subspace.from_columns(b, 2)
        assert (sa == sb) == (span_set(a, 2) == span_set(b, 2))


def test_sum_intersect_against_enumeration():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(40):
            n = rng.randrange(1, 4)
            a = Subspace.from_columns(random_matrix(rng, n, rng.randrange(0, 3), p), p)
            b = Subspace.from_columns(random_matrix(rng, n, rng.randrange(0, 3), p), p)
            su = subspace_sum(a, b)
            it = subspace_intersect(a, b)
            ssa, ssb = span_set(a.basis, p), span_set(b.basis, p)
            assert span_set(it.basis, p) == ssa & ssb
            assert span_set(su.basis, p) == span_set(np.hstack([a.basis, b.basis]), p)
            # modular law for dimensions
            assert su.dim + it.dim == a.dim + b.dim


def test_solve_roundtrip_and_inconsistency():
    rng = random.Random(13)
    for p in (2, 5, 101):
        for _ in range(40):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            m = random_matrix(rng, rows, cols, p)
            x = random_matrix(rng, cols, 1, p)
            b = matmul(m, x, p)
            got = solve(m, b, p)
            assert got is not None
            assert np.array_equal(matmul(m, got.reshape(-1, 1), p), b)
    # inconsistent system
    m = np.array([[1, 0], [0, 0]], dtype=np.int64)
    assert solve(m, [0, 1], 5) is None
    assert solve_matrix(m, np.array([[1, 0], [0, 1]], dtype=np.int64), 5) is None


def test_solve_matches_image_membership():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, 3, rng.randrange(0, 4), 2)
        b = random_matrix(rng, 3, 1, 2)
        in_image = tuple(b[:, 0].tolist()) in span_set(m, 2)
        assert (solve(m, b, 2) is not None) == in_image


def test_image_preimage_of_subspace():
    rng = random.Random(19)
    for p in (2, 5):
        for _ in range(30):
            a = random_matrix(rng, 3, 3, p)
            s = Subspace.from_columns(random_matrix(rng, 3, rng.randrange(0, 3), p), p)
            img = image_of_subspace(a, s)
            for j in range(s.dim):
                assert img.contains(matmul(a, s.basis[:, j : j + 1], p))
            pre = preimage_of_subspace(a, s)
            for j in range(pre.dim):
                assert s.contains(matmul(a, pre.basis[:, j : j + 1], p))
            # preimage is maximal: its dim is dim ker + dim(S cap im A)
            expected = kernel_basis(a, p).dim + subspace_intersect(s, image_basis(a, p)).dim
            assert pre.dim == expected


def test_matmul_overflow_blocked_path():
    # moduli near 2^31 force the limb-split accumulation path
    rng = random.Random(23)
    for p, k in ((2**31 - 1, 1), (2**31 - 1, 50), (2**31 - 1, 3000), (2**29 - 3, 50), (65521, 50)):
        a = random_matrix(rng, 3, k, p)
        b = random_matrix(rng, k, 2, p)
        a[0], b[:, 0] = p - 1, p - 1  # the largest terms
        want = (a.astype(object) @ b.astype(object)) % p
        got = matmul(a, b, p)
        assert np.array_equal(got, want.astype(np.int64))


def test_zero_dimensional_edges():
    p = 2
    empty_rows = np.zeros((0, 3), dtype=np.int64)
    assert rank(empty_rows, p) == 0
    assert kernel_basis(empty_rows, p).dim == 3
    empty_cols = np.zeros((3, 0), dtype=np.int64)
    assert rank(empty_cols, p) == 0
    assert kernel_basis(empty_cols, p).dim == 0
    assert image_basis(empty_cols, p).dim == 0
    assert invertible(np.zeros((0, 0), dtype=np.int64), p)


def test_rref_is_idempotent():
    rng = random.Random(29)
    for _ in range(20):
        m = random_matrix(rng, 4, 4, 5)
        r, piv = rref(m, 5)
        r2, piv2 = rref(r, 5)
        assert np.array_equal(r, r2) and piv == piv2


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, MAX_MODULUS]),
    k=st.sampled_from([0, 1, 2, 5, 9, 65]),
    l=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_reducer_leads_count_every_lower_left_rank(p, k, l, seed):
    # the pairing lemma: columns added left to right with the rows
    # reversed, the leads inside rows i.. and columns ..j number the
    # rank of that lower-left submatrix; 65 rows span two packed words
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(k, l) + 1))
    mat = matmul(rng.integers(0, p, (k, r)), rng.integers(0, p, (r, l)), p)
    mat[:, rng.random(l) < 0.2] = 0
    reducer = ColumnReducer(k, p)
    rows = [k - 1 - lead if lead is not None else -1 for lead in (reducer.add(mat[::-1, j]) for j in range(l))]
    for i in range(0, k + 1, 1 if k < 10 else 8):
        for j in range(l + 1):
            assert sum(row >= i for row in rows[:j]) == rank(mat[i:, :j], p)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, MAX_MODULUS]),
    k=st.sampled_from([0, 1, 2, 5, 9, 63, 64, 65, 130]),
    l=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_reducer_block_is_a_reduced_basis_of_the_columns(p, k, l, seed):
    # row i is zero before its lead, 1 at it and 0 at every other lead,
    # and the rows span the columns added; the view cannot be written
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(k, l) + 1))
    mat = matmul(rng.integers(0, p, (k, r)), rng.integers(0, p, (r, l)), p)
    mat[:, rng.random(l) < 0.2] = 0
    reducer = ColumnReducer(k, p)
    leads = [lead for lead in (reducer.add(mat[:, j]) for j in range(l)) if lead is not None]
    rows, got = reducer.block()
    assert got.tolist() == leads and rows.shape == (len(leads), k) and rows.dtype == np.int64
    assert np.array_equal(rows[:, got], np.eye(len(leads), dtype=np.int64))
    assert all(not rows[i, :lead].any() for i, lead in enumerate(leads))
    assert len(leads) == rank(mat, p) == rank(np.hstack((mat, rows.T)), p)
    assert not rows.flags.writeable and not got.flags.writeable
