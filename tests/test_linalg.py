import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist import linalg
from bipersist.ioutil import MAX_MODULUS, is_prime
from bipersist.linalg import (
    ColumnReducer,
    flag_step,
    inv_mod,
    matmul,
    pair_flags,
    rank,
    solve_columns,
    solve_matrix,
)
from conftest import reference_kernel_basis, reference_rank, reference_rref
from paperlib import (
    Subspace,
    contains,
    dense_solve_matrix,
    extend_basis,
    image_basis,
    image_of_subspace,
    invertible,
    kernel_basis,
    preimage_of_subspace,
    solve,
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
                assert contains(img, matmul(a, s.basis[:, j : j + 1], p))
            pre = preimage_of_subspace(a, s)
            for j in range(pre.dim):
                assert contains(s, matmul(a, pre.basis[:, j : j + 1], p))
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


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, MAX_MODULUS]),
    rows=st.sampled_from([0, 1, 2, 5, 9]),
    cols=st.sampled_from([0, 1, 2, 7, 65]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_basis_matches_the_row_by_row_reference(p, rows, cols, seed):
    # 0-row (the kernel is everything), 0-column, all-zero and
    # rank-deficient matrices; the canonical basis is unique, so the
    # fancy-indexed construction must give the reference's exactly
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(rows, cols) + 1))
    m = matmul(rng.integers(0, p, (rows, r)), rng.integers(0, p, (r, cols)), p)
    m[:, rng.random(cols) < 0.2] = 0
    got, want = kernel_basis(m, p), reference_kernel_basis(m, p)
    assert got == want and got.basis.dtype == np.int64
    assert got.dim == cols - reference_rank(m, p)
    # the reducer fed the columns of [m; I], no identity built, gives the
    # same basis: the lower parts of its block rows that lead past m,
    # every one admitted by an empty span, and its block is the
    # reference's reduced echelon form of [m; I]
    stacked = list(ColumnReducer.stacked(ColumnReducer.columns(m, p), rows, p))
    assert np.array_equal(ColumnReducer.dense(stacked, rows + cols, p), np.vstack((m % p, np.eye(cols, dtype=np.int64))))
    reducer = ColumnReducer(rows + cols, p)
    assert all(reducer.add(v) is not None for v in stacked)
    span = ColumnReducer(cols, p)
    kernel = reducer.kernel(rows, span)
    assert span.rank == len(kernel) == got.dim
    assert np.array_equal(ColumnReducer.dense(kernel, cols, p), got.basis)
    r, piv = reference_rref(np.hstack((m.T % p, np.eye(cols, dtype=np.int64))), p)
    assert np.array_equal(reducer.block()[0], r[: len(piv)])
    if p != 2:  # each a copy, so that none keeps the reduced rows alive
        assert all(v.base is None for v in kernel)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, MAX_MODULUS]),
    rows=st.sampled_from([0, 1, 2, 5, 9, 65]),
    cols=st.sampled_from([0, 1, 2, 5, 9]),
    nb=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_matrix_solves_or_refuses_by_the_residue_against_m_and_i(p, rows, cols, nb, seed):
    # m with dependent, zero or no columns and b with no columns; some
    # columns of b are redrawn at random and may leave the image of m
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(rows, cols) + 1))
    m = matmul(rng.integers(0, p, (rows, r)), rng.integers(0, p, (r, cols)), p)
    m[:, rng.random(cols) < 0.2] = 0
    b = matmul(m, rng.integers(0, p, (cols, nb)), p)
    redrawn = rng.random(nb) < 0.3
    b[:, redrawn] = rng.integers(0, p, (rows, int(redrawn.sum())))
    rank_m = reference_rank(m, p)
    assert rank(m, p) == rank(m.T, p) == rank_m
    consistent = [reference_rank(np.hstack((m, b[:, j : j + 1])), p) == rank_m for j in range(nb)]
    x = solve_matrix(m, b, p)
    if not all(consistent):
        assert x is None
    else:
        assert x.shape == (cols, nb) and x.dtype == np.int64 and ((x >= 0) & (x < p)).all()
        assert np.array_equal(matmul(m, x, p), b)
        if rank_m == cols:
            assert np.array_equal(x, dense_solve_matrix(m, b, p))
    # m given as its columns is solved as m is, and solve admits nothing:
    # the reducer of [m; I] matches a twin that never solved
    x_cols = solve_matrix(ColumnReducer.columns(m, p), b, p)
    assert (x is None and x_cols is None) or np.array_equal(x_cols, x)
    # both given as columns, with their row count, and the solutions in
    # the reducer's form
    both = solve_matrix(ColumnReducer.columns(m, p), ColumnReducer.columns(b, p), p, k=rows)
    assert (x is None and both is None) or np.array_equal(both, x)
    y = solve_columns(ColumnReducer.columns(m, p), ColumnReducer.columns(b, p), rows, p)
    assert (x is None and y is None) or np.array_equal(ColumnReducer.dense(y, cols, p), x)
    reducer, twin = ColumnReducer(rows + cols, p), ColumnReducer(rows + cols, p)
    for v in ColumnReducer.stacked(ColumnReducer.columns(m, p), rows, p):
        assert reducer.add(v) is not None and twin.add(v) is not None
    for j, v in enumerate(ColumnReducer.columns(b, p)):
        y = reducer.solve(v, rows)
        assert (y is not None) == consistent[j]
        if y is not None:
            assert np.array_equal(matmul(m, ColumnReducer.dense([y], cols, p), p), b[:, j : j + 1])
    rows_r, leads = reducer.block()
    rows_t, leads_t = twin.block()
    assert reducer.rank == twin.rank == cols
    assert np.array_equal(leads, leads_t) and np.array_equal(rows_r, rows_t)
    for lead in leads.tolist():
        got, want = reducer.admitted(lead), twin.admitted(lead)
        assert np.array_equal(ColumnReducer.dense([got], rows + cols, p), ColumnReducer.dense([want], rows + cols, p))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, MAX_MODULUS]),
    n=st.sampled_from([0, 1, 3, 9, 65]),
    b=st.integers(0, 4),
    c=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_extend_basis_takes_the_pivots_after_the_base(p, n, b, c, seed):
    # the candidates chosen are the pivot columns of [base | candidates]
    # past the base, and the chosen columns complete span(base)
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(n, b + c) + 1))
    mat = matmul(rng.integers(0, p, (n, r)), rng.integers(0, p, (r, b + c)), p)
    mat[:, rng.random(b + c) < 0.2] = 0
    base, cand = mat[:, :b], mat[:, b:]
    chosen = extend_basis(base, cand, p)
    assert chosen == [j - b for j in reference_rref(mat, p)[1] if j >= b]
    assert reference_rank(np.hstack((base, cand[:, chosen])), p) == reference_rank(mat, p)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, MAX_MODULUS]),
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
            assert sum(row >= i for row in rows[:j]) == reference_rank(mat[i:, :j], p)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, MAX_MODULUS]),
    k=st.sampled_from([0, 1, 2, 5, 9, 63, 64, 65, 130]),
    l=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_reducer_block_is_a_reduced_basis_of_the_columns(p, k, l, seed):
    # rows sorted by lead, row i zero before its lead, 1 at it and 0 at
    # every other lead, spanning the columns added: the reference's
    # reduced row echelon form of the columns; the view cannot be written
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, min(k, l) + 1))
    mat = matmul(rng.integers(0, p, (k, r)), rng.integers(0, p, (r, l)), p)
    mat[:, rng.random(l) < 0.2] = 0
    reducer = ColumnReducer(k, p)
    leads = [lead for lead in (reducer.add(mat[:, j]) for j in range(l)) if lead is not None]
    rows, got = reducer.block()
    assert got.tolist() == sorted(leads) and rows.shape == (len(leads), k) and rows.dtype == np.int64
    assert np.array_equal(rows[:, got], np.eye(len(leads), dtype=np.int64))
    assert all(not rows[i, :lead].any() for i, lead in enumerate(got))
    assert len(leads) == reference_rank(mat, p) == reference_rank(np.hstack((mat, rows.T)), p)
    r, piv = reference_rref(mat.T, p)
    assert piv == got.tolist() and np.array_equal(rows, r[: len(piv)])
    assert not rows.flags.writeable and not got.flags.writeable


def test_column_reducer_reduces_entries_mod_2():
    # negative, even and large entries at p = 2, as arrays or as bitsets
    for add in (lambda r, v: r.add(v), lambda r, v: r.add(ColumnReducer.columns(v[:, None], 2)[0])):
        reducer = ColumnReducer(3, 2)
        assert add(reducer, np.array([2, -4, 6])) is None
        assert add(reducer, np.array([-1, 2, 3])) == 0
        assert add(reducer, np.array([7, 10**12, -3])) is None
        assert add(reducer, np.array([0, 5, -2])) == 1
        rows, leads = reducer.block()
        assert rows.tolist() == [[1, 0, 1], [0, 1, 0]] and leads.tolist() == [0, 1]


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130, 200])
def test_column_reducer_gf2_has_no_word_boundaries(k):
    # unit vectors at the old uint64 word edges, then columns with entries
    # in -3..3; the rows are fully reduced, sorted by lead, and match
    # the reduced echelon form of the columns; at full rank add gives None
    rng = np.random.default_rng(k)
    edges = [i for i in (0, 1, 62, 63, 64, 65, 127, 128, 129, 199) if i < k]
    mat = np.hstack((np.eye(k, dtype=np.int64)[:, edges], rng.integers(-3, 4, (k, k + 4)), np.zeros((k, 1), dtype=np.int64)))
    by_array, by_bits = ColumnReducer(k, 2), ColumnReducer(k, 2)
    leads = [by_array.add(mat[:, j]) for j in range(mat.shape[1])]
    assert [by_bits.add(v) for v in ColumnReducer.columns(mat, 2)] == leads
    assert leads[: len(edges)] == edges
    admitted = [lead for lead in leads if lead is not None]
    for i in sorted({0, k // 2, k - 1, *edges} - {-1}):
        for j in (len(edges), mat.shape[1] // 2, mat.shape[1]):
            assert sum(lead <= i for lead in leads[:j] if lead is not None) == reference_rank(mat[: i + 1, :j] % 2, 2)
    rows, got = by_array.block()
    assert got.tolist() == sorted(admitted) and rows.shape == (len(admitted), k)
    assert np.array_equal(rows[:, got], np.eye(len(admitted), dtype=np.int64))
    assert all(not rows[i, :lead].any() for i, lead in enumerate(got))
    r, piv = reference_rref(mat.T % 2, 2)
    assert np.array_equal(rows, r[: len(piv)])
    assert np.array_equal(by_bits.block()[0], rows)
    assert by_array.rank == k and by_array.add(np.ones(k, dtype=np.int64)) is None


@pytest.mark.parametrize("p", [2, 3, MAX_MODULUS])
def test_column_reducer_block_follows_later_admissions(p):
    # a block read before further columns come in is not reused after,
    # and one read at an unchanged rank is the same array
    reducer = ColumnReducer(4, p)
    reducer.add(np.array([1, 1, 1, 1]))
    first, _ = reducer.block()
    reducer.add(np.array([0, 1, 1, 0]))
    rows, leads = reducer.block()
    assert first.tolist() == [[1, 1, 1, 1]]
    assert rows.tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]] and leads.tolist() == [0, 1]
    assert reducer.block()[0] is rows


@pytest.mark.parametrize("chunk", [1, 7, 140, 1 << 14])
@pytest.mark.parametrize("p", [2, 3])
def test_columns_of_gathered_rows_are_those_of_the_gathered_matrix(monkeypatch, chunk, p):
    # the DP converts phi in a class's row order; at p = 2 the parity
    # bits are gathered a chunk of columns at a time (one at chunk <= 70,
    # two at 140), with no reordered copy
    rng = np.random.default_rng(chunk)
    mat = rng.integers(-5, 6, (70, 9))
    order = rng.permutation(70)
    monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", chunk)
    got, want = ColumnReducer.columns(mat, p, rows=order), ColumnReducer.columns(mat[order], p)
    assert len(got) == len(want) == 9
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    if p == 2:  # bit k-1-i holds row i's parity
        assert got == [int("".join(map(str, (mat[order, j] & 1).tolist())), 2) for j in range(9)]
    # gathered from the columns themselves, a chunk of bitsets unpacked at
    # a time, and their supports
    held = ColumnReducer.columns(mat % p, p)
    regathered = ColumnReducer.gathered(held, 70, p, order)
    reduced = ColumnReducer.columns(mat[order] % p, p)
    assert all(np.array_equal(a, b) for a, b in zip(regathered, reduced)) and len(regathered) == 9
    assert np.array_equal(ColumnReducer.support(held, 70, p), (mat % p != 0).T)
    assert ColumnReducer.gathered(held[:0], 70, p, order) == []


@pytest.mark.parametrize("chunk", [1, 1 << 14])
def test_columns_of_empty_matrices_at_p2(monkeypatch, chunk):
    monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", chunk)
    assert ColumnReducer.columns(np.zeros((0, 3), dtype=np.int64), 2) == [0, 0, 0]
    assert ColumnReducer.columns(np.zeros((4, 0), dtype=np.int64), 2) == []
    assert ColumnReducer.columns(np.zeros((4, 2), dtype=np.int64), 2, rows=np.arange(0)) == [0, 0]


def reference_flag_step(edge, flag, here, p):
    """Oracle for `flag_step`: the pushed basis and the unit vectors as one
    dense candidate matrix [edge basis | I], whose columns are kept as a
    reference rank test admits them, until the rank is d."""
    d = edge.shape[0]
    cand = np.hstack((matmul(edge, flag[0], p), np.eye(d, dtype=np.int64)))
    born = np.concatenate((flag[1], np.full(d, here, dtype=np.int64)))
    keep = []
    for j in range(cand.shape[1]):
        if len(keep) < d and reference_rank(cand[:, keep + [j]], p) > len(keep):
            keep.append(j)
    return cand[:, keep], born[keep]


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, MAX_MODULUS]),
    dims=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_flag_step_keeps_the_admitted_pushed_columns_then_unit_vectors(p, dims, seed):
    # a walk from the zero space through spaces of the drawn dimensions,
    # 0 included, along low-rank edges: the unit vectors come from the
    # reducer, with no identity block, and the flag is the oracle's
    rng = np.random.default_rng(seed)
    flag = want = (np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))
    for here, d in enumerate(dims):
        r = int(rng.integers(0, min(d, len(flag[1])) + 1))
        edge = matmul(rng.integers(0, p, (d, r)), rng.integers(0, p, (r, len(flag[1]))), p)
        flag, want = flag_step(edge, flag, here, p), reference_flag_step(edge, want, here, p)
        assert flag[0].dtype == np.int64 and flag[0].shape == (d, d)
        assert np.array_equal(flag[0], want[0]) and np.array_equal(flag[1], want[1])


def test_pair_flags_solves_with_no_stack_of_the_basis_and_the_identity():
    # two 120-dimensional flags at p = 3: the columns of [a; I] reach the
    # solve's reducer one at a time, so it holds its admitted columns,
    # 16 d^2 bytes, and the solutions, 8 d^2, but no n x (k + n) stack
    # beside them (28.7 d^2 measured; 36 d^2 while the stack was held)
    p, d = 3, 120
    rng = np.random.default_rng(120)
    flags = []
    for _ in range(2):
        basis = rng.integers(0, p, (d, d))
        while reference_rank(basis, p) < d:
            basis = rng.integers(0, p, (d, d))
        flags.append((basis, np.sort(rng.integers(0, 4, d))))
    tracemalloc.start()
    try:
        got = pair_flags(*flags, (4, 4), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[-1, -1] == d
    assert peak <= 30 * d * d
