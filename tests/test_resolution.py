import random
import re
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.grid_module import rank_invariant_naive
from bipersist import ioutil
from bipersist.ioutil import FormatError, InvariantError, TooLargeError
from bipersist.linalg import ColumnReducer, rank
from bipersist.rank_dp import rank_from_resolution
import bipersist.resolution as resolution
from bipersist.fres import read_fres, write_fres
from bipersist.resolution import (
    FreeModule,
    FreeResolution,
    GradedMatrix,
    free_resolution,
    graded_kernel_basis,
    presentation,
    presented_module,
)
from bipersist.weakexact import kappa_iota
from conftest import clique_bifiltration, reference_graded_kernel_basis, reference_presentation
from paperlib import evaluate, inhomogeneous_entries, kernel_basis, validate_resolution

TRIANGLE = [
    ((0, 0), (0,)), ((1, 0), (1,)), ((0, 1), (2,)),
    ((1, 1), (0, 1)), ((1, 1), (0, 2)), ((2, 1), (1, 2)),
    ((2, 2), (0, 1, 2)),
]


def test_graded_kernel_basis_pointwise():
    # columns graded so the kernel appears only once both are present
    mat = np.array([[1, 1], [1, 1]], dtype=np.int64)
    basis, grades = graded_kernel_basis(mat, [(0, 1), (1, 0)], 2, 2, 2)
    assert grades == [(1, 1)]
    assert ColumnReducer.dense(basis, 2, 2).shape == (2, 1)
    # restricted to grade <= t the recorded generators span the kernel
    for t in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        cols = [j for j, g in enumerate([(0, 1), (1, 0)]) if g[0] <= t[0] and g[1] <= t[1]]
        expected = kernel_basis(mat[:, cols], 2).dim
        got = sum(1 for g in grades if g[0] <= t[0] and g[1] <= t[1])
        assert got == expected


def test_free_resolution_validates_on_fixtures(random_bif):
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    for degree in (0, 1):
        res = free_resolution(bif, degree)
        assert validate_resolution(res, bif, degree) is None
    for seed in range(6):
        bif = random_bif(seed, nx=5, ny=5)
        for degree in (0, 1):
            res = free_resolution(bif, degree)
            assert validate_resolution(res, bif, degree) is None


def test_resolution_grades_dominate_lubs():
    # homogeneity: every relation's grade dominates the grades of the
    # generators it hits, i.e. their least upper bound
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    for degree in (0, 1):
        res = free_resolution(bif, degree)
        assert inhomogeneous_entries(res.phi) == []
        assert inhomogeneous_entries(res.psi) == []


def test_evaluate_counts_and_shapes():
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    res = free_resolution(bif, 0)
    (k, l, m), phi_t, psi_t = evaluate(res, (0, 0))
    assert (k, l, m) == (1, 0, 0)
    assert phi_t.shape == (1, 0) and psi_t.shape == (0, 0)
    (k, l, m), phi_t, psi_t = evaluate(res, (2, 2))
    assert k == len(res.gens) and l == len(res.rels) and m == len(res.relrels)
    # coker phi at top = H0 at top = 1 component
    assert k - rank(phi_t, 2) == homology_module(bif, 0).dim_at((2, 2))


def test_validate_detects_missing_relation():
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    res = free_resolution(bif, 0)
    assert len(res.rels) >= 1
    # drop the first relation (and any relation-on-relations touching it);
    # the edge it merges then never merges, so coker phi overshoots H0
    keep = list(range(1, len(res.rels)))
    rels = FreeModule([res.rels.grades[j] for j in keep])
    phi = GradedMatrix(res.gens, rels, res.phi.entries[:, keep], res.p)
    relrels = FreeModule([])
    psi = GradedMatrix(rels, relrels, np.zeros((len(keep), 0), dtype=np.int64), res.p)
    broken = FreeResolution(res.gens, rels, relrels, phi, psi, res.nx, res.ny, res.p)
    msg = validate_resolution(broken, bif, 0)
    assert msg is not None


def test_empty_degree_gives_empty_resolution():
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    res = free_resolution(bif, 2)  # one triangle, no 3-simplices
    assert validate_resolution(res, bif, 2) is None
    res = free_resolution(bif, 5)
    assert len(res.gens) == 0 and len(res.rels) == 0 and len(res.relrels) == 0
    assert validate_resolution(res, bif, 5) is None


def test_graded_matrix_homogeneity():
    good = GradedMatrix(FreeModule([(0, 0)]), FreeModule([(1, 1)]), [[1]], 2)
    assert inhomogeneous_entries(good) == []
    bad = GradedMatrix(FreeModule([(1, 1)]), FreeModule([(0, 0)]), [[1]], 2)
    assert inhomogeneous_entries(bad) != []


def test_graded_matrix_never_writes_the_callers_entries():
    # entries outside [0, p) are reduced into a new array; entries already
    # reduced are kept as given, not copied
    gens, rels = FreeModule([(0, 0)] * 2), FreeModule([(1, 1)] * 2)
    given_entries = np.array([[4, -1], [3, 7]], dtype=np.int64)
    gm = GradedMatrix(gens, rels, given_entries, 3)
    assert gm.entries.tolist() == [[1, 2], [0, 1]]
    assert given_entries.tolist() == [[4, -1], [3, 7]]
    reduced = np.array([[1, 2], [0, 1]], dtype=np.int64)
    assert GradedMatrix(gens, rels, reduced, 3).entries is reduced
    assert GradedMatrix(gens, FreeModule([]), np.zeros((2, 0), dtype=np.int64), 3).entries.shape == (2, 0)


def test_fres_roundtrip(random_bif):
    bif = random_bif(11, nx=5, ny=5, p=3)
    res = free_resolution(bif, 1)
    text = write_fres(res)
    back = read_fres(text)
    assert back.p == 3 and (back.nx, back.ny) == (5, 5)
    assert back.gens.grades == res.gens.grades
    assert back.rels.grades == res.rels.grades
    assert back.relrels.grades == res.relrels.grades
    assert np.array_equal(back.phi.entries, res.phi.entries)
    assert np.array_equal(back.psi.entries, res.psi.entries)
    assert write_fres(back) == text


def test_fres_rejects_malformed():
    good = write_fres(free_resolution(Bifiltration.from_graded_simplices(TRIANGLE), 0))
    with pytest.raises(FormatError):
        read_fres(good.replace("resolution", "res"))
    with pytest.raises(FormatError):
        read_fres(good.replace("field 2", "field 6"))
    # an entry from a high-graded generator to a low-graded relation
    bad = (
        "resolution\nfield 2\ngrid 2 2\ngens\n2 2\nrels\n1 1\nrelrels\n"
        "phi\n1 1 1\npsi\n"
    )
    with pytest.raises(FormatError):
        read_fres(bad)
    with pytest.raises(FormatError):
        read_fres("resolution\nfield 2\ngrid 2 2\ngens\n3 1\nrels\nrelrels\nphi\npsi\n")


def test_presentation_is_the_resolution_without_psi(random_bif):
    for seed in range(6):
        bif = random_bif(500 + seed, nx=5, ny=4, p=(2, 3)[seed % 2])
        for degree in (0, 1):
            pres, res = presentation(bif, degree), free_resolution(bif, degree)
            assert pres.gens == res.gens and pres.rels == res.rels
            assert np.array_equal(pres.phi.entries, res.phi.entries)
            assert (pres.nx, pres.ny, pres.p) == (res.nx, res.ny, res.p)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1, 2]),
    n_vert=st.integers(1, 9),
    q=st.sampled_from([0.4, 0.7, 0.9]),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
@hypothesis.example(p=2**31 - 1, degree=1, n_vert=8, grid=(5, 4), q=0.7, seed=3)
@hypothesis.example(p=3, degree=2, n_vert=9, grid=(4, 4), q=0.9, seed=1)
def test_presented_module_is_the_homology_module(p, degree, n_vert, q, grid, seed):
    # two models of the same module: equal dimensions and the same
    # isomorphism invariants, though the bases differ
    bif = clique_bifiltration(seed, n_vert, q, *grid, p)
    pres = presentation(bif, degree)
    module, oracle = presented_module(pres), homology_module(bif, degree)
    assert module.validate() == []
    assert np.array_equal(module.dims, oracle.dims)
    ki, want = kappa_iota(module), kappa_iota(oracle)
    assert ki.kappa == want.kappa and ki.iota == want.iota
    assert rank_invariant_naive(module) == rank_from_resolution(pres)


@st.composite
def column_graded_matrices(draw):
    """(mat, grades, nx, ny, p): entries from {0, 1, 2, p - 1}, some columns
    zero and some multiples of an earlier column, grades on a grid small
    enough to repeat."""
    p = draw(st.sampled_from([2, 3, 2**31 - 1]))
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 10))
    flat = draw(st.lists(st.sampled_from([0, 0, 1, 2, p - 1]), min_size=rows * cols, max_size=rows * cols))
    mat = np.array(flat, dtype=np.int64).reshape(rows, cols) % p
    for j in range(cols):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "multiple"]))
        if kind == "zero":
            mat[:, j] = 0
        elif kind == "multiple" and j:
            mat[:, j] = mat[:, draw(st.integers(0, j - 1))] * draw(st.sampled_from([1, 2, p - 1])) % p
    grades = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), min_size=cols, max_size=cols))
    return mat, grades, nx, ny, p


@settings(max_examples=200, deadline=None)
@given(column_graded_matrices())
def test_graded_kernel_basis_equals_the_per_point_sweep(drawn):
    # skipping the points that gain no generator changes neither the
    # basis nor its grades
    mat, grades, nx, ny, p = drawn
    basis, got = graded_kernel_basis(mat, grades, nx, ny, p)
    basis = ColumnReducer.dense(basis, mat.shape[1], p)
    want_basis, want = reference_graded_kernel_basis(mat, grades, nx, ny, p)
    assert got == want
    assert basis.shape == want_basis.shape and np.array_equal(basis, want_basis)


@st.composite
def earlier_generators_on_both_sides(draw):
    """(mat, grades, nx, ny, p, x) from `column_graded_matrices`, widened to
    nx >= 3 and ny >= 2, with zero columns put in at (0, 0), (nx - 1, 0)
    and (x, 1), 0 < x < nx - 1.  A zero column is a generator at its own
    grade, so row 1 completes a kernel at (x, 1) while row 0 holds
    generators with g_x both below and above x."""
    mat, grades, nx, ny, p = draw(column_graded_matrices())
    nx, ny = max(nx, 3), max(ny, 2)
    x = draw(st.integers(1, nx - 2))
    rows, columns, grades = mat.shape[0], list(mat.T), list(grades)
    for g in ((0, 0), (nx - 1, 0), (x, 1)):
        at = draw(st.integers(0, len(grades)))
        columns.insert(at, np.zeros(rows, dtype=np.int64))
        grades.insert(at, g)
    return np.column_stack(columns), grades, nx, ny, p, x


@settings(max_examples=100, deadline=None)
@given(earlier_generators_on_both_sides())
def test_graded_kernel_basis_joins_earlier_rows_in_rising_g_x(drawn):
    # at (x, 1) the row-1 reducer must hold the row-0 generators with
    # g_x <= x and none of those past x
    mat, grades, nx, ny, p, x = drawn
    basis, got = graded_kernel_basis(mat, grades, nx, ny, p)
    basis = ColumnReducer.dense(basis, mat.shape[1], p)
    want_basis, want = reference_graded_kernel_basis(mat, grades, nx, ny, p)
    assert {(0, 0), (nx - 1, 0), (x, 1)} <= set(got)
    assert got == want
    assert basis.shape == want_basis.shape and np.array_equal(basis, want_basis)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_graded_kernel_basis_of_empty_matrices(p, shape):
    mat = np.zeros(shape, dtype=np.int64)
    grades = [(0, j % 2) for j in range(shape[1])]
    basis, got = graded_kernel_basis(mat, grades, 2, 2, p)
    basis = ColumnReducer.dense(basis, shape[1], p)
    want_basis, want = reference_graded_kernel_basis(mat, grades, 2, 2, p)
    assert got == want and basis.shape == want_basis.shape == (shape[1], shape[1] if not shape[0] else 0)


@pytest.mark.parametrize("p", [2, 3])
def test_graded_kernel_basis_peak_memory_does_not_grow_with_the_points_that_solve(p):
    # a generator kept as a view into the kernel of its point would keep
    # that whole kernel alive, one per point that gains a generator:
    # 76-80 MB here, against a few copies of the stacked
    # (k + cols) x cols matrix, 2.6 MB
    bif = clique_bifiltration(3, 60, 0.3, 20, 20, p)
    mat = bif.boundary_matrix(1)
    k, cols = mat.shape
    tracemalloc.start()
    try:
        graded_kernel_basis(mat, [bif.grades[s] for s in bif.by_dim[1]], bif.nx, bif.ny, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (k + cols) * cols * 8


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_presentation_peaks_below_a_dense_basis_and_boundaries():
    # the boundary columns are solved by reducing them against
    # [generators; I], column by column, so the solve holds no dense
    # [basis | boundaries], 8 rows (gens + rels) bytes: 4.20 MB here,
    # where a dense solve peaked at 5.94 MB, and the solve on the
    # reducer's columns at 2.25 MB (the boundary matrices are cached on
    # the bifiltration before the run)
    bif = clique_bifiltration(1, 70, 0.25, 10, 10, 2)
    mat, _ = bif.boundary_matrix(1), bif.boundary_matrix(2)
    pres = None

    def run():
        nonlocal pres
        pres = presentation(bif, 1)

    peak = _traced_peak(run)
    assert mat.shape[1] > 5 * mat.shape[0]  # wide: the generators outnumber the rows
    assert peak < 8 * mat.shape[1] * (len(pres.gens) + len(pres.rels))


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1, 2]),
    n_vert=st.integers(2, 60),
    q=st.floats(0.05, 0.3),
    grid=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    seed=st.integers(0, 10**6),
)
@hypothesis.example(p=2, degree=0, n_vert=600, q=0.0, grid=(10, 10), seed=600)
@hypothesis.example(p=2, degree=0, n_vert=1000, q=0.0, grid=(10, 10), seed=1000)
def test_presentation_states_at_least_the_bytes_it_peaks_at(p, degree, n_vert, q, grid, seed):
    # the byte rule of a .bif is stated from the simplex counts before any
    # matrix is built; at every p it is at least the traced peak, on small
    # complexes where the fixed work dominates and on larger ones where
    # the dense arrays do (past p = 2, the reducers' int64 columns).  The
    # isolated vertices make [d_q; I] the square identity: every column is
    # a generator, and the basis meets the last block, which the reducer
    # unpacks from its bitsets a bounded chunk at a time
    bif = clique_bifiltration(seed, n_vert, q, *grid, p)
    assert _traced_peak(lambda: presentation(bif, degree)) <= _stated_bytes(bif, degree)


def _stated_bytes(bif, degree):
    """The bytes `presentation(bif, degree)` states with no tables, read
    off its refusal at a cap below any input."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "BYTES_CAP", -1)
        with pytest.raises(TooLargeError) as refused:
            presentation(bif, degree, tables=0)
    return int(re.search(r"would need ([0-9,]+) bytes", str(refused.value))[1].replace(",", ""))


@pytest.mark.parametrize("p", [3, 2**31 - 1])
@pytest.mark.parametrize("case", ["60 vertices", "600 isolated vertices"])
def test_presentation_states_the_int64_columns_past_p_2(p, case):
    # 60 vertices in degree 1 peaked at 1.8 times the bytes stated
    # before the int64 columns were; 600 isolated vertices in degree 0
    # are the tightest input measured (within 2 %): [d_q; I] is the
    # identity, every column a generator, and the stack, the admitted
    # columns, the span's columns and the basis are all 600 x 600
    if case == "60 vertices":
        bif, degree = clique_bifiltration(1, 60, 0.2, 20, 20, p), 1
    else:
        rng = random.Random(600)
        bif, degree = Bifiltration({(v,): (rng.randrange(10), rng.randrange(10)) for v in range(600)}, 10, 10, p), 0
    assert _traced_peak(lambda: presentation(bif, degree)) <= _stated_bytes(bif, degree)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1, 2]),
    n_vert=st.integers(1, 9),
    q=st.sampled_from([0.3, 0.6, 0.9]),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
@hypothesis.example(p=2, degree=1, n_vert=9, q=0.9, grid=(1, 1), seed=0)
@hypothesis.example(p=3, degree=2, n_vert=1, q=0.3, grid=(2, 3), seed=5)
def test_presentation_equals_the_per_column_solve(p, degree, n_vert, q, grid, seed):
    # one solve for all boundary columns against the top-point basis
    # gives the same phi as one solve per column against the generators
    # below its grade; degree 2 has no relations, one vertex no edges
    bif = clique_bifiltration(seed, n_vert, q, *grid, p)
    got, want = presentation(bif, degree), reference_presentation(bif, degree)
    assert got.gens.grades == want.gens.grades and got.rels.grades == want.rels.grades
    assert got.phi.entries.shape == want.phi.entries.shape
    assert np.array_equal(got.phi.entries, want.phi.entries)


@pytest.mark.parametrize("damage", ["raise the grades", "drop a generator"])
def test_presentation_refuses_boundaries_outside_the_generator_span(monkeypatch, damage):
    # vertex generators graded above their edges, or one vertex missing:
    # some boundary column has no solution on the generators below it
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    basis, grades = graded_kernel_basis(bif.boundary_matrix(0), [bif.grades[s] for s in bif.by_dim[0]], bif.nx, bif.ny, 2)
    if damage == "raise the grades":
        damaged = (basis, [(bif.nx - 1, bif.ny - 1)] * len(grades))
    else:
        damaged = (basis[1:], grades[1:])
    monkeypatch.setattr(resolution, "graded_kernel_basis", lambda *args: damaged)
    with pytest.raises(InvariantError, match="outside the generator span"):
        presentation(bif, 0)
