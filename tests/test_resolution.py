import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.grid_module import rank_invariant_naive
from bipersist.ioutil import FormatError
from bipersist.linalg import kernel_basis, rank
from bipersist.rank_dp import rank_from_resolution
from bipersist.resolution import (
    FreeModule,
    FreeResolution,
    GradedMatrix,
    evaluate,
    free_resolution,
    graded_kernel_basis,
    presentation,
    presented_module,
    read_fres,
    validate_resolution,
    write_fres,
)
from bipersist.weakexact import kappa_iota
from conftest import clique_bifiltration

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
    assert basis.shape == (2, 1)
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
        assert res.phi.validate_homogeneous() == []
        assert res.psi.validate_homogeneous() == []


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
    assert good.validate_homogeneous() == []
    bad = GradedMatrix(FreeModule([(1, 1)]), FreeModule([(0, 0)]), [[1]], 2)
    assert bad.validate_homogeneous() != []


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
    assert np.array_equal(ki.kappa, want.kappa) and np.array_equal(ki.iota, want.iota)
    assert rank_invariant_naive(module) == rank_from_resolution(pres)
