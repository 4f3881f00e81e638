import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import (
    Bifiltration,
    FormatError,
    HomologyBasis,
    InvariantError,
    facets,
    homology_basis,
    homology_map,
    homology_module,
    read_bif,
    write_bif,
)
from bipersist.grid_module import iter_points
from bipersist.linalg import matmul
from bipersist.resolution import presentation
from conftest import clique_bifiltration, reference_homology_basis
from paperlib import ZigzagComplex, col_zigzag, row_zigzag

TRIANGLE = [
    ((0, 0), (0,)), ((1, 0), (1,)), ((0, 1), (2,)),
    ((1, 1), (0, 1)), ((1, 1), (0, 2)), ((2, 1), (1, 2)),
    ((2, 2), (0, 1, 2)),
]


def h0_components(bif, t):
    """Union-find count of connected components of the complex at t."""
    present = bif.complex_at(t)
    parent = {s[0]: s[0] for s in present if len(s) == 1}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in present:
        if len(s) == 2:
            parent[find(s[0])] = find(s[1])
    return len({find(v) for v in parent})


def euler_characteristic(bif, t):
    return sum((-1) ** (len(s) - 1) for s in bif.complex_at(t))


def test_facets():
    assert facets((3,)) == []
    assert facets((1, 4)) == [(4,), (1,)]
    assert set(facets((0, 1, 2))) == {(0, 1), (0, 2), (1, 2)}


def test_grades_must_be_monotone():
    bad = Bifiltration({(0,): (1, 1), (1,): (0, 0), (0, 1): (0, 0)}, 2, 2)
    problems = bad.validate()
    assert problems and "grade" in problems[0]
    good = Bifiltration.from_graded_simplices(TRIANGLE)
    assert good.validate() == []


def test_missing_face_is_reported():
    bad = Bifiltration({(0,): (0, 0), (0, 1): (1, 1)}, 2, 2)
    assert any("face" in msg for msg in bad.validate())


def test_duplicate_simplex_rejected():
    with pytest.raises(ValueError):
        Bifiltration.from_graded_simplices([((0, 0), (0,)), ((1, 1), (0,))])


@pytest.mark.parametrize("grade", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
def test_non_finite_grades_rejected(grade):
    with pytest.raises(ValueError, match="non-finite grade"):
        Bifiltration.from_graded_simplices([((0, 0), (0,)), (grade, (1,))])


@pytest.mark.parametrize("grade", [(10**400, 0), (0, -(10**400))])
def test_grades_past_the_float_range_rejected(grade):
    with pytest.raises(ValueError, match=r"simplex \(1,\) has a grade past the float range"):
        Bifiltration.from_graded_simplices([((0, 0), (0,)), (grade, (1,))])


def test_grade_normalization():
    items = [((0.5, 10.0), (0,)), ((2.5, 10.0), (1,)), ((2.5, 20.0), (0, 1))]
    bif = Bifiltration.from_graded_simplices(items)
    assert (bif.nx, bif.ny) == (2, 2)
    assert bif.grades[(0,)] == (0, 0)
    assert bif.grades[(0, 1)] == (1, 1)


def test_complex_at_corners():
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    assert bif.complex_at((0, 0)) == {(0,)}
    assert bif.complex_at((2, 2)) == set(bif.grades)
    assert bif.complex_at((1, 1)) == {(0,), (1,), (2,), (0, 1), (0, 2)}
    with pytest.raises(ValueError):
        bif.complex_at((3, 0))


def test_boundary_matrix_squares_to_zero():
    bif = Bifiltration.from_graded_simplices(TRIANGLE, p=5)
    d1 = bif.boundary_matrix(1)
    d2 = bif.boundary_matrix(2)
    assert d1.shape == (3, 3) and d2.shape == (3, 1)
    assert not matmul(d1, d2, 5).any()


def test_homology_module_h0_vs_union_find(random_bif):
    for seed in range(8):
        bif = random_bif(seed, nx=5, ny=5)
        assert bif.validate() == []
        h0 = homology_module(bif, 0)
        assert h0.validate() == []
        for t in iter_points(h0.nx, h0.ny):
            assert h0.dim_at(t) == h0_components(bif, t)


def test_homology_euler_characteristic(random_bif):
    for seed in range(8):
        bif = random_bif(100 + seed, nx=4, ny=4)
        mods = [homology_module(bif, q) for q in range(3)]
        for t in iter_points(mods[0].nx, mods[0].ny):
            chi = sum((-1) ** q * mods[q].dim_at(t) for q in range(3))
            assert chi == euler_characteristic(bif, t)


def test_homology_h1_of_circle():
    # the triangle fills in at (2,2): H1 is 1 at (2,1) and 0 at (2,2)
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    h1 = homology_module(bif, 1)
    assert h1.dim_at((2, 1)) == 1
    assert h1.dim_at((2, 2)) == 0
    assert h1.dim_at((1, 1)) == 0


def test_negative_degree_is_refused():
    # no homology lives in a negative degree; the routes refuse it
    # rather than report an all-zero module
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    with pytest.raises(ValueError, match="negative"):
        homology_basis(bif, bif.complex_at((2, 2)), -1)
    with pytest.raises(ValueError, match="negative"):
        presentation(bif, -1)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_homology_map_refuses_a_representative_outside_the_target_cycles(p):
    # in F_p^3 the target holds the representative e_0 and the boundary
    # e_1; a source cycle 2 e_0 + e_1 maps to 2, one at e_2 to nothing
    e = np.eye(3, dtype=np.int64)
    tgt = HomologyBasis(reps=e[:, :1], boundaries=e[:, 1:2], dim=1)
    inside = HomologyBasis(reps=(2 * e[:, :1] + e[:, 1:2]) % p, boundaries=np.zeros((3, 0), dtype=np.int64), dim=1)
    assert homology_map(inside, tgt, p).tolist() == [[2 % p]]
    outside = HomologyBasis(reps=e[:, 2:], boundaries=np.zeros((3, 0), dtype=np.int64), dim=1)
    with pytest.raises(InvariantError, match="not a cycle in the target"):
        homology_map(outside, tgt, p)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 65521, 2**31 - 1]),
    degree=st.integers(0, 3),
    n_vert=st.integers(1, 8),
    q=st.sampled_from([0.3, 0.6, 0.9]),
    grid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 10**6),
)
@hypothesis.example(p=2, degree=1, n_vert=1, q=0.9, grid=(2, 2), seed=0)  # no q-simplices
@hypothesis.example(p=3, degree=2, n_vert=7, q=0.9, grid=(3, 3), seed=4)  # no (q+1)-simplices
@hypothesis.example(p=65521, degree=3, n_vert=6, q=0.9, grid=(2, 3), seed=2)  # past the top dimension
@hypothesis.example(p=2**31 - 1, degree=0, n_vert=8, q=0.6, grid=(4, 4), seed=9)
def test_homology_basis_equals_the_dense_kernel_construction(p, degree, n_vert, q, grid, seed):
    # the cycles read off the reducer of [d_q; I] and the completion on the
    # boundary reducer give the dense kernel's canonical basis and the
    # same chosen representatives, at every point and on the empty complex
    bif = clique_bifiltration(seed, n_vert, q, *grid, p)
    points = [bif.complex_at((x, y)) for x in range(bif.nx) for y in range(bif.ny)]
    for present in points + [set()]:
        got = homology_basis(bif, present, degree)
        reps, boundaries, dim = reference_homology_basis(bif, present, degree)
        assert got.dim == dim
        for a, b in ((got.reps, reps), (got.boundaries, boundaries)):
            assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and np.array_equal(a, b)


def test_row_zigzag_stations_match_complexes():
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    zz = row_zigzag(bif, (2, 1))
    assert zz.validate() == []
    stations = zz.stations()
    expected = [
        bif.complex_at((0, 1)),
        bif.complex_at((1, 1)),
        bif.complex_at((2, 1)),
        bif.complex_at((2, 0)),
    ]
    assert stations == expected
    kinds = [kind for kind, _ in zz.steps]
    assert kinds == ["insert", "insert", "delete"]


def test_col_zigzag_stations_match_complexes():
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    zz = col_zigzag(bif, (1, 0))
    assert zz.validate() == []
    stations = zz.stations()
    expected = [
        bif.complex_at((1, 2)),
        bif.complex_at((1, 1)),
        bif.complex_at((1, 0)),
        bif.complex_at((2, 0)),
    ]
    assert stations == expected
    kinds = [kind for kind, _ in zz.steps]
    assert kinds == ["delete", "delete", "insert"]


def test_zigzag_random_station_reconstruction(random_bif):
    for seed in range(5):
        bif = random_bif(200 + seed, nx=5, ny=4)
        for t in [(4, 3), (2, 2), (0, 3), (4, 0)]:
            zz = row_zigzag(bif, t)
            assert zz.validate() == []
            assert len(zz.stations()) == t[0] + t[1] + 1
            assert zz.stations()[t[0]] == bif.complex_at(t)
        for s in [(0, 0), (2, 1), (4, 3)]:
            zz = col_zigzag(bif, s)
            assert zz.validate() == []
            assert len(zz.stations()) == (4 - s[1]) + (4 - s[0])


def test_zigzag_validate_catches_broken_closure():
    zz = ZigzagComplex([(0,), (1,), (0, 1)], [("delete", [(0,)])])
    assert any("face" in msg for msg in zz.validate())
    zz2 = ZigzagComplex([(0,)], [("insert", [(0,)])])
    assert any("already present" in msg for msg in zz2.validate())


def test_bif_roundtrip(random_bif):
    # reading normalizes grades to the minimal grid, so one round trip
    # is idempotent even when the generator leaves grid lines unused
    for seed in (3, 4):
        bif = random_bif(seed, nx=6, ny=6, p=5)
        back = read_bif(write_bif(bif))
        assert back.p == 5
        assert set(back.grades) == set(bif.grades)
        # per-axis order of grades is preserved by rank normalization
        for s in bif.grades:
            for u in bif.grades:
                for ax in (0, 1):
                    assert (bif.grades[s][ax] <= bif.grades[u][ax]) == (
                        back.grades[s][ax] <= back.grades[u][ax]
                    )
        text = write_bif(back)
        again = read_bif(text)
        assert again.grades == back.grades
        assert write_bif(again) == text


def test_bif_real_grades_normalize():
    text = "bifiltration\nfield 2\n0.25 3 ; 0\n1.75 3 ; 1\n1.75 4.5 ; 0 1\n"
    bif = read_bif(text)
    assert (bif.nx, bif.ny) == (2, 2)
    assert bif.grades[(0, 1)] == (1, 1)


def test_bif_rejects_malformed():
    with pytest.raises(FormatError):
        read_bif("field 2\n")
    with pytest.raises(FormatError):
        read_bif("bifiltration\nfield 4\n")  # composite modulus
    with pytest.raises(FormatError):
        read_bif("bifiltration\nfield 2\n1 1 0 1\n")  # missing semicolon
    with pytest.raises(FormatError):
        read_bif("bifiltration\nfield 2\n1 1 ; 2 1\n")  # not strictly increasing
    with pytest.raises(FormatError):
        read_bif("bifiltration\nfield 2\n1 1 ; 0\n1 1 ; 0\n")  # duplicate
