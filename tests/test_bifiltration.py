import numpy as np
import pytest

from bipersist.bifiltration import (
    Bifiltration,
    FormatError,
    ZigzagComplex,
    col_zigzag,
    facets,
    homology_module,
    read_bif,
    row_zigzag,
    write_bif,
)
from bipersist.linalg import matmul

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
        for t in h0.points():
            assert h0.dim_at(t) == h0_components(bif, t)


def test_homology_euler_characteristic(random_bif):
    for seed in range(8):
        bif = random_bif(100 + seed, nx=4, ny=4)
        mods = [homology_module(bif, q) for q in range(3)]
        for t in mods[0].points():
            chi = sum((-1) ** q * mods[q].dim_at(t) for q in range(3))
            assert chi == euler_characteristic(bif, t)


def test_homology_h1_of_circle():
    # the triangle fills in at (2,2): H1 is 1 at (2,1) and 0 at (2,2)
    bif = Bifiltration.from_graded_simplices(TRIANGLE)
    h1 = homology_module(bif, 1)
    assert h1.dim_at((2, 1)) == 1
    assert h1.dim_at((2, 2)) == 0
    assert h1.dim_at((1, 1)) == 0


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
            assert zz.station_count() == t[0] + t[1] + 1
            assert zz.stations()[t[0]] == bif.complex_at(t)
        for s in [(0, 0), (2, 1), (4, 3)]:
            zz = col_zigzag(bif, s)
            assert zz.validate() == []
            assert zz.station_count() == (4 - s[1]) + (4 - s[0])


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
