import random

import numpy as np
import pytest

from bipersist.constructions import EXAMPLE_NAMES, example, indecgrid, random_rectangle_module
from bipersist.grid_module import iter_points, rank_invariant_naive
from bipersist.squares import decompose_square
from bipersist.weakexact import check_module
from paperlib import (
    FinitePoset,
    GridEmbedding,
    dart,
    dart_embedding,
    direct_sum,
    hom_dim,
    hom_dim_poset,
    indicator_module,
    indicator_poset_module,
    invariants_of_square,
    iso_test,
    pad,
    ran_extension,
    rectangle_module,
    rectangle_sum,
    restrict,
    zero_module,
)


def test_finite_poset_closure_and_cycles():
    poset = FinitePoset([1, 2, 3], [(1, 2), (2, 3)])
    assert poset.leq(1, 3) and not poset.leq(3, 1)
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 3)])


def test_poset_restrict_recovers_covers():
    poset = FinitePoset([1, 2, 3, 4], [(1, 2), (2, 4), (1, 3), (3, 4)])
    sub = poset.restrict([1, 4])
    assert sub.covers == [(1, 4)]
    assert sub.leq(1, 4)


def test_dart_validates_and_rejects_small_n():
    for n in (2, 3):
        assert dart(n).validate() == []
    with pytest.raises(ValueError):
        dart(1)


def test_dart_end_dim_is_one():
    for n in (2, 3):
        d = dart(n, 101)
        assert hom_dim_poset(d, d) == 1


def test_dart_restriction_splits_into_indicators():
    # dropping any antidiagonal element frees the diagonal to be rotated
    # onto a coordinate axis, splitting off one indicator per survivor
    for n in (2, 3):
        d = dart(n, 101)
        for i in range(1, n + 2):
            r = d.restrict([e for e in range(1, n + 3) if e != i])
            assert r.validate() == []
            assert hom_dim_poset(r, r) == n


def test_dart_embedding_is_fully_faithful():
    emb = dart_embedding(2)
    assert emb.mapping == {1: (0, 2), 2: (1, 1), 3: (2, 0), 4: (2, 2)}
    poset = dart(2).poset
    with pytest.raises(ValueError):
        GridEmbedding(poset, {1: (0, 2), 2: (1, 1), 3: (2, 0), 4: (2, 1)})
    with pytest.raises(ValueError):
        GridEmbedding(poset, {1: (0, 0), 2: (1, 1), 3: (2, 2), 4: (2, 2)})


def test_staircase_shape():
    m = indecgrid(2)
    assert m.validate() == []
    assert m.dims.tolist() == [[0, 0, 1], [0, 1, 2], [1, 2, 2]]
    with pytest.raises(ValueError):
        indecgrid(1)


def test_staircase_end_dim_one_and_not_rectangular():
    for n in (2, 3):
        m = indecgrid(n, 101)
        assert hom_dim(m, m) == 1
        assert check_module(m, "algebraic")[0] is False


def test_ran_extension_of_dart_is_the_staircase():
    for n in (2, 3):
        ran = ran_extension(dart(n, 101), dart_embedding(n), n + 1, n + 1)
        assert ran.validate() == []
        stair = indecgrid(n, 101)
        assert ran.dims.tolist() == stair.dims.tolist()
        assert iso_test(ran, stair) == ("confirmed", None)


def _ran_interval_sum(n, xs, ys, skip, p):
    """Sum of the full-grid floor modules of {j, top}, minus one, restricted."""
    poset = dart(n, p).poset
    emb = dart_embedding(n)
    total = zero_module(len(xs), len(ys), p)
    for j in range(1, n + 2):
        if j == skip:
            continue
        summand = restrict(
            ran_extension(indicator_poset_module(poset, {j, n + 2}, p), emb, n + 1, n + 1), xs, ys
        )
        assert int(summand.dims.max()) <= 1  # each summand is an interval
        total = direct_sum(total, summand)
    return total


def test_subgrid_restrictions_decompose_into_intervals():
    # deleting a column (row) kills exactly one antidiagonal element; the
    # rest of the staircase splits into that many interval summands
    for n in (2, 3):
        full = indecgrid(n, 101)
        everything = list(range(n + 1))
        for removed in range(n + 1):
            keep = [v for v in everything if v != removed]
            col = restrict(full, keep, everything)
            col_sum = _ran_interval_sum(n, keep, everything, removed + 1, 101)
            assert iso_test(col, col_sum) == ("confirmed", None)
            row = restrict(full, everything, keep)
            row_sum = _ran_interval_sum(n, everything, keep, n + 1 - removed, 101)
            assert iso_test(row, row_sum) == ("confirmed", None)


def test_ran_extension_respects_an_indicator():
    # the floor module of {1, top} on the full grid: k exactly where no
    # other element's image dominates the point
    p = 5
    m = ran_extension(
        indicator_poset_module(dart(2, p).poset, {1, 4}, p), dart_embedding(2), 3, 3
    )
    assert m.validate() == []
    support = {t for t in iter_points(m.nx, m.ny) if m.dim_at(t) == 1}
    assert support == {(0, 2), (1, 2), (2, 2), (2, 1)}
    assert int(m.dims.max()) == 1


def test_pad_and_bounds():
    m = pad(example("ex2"), 4, 3)
    assert (m.nx, m.ny) == (4, 3)
    assert m.validate() == []
    assert m.dim_at((1, 1)) == 2 and m.dim_at((3, 2)) == 0
    with pytest.raises(ValueError):
        pad(example("ex2"), 1, 3)


def test_iso_test_confirms_reordered_sums():
    a = rectangle_module(3, 3, (0, 0, 1, 1), 101)
    b = rectangle_module(3, 3, (1, 1, 2, 2), 101)
    assert iso_test(direct_sum(a, b), direct_sum(b, a)) == ("confirmed", None)
    zero = zero_module(2, 2, 101)
    assert iso_test(zero, zero) == ("confirmed", None)


def test_iso_test_undetermined_outcomes():
    a = rectangle_module(2, 2, (0, 0, 1, 1), 101)
    b = rectangle_module(2, 2, (0, 0, 1, 0), 101)
    verdict, reason = iso_test(a, b)
    assert verdict == "undetermined" and "dimensions differ" in reason
    verdict, reason = iso_test(a, rectangle_module(3, 2, (0, 0, 1, 1), 101))
    assert verdict == "undetermined" and "grids or fields" in reason
    # same dimensions everywhere but different internal ranks
    ab_cd = direct_sum(
        indicator_module(2, 2, {(0, 0), (1, 0)}, 101), indicator_module(2, 2, {(0, 1), (1, 1)}, 101)
    )
    abcd = rectangle_module(2, 2, (0, 0, 1, 1), 101)
    verdict, _ = iso_test(ab_cd, abcd)
    assert verdict == "undetermined"


def test_random_rectangle_module_matches_its_truth():
    for seed in range(6):
        m, truth = random_rectangle_module(4, 3, 5, seed=seed, p=7)
        assert m.validate() == []
        for t in iter_points(m.nx, m.ny):
            expect = sum(
                mult
                for (sx, sy, tx, ty), mult in truth.items()
                if sx <= t[0] <= tx and sy <= t[1] <= ty
            )
            assert m.dim_at(t) == expect


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@pytest.mark.parametrize(
    "nx, ny, count, seed", [(1, 1, 4, 0), (1, 9, 6, 1), (9, 1, 6, 2), (7, 5, 12, 3), (60, 60, 6, 4)]
)
def test_random_rectangle_module_is_the_direct_sum_in_draw_order(nx, ny, count, seed, p):
    # the one-pass builder equals the block-diagonal sum of the drawn
    # rectangles' indicators, taken in draw order, entry for entry
    m, truth = random_rectangle_module(nx, ny, count, seed, p)
    rng = random.Random(seed)
    rects = []
    for _ in range(rng.randint(1, count)):
        sx = rng.randrange(nx)
        tx = rng.randrange(sx, nx)
        sy = rng.randrange(ny)
        ty = rng.randrange(sy, ny)
        rects.append((sx, sy, tx, ty))
    assert truth == {rect: rects.count(rect) for rect in rects}
    want = rectangle_sum(nx, ny, rects, p)
    assert (m.nx, m.ny, m.p) == (want.nx, want.ny, want.p)
    assert np.array_equal(m.dims, want.dims)
    for maps, want_maps in ((m.hmaps, want.hmaps), (m.vmaps, want.vmaps)):
        assert maps.keys() == want_maps.keys()
        for key, mat in maps.items():
            assert mat.dtype == want_maps[key].dtype and np.array_equal(mat, want_maps[key]), key


def test_example_catalogue_validates():
    for name in EXAMPLE_NAMES:
        m = example(name, p=3)
        assert m.validate() == [], name
        assert m.p == 3
    with pytest.raises(ValueError):
        example("ex99")


def test_hooks_example_square_audit():
    m = example("hooks-vertical")
    hooks = {}
    for sx in range(m.nx):
        for sy in range(m.ny):
            for tx in range(sx + 1, m.nx):
                for ty in range(sy + 1, m.ny):
                    bc = decompose_square(invariants_of_square(m, (sx, sy), (tx, ty)))
                    assert bc["abc"] == 0  # only top hooks may appear
                    if bc.hooks:
                        hooks[((sx, sy), (tx, ty))] = bc.hooks
    assert hooks == {((0, 0), (1, 2)): 1}


def test_hooks_example_dual_square_audit():
    m = example("hooks-vertical-dual")
    total = 0
    for sx in range(m.nx):
        for sy in range(m.ny):
            for tx in range(sx + 1, m.nx):
                for ty in range(sy + 1, m.ny):
                    bc = decompose_square(invariants_of_square(m, (sx, sy), (tx, ty)))
                    assert bc["bcd"] == 0  # dualizing swaps the hook types
                    total += bc.hooks
    assert total == 1


def test_ex3_sides_share_rank_invariant_but_not_structure():
    left = example("ex3-left", 101)
    right = example("ex3-right", 101)
    assert rank_invariant_naive(left) == rank_invariant_naive(right)
    assert hom_dim(right, right) == 1
    assert hom_dim(left, left) == 2
