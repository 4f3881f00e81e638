import random
import sys

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, homology_module
from bipersist.constructions import EXAMPLE_NAMES, example, indecgrid, random_rectangle_module
from bipersist.grid_module import GridModule, GridTooLargeError, RankInvariant, rank_invariant_naive
from bipersist.ioutil import InvariantError
from bipersist.linalg import (
    image_basis,
    kernel_basis,
    subspace_intersect,
    subspace_sum,
)
from bipersist.weakexact import (
    check_bifiltration,
    check_module,
    check_rectangle_decomposable,
    kappa_iota,
    kappa_iota_from_zigzags,
)
from bipersist.zigzag import ZigzagBarcode, count_spanning, module_barcode
from conftest import clique_bifiltration, kappa_iota_naive


def rand_mat(rng, rows, cols, p):
    entries = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def test_image_intersection_is_a_spanning_count():
    # C --delta--> D <--gamma-- B: the intersection of the two images
    # has one dimension per bar covering all three stations
    rng = random.Random(30)
    for trial in range(60):
        p = rng.choice((2, 5))
        c, d, b = (rng.randint(0, 5) for _ in range(3))
        delta = rand_mat(rng, d, c, p)
        gamma = rand_mat(rng, d, b, p)
        want = subspace_intersect(image_basis(delta, p), image_basis(gamma, p)).dim
        bars = module_barcode([c, d, b], [("fwd", delta), ("bwd", gamma)], p)
        bc = ZigzagBarcode(3, bars)
        assert count_spanning(bc, 0, 2) == want


def test_kernel_sum_is_a_spanning_codeficit():
    # C <--delta-- S --gamma--> B: bars covering all three stations are
    # exactly the part of S that neither kernel touches
    rng = random.Random(31)
    for trial in range(60):
        p = rng.choice((2, 5))
        c, s, b = (rng.randint(0, 5) for _ in range(3))
        delta = rand_mat(rng, c, s, p)
        gamma = rand_mat(rng, b, s, p)
        want = subspace_sum(kernel_basis(delta, p), kernel_basis(gamma, p)).dim
        bars = module_barcode([c, s, b], [("bwd", delta), ("fwd", gamma)], p)
        bc = ZigzagBarcode(3, bars)
        assert s - count_spanning(bc, 0, 2) == want


@pytest.mark.parametrize("degree", (0, 1))
@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_zigzag_tables_match_subspace_oracle(clique_bif, p, degree):
    for seed in range(4):
        bif = clique_bif(seed, n_vert=7, q=0.6, nx=5, ny=5, p=p)
        ki = kappa_iota_from_zigzags(bif, degree)
        oracle = kappa_iota_naive(homology_module(bif, degree))
        assert np.array_equal(ki.iota, oracle.iota)
        assert np.array_equal(ki.kappa, oracle.kappa)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1]),
    n_vert=st.integers(1, 8),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
@hypothesis.example(p=2**31 - 1, degree=1, n_vert=8, grid=(5, 4), seed=3)
@hypothesis.example(p=3, degree=1, n_vert=5, grid=(5, 5), seed=0)
def test_kappa_iota_equals_subspace_oracle_on_drawn_cliques(p, degree, n_vert, grid, seed):
    # degree 1 and sparse vertex sets leave zero-dimensional points;
    # in the second example they also lie between nonzero ones along
    # a column, where the pushed flag bases restart from nothing
    bif = clique_bifiltration(seed, n_vert, 0.6, *grid, p)
    module = homology_module(bif, degree)
    ki, oracle = kappa_iota(module), kappa_iota_naive(module)
    assert np.array_equal(ki.iota, oracle.iota)
    assert np.array_equal(ki.kappa, oracle.kappa)


def explicit_modules(p):
    for name in EXAMPLE_NAMES:
        yield name, example(name, p)
    for n in (2, 3, 4):
        yield f"indecgrid({n})", indecgrid(n, p)
    for seed in range(6):
        yield f"rectangles-{seed}", random_rectangle_module(4, 3, 5, seed=seed, p=p)[0]


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_kappa_iota_matches_subspace_oracle_on_explicit_modules(p):
    for name, m in explicit_modules(p):
        ki, oracle = kappa_iota(m), kappa_iota_naive(m)
        assert np.array_equal(ki.iota, oracle.iota), name
        assert np.array_equal(ki.kappa, oracle.kappa), name


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
def test_kappa_iota_verdicts_match_the_algebraic_checker(p):
    for name in EXAMPLE_NAMES:
        m = example(name, p)
        table = check_rectangle_decomposable(rank_invariant_naive(m), kappa_iota(m))
        algebraic = check_module(m, "algebraic")
        assert table[0] == algebraic[0], name
        if not table[0]:
            assert table[1][:2] == algebraic[1][:2], name


def test_checker_refuses_tables_that_break_the_bounds():
    # r(s, t) <= iota(s, t) and kappa(s, t) <= r(s, s) - r(s, t) hold
    # for every module; fabricated tables past them are a fault, not a
    # verdict, even where the true tables already fail at an earlier pair
    m = example("ex3-right")
    r = rank_invariant_naive(m)
    s_t = (1, 1, 2, 1)  # r(s, t) = 1, r(s, s) = 2
    corank = r.table[1, 1, 1, 1] - r.table[s_t]
    for field, value in (("iota", r.table[s_t] - 1), ("kappa", corank + 1)):
        ki = kappa_iota_naive(m)
        getattr(ki, field)[s_t] = value
        with pytest.raises(InvariantError, match=r"\[1, 1, 2, 1\]"):
            check_rectangle_decomposable(r, ki)


def test_zigzag_tables_take_no_jobs(random_bif):
    bif = random_bif(43, max_simplices=18, nx=4, ny=3)
    for jobs in (0, 1, 4):
        with pytest.raises(ValueError):
            kappa_iota_from_zigzags(bif, 0, jobs)


@settings(max_examples=20, deadline=None)
@given(
    p=st.sampled_from([2, 3, 2**31 - 1]),
    degree=st.sampled_from([0, 1]),
    n_vert=st.integers(1, 8),
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
)
def test_check_path_solves_no_homology(p, degree, n_vert, grid, seed):
    # the .bif check reads kappa/iota off the presentation: with every
    # homology solver in the package made to raise, it still gives the
    # verdict and tables of the homology module
    bif = clique_bifiltration(seed, n_vert, 0.6, *grid, p)
    oracle = homology_module(bif, degree)
    want, want_ki = check_module(oracle, "algebraic"), kappa_iota(oracle)

    def refuse(*args, **kwargs):
        raise AssertionError("homology solved on the check path")

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name == "bipersist" or name.startswith("bipersist."):
                for solver in ("homology_module", "homology_basis", "homology_map"):
                    if hasattr(module, solver):
                        mp.setattr(module, solver, refuse)
        got, ki = check_bifiltration(bif, degree), kappa_iota_from_zigzags(bif, degree)
    assert got[0] == want[0] and (got[0] or got[1][:2] == want[1][:2])
    assert np.array_equal(ki.kappa, want_ki.kappa) and np.array_equal(ki.iota, want_ki.iota)


def test_dense_tables_refuse_grids_past_the_cap():
    wide = Bifiltration({(0,): (60, 0)}, 61, 1)
    for build in (
        lambda: RankInvariant(61, 1),
        lambda: kappa_iota(GridModule.zero(61, 1, 2)),
        lambda: kappa_iota_from_zigzags(wide, 0),
        lambda: check_bifiltration(wide, 0),
    ):
        with pytest.raises(GridTooLargeError, match="grid 61x1 exceeds"):
            build()


def test_checker_accepts_rectangle_sums():
    for seed in range(8):
        m, _ = random_rectangle_module(4, 4, 5, seed=seed, p=2)
        verdict = check_rectangle_decomposable(
            rank_invariant_naive(m), kappa_iota_naive(m)
        )
        assert verdict == (True, None)


def test_checker_rejects_with_outermost_witness():
    m = example("ex3-right")
    ok, witness = check_rectangle_decomposable(
        rank_invariant_naive(m), kappa_iota_naive(m)
    )
    assert not ok
    s, t, reason = witness
    assert (s, t) == ((0, 0), (2, 1))
    assert "rank" in reason or "corank" in reason


def test_checker_rejects_mismatched_grids():
    a, _ = random_rectangle_module(3, 3, 2, seed=0, p=2)
    b, _ = random_rectangle_module(4, 3, 2, seed=0, p=2)
    with pytest.raises(ValueError):
        check_rectangle_decomposable(rank_invariant_naive(a), kappa_iota_naive(b))


def test_check_module_methods_agree_on_catalogue():
    for name in EXAMPLE_NAMES:
        m = example(name)
        algebraic = check_module(m, "algebraic")
        geometric = check_module(m, "geometric")
        assert algebraic[0] == geometric[0]
        if not algebraic[0]:
            assert algebraic[1][:2] == geometric[1][:2]
    with pytest.raises(ValueError):
        check_module(example("ex2"), "telepathic")


def test_check_module_strong_is_strictly_finer():
    assert check_module(example("ex4-left"), "strong") == (True, None)
    assert check_module(example("ex4-left"), "algebraic") == (True, None)
    assert check_module(example("ex4-right"), "algebraic") == (True, None)
    assert check_module(example("ex4-right"), "geometric") == (True, None)
    ok, witness = check_module(example("ex4-right"), "strong")
    assert not ok and witness is not None


def test_check_bifiltration_agrees_with_module_checkers(random_bif):
    for seed in (50, 51, 52):
        for degree in (0, 1):
            bif = random_bif(seed, max_simplices=20, nx=4, ny=3)
            end_to_end = check_bifiltration(bif, degree)
            direct = check_module(homology_module(bif, degree), "algebraic")
            assert end_to_end[0] == direct[0]
            if not end_to_end[0]:
                assert end_to_end[1][:2] == direct[1][:2]
