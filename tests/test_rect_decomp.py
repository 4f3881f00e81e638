import re
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import homology_module
from bipersist.constructions import example, indecgrid, random_rectangle_module
from bipersist.grid_module import (
    INT32_MAX,
    RankInvariant,
    iter_points,
    pair_count,
    rank_invariant_naive,
)
from bipersist import ioutil
from bipersist.ioutil import TooLargeError
from bipersist.rect_decomp import _RECTANGLE_BYTES, RectangleBarcode, decompose
from bipersist.squares import is_weakly_exact_algebraic
from conftest import random_bifiltration
from paperlib import (
    barcode_dim_at,
    comparable_pairs,
    direct_sum,
    int_rows,
    interval_multiplicities,
    rectangle_module,
    rectangle_rank_invariant,
)


def sixteen_term(r, s, t) -> int:
    """The paper's inclusion-exclusion for one pair s <= t, term by term."""
    (sx, sy), (tx, ty) = s, t
    total = 0
    for ax, ay in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for bx, by in ((0, 0), (1, 0), (0, 1), (1, 1)):
            sign = -1 if (ax + ay + bx + by) % 2 else 1
            total += sign * r.get((sx - ax, sy - ay), (tx + bx, ty + by))
    return total


def oracle_decompose(r):
    """`decompose` evaluated pair by pair through the sixteen-term form."""
    counts, clean = {}, True
    for s, t in comparable_pairs(r.nx, r.ny):
        m = sixteen_term(r, s, t)
        clean &= m >= 0
        if m > 0:
            counts[(*s, *t)] = m
    return RectangleBarcode(counts), clean


def test_multiplicity_reads_off_one_summand():
    m = rectangle_module(3, 3, (0, 1, 2, 2), 5)
    r = rank_invariant_naive(m)
    assert decompose(r) == ({(0, 1, 2, 2): 1}, True)
    assert sixteen_term(r, (0, 1), (2, 2)) == 1
    assert sixteen_term(r, (0, 1), (2, 1)) == 0
    assert sixteen_term(r, (0, 0), (2, 2)) == 0


@st.composite
def barcodes(draw):
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 6))
    rects = {}
    for _ in range(draw(st.integers(0, 8))):
        sx, tx = sorted(draw(st.integers(0, nx - 1)) for _ in range(2))
        sy, ty = sorted(draw(st.integers(0, ny - 1)) for _ in range(2))
        rects[(sx, sy, tx, ty)] = draw(st.integers(1, 3))
    return nx, ny, RectangleBarcode(rects)


@settings(max_examples=60, deadline=None)
@given(barcodes())
def test_decompose_inverts_barcode_rank_invariant(case):
    nx, ny, bc = case
    assert decompose(rectangle_rank_invariant(bc, nx, ny)) == (bc, True)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 1))
def test_decompose_matches_oracle_on_random_modules(seed, degree):
    bif = random_bifiltration(seed, max_simplices=25, nx=4, ny=4)
    r = rank_invariant_naive(homology_module(bif, degree))
    assert decompose(r) == oracle_decompose(r)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_matches_oracle_on_indecgrid(n):
    r = rank_invariant_naive(indecgrid(n))
    barcode, clean = decompose(r)
    assert not clean  # the staircase is no sum of rectangles
    assert (barcode, clean) == oracle_decompose(r)


@st.composite
def drawn_tables(draw, large=st.integers(0, 2**58)):
    """Arbitrary entries on the comparable pairs, which mostly give negative
    multiplicities, on grids that include 1 x n and n x 1."""
    nx, ny = draw(st.sampled_from([(1, 1), (1, 5), (5, 1), (1, 2), (3, 1)]) | st.tuples(st.integers(1, 5), st.integers(1, 5)))
    size = pair_count(nx, ny)
    return RankInvariant(nx, ny, np.array(draw(st.lists(st.integers(0, 6) | large, min_size=size, max_size=size))))


def _one_by_three(values):
    return RankInvariant(1, 3, np.array(values, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(drawn_tables(st.sampled_from([INT32_MAX - 1, INT32_MAX]) | st.integers(0, INT32_MAX)))
@hypothesis.example(_one_by_three([0, 0, INT32_MAX, INT32_MAX, 0, 0]))  # m((0,1), (0,1)) = 2 (2**31 - 1)
def test_decompose_of_an_int32_table_is_that_of_its_int64_copy(r):
    # the sixteen-term sums of int32 ranks pass int32; the differences
    # are taken in a type that holds eight times the largest rank
    narrow = RankInvariant(r.nx, r.ny, r.values.astype(np.int32))
    assert decompose(narrow) == decompose(r) == oracle_decompose(r)


INT16_MAX = 2**15 - 1


@settings(max_examples=150, deadline=None)
@given(drawn_tables(st.sampled_from([INT16_MAX - 1, INT16_MAX]) | st.integers(INT16_MAX - 20, INT16_MAX)))
@hypothesis.example(_one_by_three([0, 0, INT16_MAX, INT16_MAX, 0, 0]))  # m((0,1), (0,1)) = 2 (2**15 - 1)
@hypothesis.example(_one_by_three([INT16_MAX, 0, INT16_MAX, INT16_MAX, 0, INT16_MAX]))
def test_decompose_of_an_int16_table_is_that_of_its_int64_copy(r):
    # the sixteen-term sums of int16 ranks near 2**15 - 1 pass int16;
    # the differences are taken in a type that holds eight times the
    # largest rank
    narrow = RankInvariant(r.nx, r.ny, r.values.astype(np.int16))
    assert decompose(narrow) == decompose(r) == oracle_decompose(r)


def _two_corner_ranks(value):
    """A 2 x 2 invariant whose only nonzero ranks are r((0,1),(1,1)) =
    r((1,0),(1,1)) = value: the sixteen-term sum at ((0,0),(1,1)) is
    -2 value."""
    r = RankInvariant(2, 2)
    for s in ((0, 1), (1, 0)):
        r.block(s)[1 - s[0], 1 - s[1]] = value
    return r


def test_decompose_is_exact_up_to_ranks_of_2_60_minus_1_and_refuses_the_rest():
    r = _two_corner_ranks(2**60 - 1)
    barcode, clean = decompose(r)
    assert (barcode, clean) == oracle_decompose(r)
    assert not clean and barcode == {(0, 1, 1, 1): 2**60 - 1, (1, 0, 1, 1): 2**60 - 1}
    for value in (2**60, 2**63 - 1):
        with pytest.raises(ValueError, match=f"rank {value} exceeds 2\\*\\*60 - 1"):
            decompose(_two_corner_ranks(value))
    # the bound 8R holds for ranks, which are never negative
    with pytest.raises(ValueError, match="negative entry"):
        decompose(_two_corner_ranks(-1))


def test_decompose_is_exact_either_side_of_each_slab_type_bound():
    # 8 * 4095 fits in int16, so the 500-generator fixture's slabs are
    # int16; the sums stay exact at the bound's edge either side
    for value in (4095, 4096, 2**28 - 1, 2**28):
        r = _two_corner_ranks(value)
        assert decompose(r) == oracle_decompose(r)


@settings(max_examples=150, deadline=None)
@given(drawn_tables())
def test_decompose_is_the_sixteen_term_sum_and_leaves_the_table(r):
    before = r.values.copy()
    assert decompose(r) == oracle_decompose(r)
    assert np.array_equal(r.values, before)


def test_decompose_peak_memory_is_a_few_slabs_and_the_mask():
    r = rectangle_rank_invariant(RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1, (10, 0, 12, 39): 4}), 40, 40)
    tracemalloc.start()
    try:
        barcode, clean = decompose(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clean and len(barcode) == 3
    # beside r only one int64 s_x slab [s_y, t_x, t_y], its shifted
    # copies and flags; no comparable mask
    assert peak <= 3 * 40 * 40 * 40 * 8


def _slab_bytes(r, monkeypatch):
    """The bytes of one slab `decompose(r)` states, read off its refusal
    at a cap below any input."""
    with monkeypatch.context() as mp:
        mp.setattr(ioutil, "BYTES_CAP", -1)
        with pytest.raises(TooLargeError) as refused:
            decompose(r)
    return int(re.search(r"one slab of the \d+x\d+ grid would need ([0-9,]+) bytes", str(refused.value))[1].replace(",", ""))


def test_decompose_refuses_a_barcode_past_the_cap_before_adding_its_slab(monkeypatch):
    # two rectangles in the slab s_x = 0, a third in s_x = 2: the barcode
    # is counted at each slab, with the rectangles of the slabs before
    truth = RectangleBarcode({(0, 0, 2, 1): 1, (0, 1, 1, 1): 2, (2, 0, 2, 0): 1})
    r = rectangle_rank_invariant(truth, 3, 2)
    slab = _slab_bytes(r, monkeypatch)
    for rectangles in (2, 3):
        need = slab + rectangles * _RECTANGLE_BYTES
        monkeypatch.setattr(ioutil, "BYTES_CAP", need - 1)
        with pytest.raises(TooLargeError, match=(
            f"^the differences of one slab of the 3x2 grid and {rectangles} rectangle\\(s\\) would need {need:,} bytes, "
            f"past the {need - 1:,}-byte cap$"
        )):
            decompose(r)
    monkeypatch.setattr(ioutil, "BYTES_CAP", slab + 3 * _RECTANGLE_BYTES)
    assert decompose(r) == (truth, True)


@pytest.mark.parametrize("nx, ny, high", [(1, 300, 2**40), (1, 200, 3), (12, 12, 2**40)])
def test_decompose_states_at_least_the_bytes_of_its_barcode(monkeypatch, nx, ny, high):
    # random ranks: nearly every pair carries a rectangle, so the barcode,
    # a dict of tuples, outgrows the slabs; with ranks past 256 and
    # coordinates past 256 its ints are not Python's cached ones
    rng = np.random.default_rng(7)
    r = RankInvariant(nx, ny, rng.integers(0, high, pair_count(nx, ny), dtype=np.int64))
    tracemalloc.start()
    try:
        barcode, _ = decompose(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(barcode) > pair_count(nx, ny) // 8
    assert peak <= _slab_bytes(r, monkeypatch) + len(barcode) * _RECTANGLE_BYTES


def test_a_comment_only_rank_file_decomposes_to_an_empty_barcode():
    r = RankInvariant.from_text("# rank invariant on grid 0 x 0\n\n  # nothing\n")
    assert (r.nx, r.ny) == (0, 0)
    barcode, clean = decompose(r)
    assert clean and barcode == RectangleBarcode() and barcode.to_text().count("\n") == 1


def test_barcode_rank_invariant_clips_to_the_grid():
    inside = RectangleBarcode({(1, 0, 2, 2): 2})
    beyond = RectangleBarcode({(1, 0, 7, 5): 2, (3, 0, 4, 4): 1})
    assert rectangle_rank_invariant(beyond, 3, 3) == rectangle_rank_invariant(inside, 3, 3)


def test_decompose_recovers_generated_multiset():
    for seed in range(30):
        for p in (2, 101):
            m, truth = random_rectangle_module(5, 4, 6, seed=seed, p=p)
            barcode, clean = decompose(rank_invariant_naive(m))
            assert clean
            assert dict(barcode) == truth
            assert sum(barcode.values()) == sum(truth.values())


def test_decompose_barcode_reconstructs_rank_invariant():
    m, _ = random_rectangle_module(4, 4, 5, seed=77, p=3)
    r = rank_invariant_naive(m)
    barcode, clean = decompose(r)
    assert clean
    assert rectangle_rank_invariant(barcode, 4, 4) == r
    assert all(barcode_dim_at(barcode, t) == m.dim_at(t) for t in iter_points(m.nx, m.ny))


def test_decompose_flags_negative_multiplicity():
    # the staircase is indecomposable, so some rectangle count must go
    # negative; the positive part still reconciles nothing
    r = rank_invariant_naive(indecgrid(2))
    barcode, clean = decompose(r)
    assert not clean
    assert rectangle_rank_invariant(barcode, 3, 3) != r


def test_decompose_clean_is_not_a_certificate():
    # the staircase's only negative count is -1 at the point (2, 2), so
    # adding one point summand there makes the sieve clean even though
    # the sum still contains an indecomposable non-rectangle
    m = direct_sum(indecgrid(2), rectangle_module(3, 3, (2, 2, 2, 2), 2))
    r = rank_invariant_naive(m)
    barcode, clean = decompose(r)
    assert clean
    assert rectangle_rank_invariant(barcode, 3, 3) == r
    assert is_weakly_exact_algebraic(m) != (True, None)


def test_barcode_dim_at_and_total():
    bc = RectangleBarcode({(0, 0, 1, 1): 2, (1, 1, 1, 1): 1})
    assert sum(bc.values()) == 3
    assert barcode_dim_at(bc, (0, 0)) == 2
    assert barcode_dim_at(bc, (1, 1)) == 3
    assert barcode_dim_at(bc, (2, 0)) == 0


def test_barcode_constructor_validates():
    with pytest.raises(ValueError):
        RectangleBarcode({(1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        RectangleBarcode({(0, 0, 1, 1): -1})
    assert RectangleBarcode({(0, 0, 1, 1): 0}) == {}


def test_barcode_text_roundtrip():
    # the .barcode lines are the 1-based rectangles in sorted order,
    # read back by the field rule of every format
    bc = RectangleBarcode({(0, 1, 2, 1): 2, (0, 0, 0, 0): 1})
    text = bc.to_text()
    assert text.splitlines()[1] == "1 1 1 1 1"
    assert text.splitlines()[2] == "1 2 3 2 2"
    rows, lines, error = int_rows(text, "s_x s_y t_x t_y multiplicity")
    assert error is None and lines.tolist() == [2, 3]
    assert RectangleBarcode({tuple(v - 1 for v in r[:4]): r[4] for r in rows.tolist()}) == bc


# one-parameter modules: the rectangles of an n x 1 grid are its intervals


def test_one_row_decompose_on_two_bars():
    m = example("ex1")
    assert interval_multiplicities(m) == {(0, 2): 1, (0, 1): 1}


def test_one_row_decompose_interval_modules():
    # single interval [1, 2] on a 4-point line
    mod = rectangle_module(4, 1, (1, 0, 2, 0), 3)
    assert interval_multiplicities(mod) == {(1, 2): 1}
    both = direct_sum(mod, rectangle_module(4, 1, (1, 0, 2, 0), 3))
    assert interval_multiplicities(both) == {(1, 2): 2}


def test_one_row_decompose_random_interval_sums():
    for seed in range(10):
        mod, truth = random_rectangle_module(6, 1, 4, seed=seed, p=2)
        expected = {}
        for (sx, _, tx, _), mult in truth.items():
            expected[(sx, tx)] = expected.get((sx, tx), 0) + mult
        assert interval_multiplicities(mod) == expected
