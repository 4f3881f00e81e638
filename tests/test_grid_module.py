import random
import re
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist import grid_module, ioutil, rank_reader
from bipersist.bifiltration import homology_module
from bipersist.constructions import example, indecgrid, random_rectangle_module
from bipersist.gmod import read_gmod, write_gmod
from bipersist.grid_module import (
    INT32_MAX,
    RANK_EXTENT_MAX,
    GridModule,
    PairTable,
    RankInvariant,
    iter_points,
    pair_count,
    pair_index,
    rank_invariant_naive,
    slab_targets,
    table_bytes,
)
from bipersist.ioutil import FormatError, TooLargeError
from bipersist.rank_dp import rank_from_resolution
from bipersist.resolution import presentation
from bipersist.linalg import MAX_MODULUS, matmul, rank
from bipersist.squares import (
    SQUARE_LABELS,
    InconsistentSquareError,
    SquareBarcode,
    SquareInvariants,
    decompose_square,
    is_weakly_exact_algebraic,
    is_weakly_exact_geometric,
)
from conftest import INT64, clique_bifiltration, kappa_iota_naive, random_bifiltration, reference_rank_from_text
from bipersist.weakexact import KappaIota, check_rectangle_decomposable, kappa_iota
from paperlib import (
    comparable_mask,
    comparable_pairs,
    composite,
    direct_sum,
    hom_dim,
    indicator_module,
    invariants_of_square,
    is_strongly_exact,
    rectangle_module,
    restrict,
    set_pair,
    square_invariant_matrix,
    square_vector,
    zero_module,
)

# corners of the unit square: a=(0,0), b=(1,0), c=(0,1), d=(1,1)
CORNERS = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}


def interval_module(letters, p=2):
    pts = {CORNERS[ch] for ch in letters}
    return indicator_module(2, 2, pts, p)


def square_barcode(module, s, t):
    return decompose_square(invariants_of_square(module, s, t))


@settings(max_examples=40, deadline=None)
@given(
    grid=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    count=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    tiers=st.sampled_from([(grid_module.INT16_MAX, grid_module.INT32_MAX), (1, 3), (0, 1)]),
)
def test_the_table_rule_states_the_bytes_the_producers_allocate(grid, count, seed, tiers):
    # each producer refuses its tables by the bytes `table_bytes` states
    # at the entry type its bound picks, which are the bytes it
    # allocates; with the DP's work arrays, n_x^2 (n_y e + 24) bytes at
    # an entry of e bytes, it runs with the cap at them and is refused
    # one byte short.  With the int16 and int32 tiers moved down to
    # bounds 1 and 3, or 0 and 1, small modules reach every tier
    module = random_rectangle_module(*grid, count, seed)[0]
    bif = random_bifiltration(seed, nx=grid[0], ny=grid[1])
    pres = presentation(bif, seed % 2)
    dim = int(module.dims.max())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "INT16_MAX", tiers[0])
        mp.setattr(grid_module, "INT32_MAX", tiers[1])
        dp = table_bytes(bif.nx, bif.ny, 1, len(pres.gens))
        for stated, work, build, tables in (
            (table_bytes(*grid, 1, dim), 0, lambda: rank_invariant_naive(module), lambda inv: [inv]),
            (table_bytes(*grid, 2, dim), 0, lambda: kappa_iota(module), lambda ki: [ki.kappa, ki.iota]),
            (dp, bif.nx**2 * (bif.ny * dp // pair_count(bif.nx, bif.ny) + 24), lambda: rank_from_resolution(pres), lambda inv: [inv]),
        ):
            need = stated + work
            mp.setattr(ioutil, "BYTES_CAP", need)
            assert sum(table.values.nbytes for table in tables(build())) == stated
            mp.setattr(ioutil, "BYTES_CAP", need - 1)
            with pytest.raises(TooLargeError, match=f"would need {need:,} bytes"):
                build()


def test_comparable_pairs_lex_order():
    pairs = list(comparable_pairs(2, 2))
    assert pairs == [
        ((0, 0), (0, 0)),
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
        ((0, 0), (1, 1)),
        ((0, 1), (0, 1)),
        ((0, 1), (1, 1)),
        ((1, 0), (1, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 1)),
    ]
    pairs43 = list(comparable_pairs(4, 3))
    assert len(set(pairs43)) == len(pairs43) == 60
    assert all(s[0] <= t[0] and s[1] <= t[1] for s, t in pairs43)


@st.composite
def pair_tables(draw):
    """A rank invariant on a grid 1 x n, n x 1 or up to 7 x 7, with
    entries up to 2**31, so int64 when one passes 2**31 - 1."""
    nx, ny = draw(st.sampled_from([(1, 1), (1, 7), (7, 1), (1, 2), (3, 1)]) | st.tuples(st.integers(1, 7), st.integers(1, 7)))
    values = draw(st.lists(st.integers(0, 9) | st.integers(0, 2**31), min_size=pair_count(nx, ny), max_size=pair_count(nx, ny)))
    return RankInvariant(nx, ny, np.array(values, dtype=np.int32 if max(values) <= INT32_MAX else np.int64))


@settings(max_examples=100, deadline=None)
@given(inv=pair_tables(), data=st.data())
def test_the_pair_layout_is_the_lexicographic_order_of_the_comparable_pairs(inv, data):
    nx, ny = inv.nx, inv.ny
    dense, mask = inv.table, comparable_mask(nx, ny)
    # vector -> dense view -> vector is the identity, and the view is
    # 0 off the comparable pairs and read-only
    assert dense.dtype == inv.values.dtype and not dense.flags.writeable
    assert np.array_equal(dense[mask], inv.values) and not dense[~mask].any()
    for i, (s, t) in enumerate(comparable_pairs(nx, ny)):
        assert inv.get(s, t) == dense[s + t] and pair_index(nx, ny, s, t) == i
    for sx in range(nx):
        lo = data.draw(st.integers(0, ny - 1))
        hi = data.draw(st.integers(lo + 1, ny))
        assert np.array_equal(inv.rows(sx), dense[sx][mask[sx]])
        assert np.array_equal(inv.rows(sx, lo, hi), dense[sx, lo:hi][mask[sx, lo:hi]])
        targets = np.broadcast_to(np.arange(nx * ny), (ny, nx * ny))[mask[sx].reshape(ny, -1)]
        assert np.array_equal(slab_targets(nx, ny, sx), targets)
        for sy in range(ny):
            assert np.array_equal(inv.block((sx, sy)), dense[sx, sy, sx:, sy:])
    # the check's first failing index is comparable_pairs' first failing pair
    fails = np.array(data.draw(st.lists(st.booleans(), min_size=inv.values.size, max_size=inv.values.size)), dtype=bool)
    x, y = np.arange(nx)[:, None], np.arange(ny)
    corank = dense[x, y, x, y][:, :, None, None].astype(np.int64) - dense
    ki = KappaIota(nx, ny, PairTable(nx, ny, corank[mask]), PairTable(nx, ny, inv.values + fails.astype(np.int64)))
    want = next((pair for pair, fail in zip(comparable_pairs(nx, ny), fails) if fail), None)
    ok, witness = check_rectangle_decomposable(inv, ki)
    assert ok == (want is None) and (ok or witness[:2] == want)


def test_validate_catches_noncommuting_square():
    m = GridModule(
        2, 2, 2,
        [[1, 1], [1, 1]],
        hmaps={(0, 0): [[1]], (0, 1): [[1]]},
        vmaps={(0, 0): [[1]], (1, 0): [[0]]},
    )
    problems = m.validate()
    assert problems and "commute" in problems[0]
    good = rectangle_module(2, 2, (0, 0, 1, 1), 2)
    assert good.validate() == []


def test_a_module_neither_writes_nor_keeps_its_callers_maps():
    # each map is reduced mod p into an array of the module's own, whether
    # the caller's is already reduced int64, unreduced, int32, a list or
    # a transposed view
    given = {
        "reduced": np.array([[1, 2]], dtype=np.int64),
        "unreduced": np.array([[-1, 7]], dtype=np.int64),
        "int32": np.array([[5, 1]], dtype=np.int32),
    }
    kept = {name: a.copy() for name, a in given.items()}
    for name, a in given.items():
        m = GridModule(2, 2, 3, [[2, 2], [1, 1]], hmaps={(0, 0): a, (0, 1): [[0, 4]]}, vmaps={(0, 0): np.eye(2, dtype=np.int64)})
        assert np.array_equal(m.hmaps[(0, 0)], a % 3) and m.hmaps[(0, 0)].dtype == np.int64
        assert not np.shares_memory(m.hmaps[(0, 0)], a)
        dual = m.dualize()  # built from transposed views of m's maps
        theirs = [*m.hmaps.values(), *m.vmaps.values()]
        assert not any(np.shares_memory(d, e) for d in [*dual.hmaps.values(), *dual.vmaps.values()] for e in theirs)
        m.hmaps[(0, 0)][...] = 0
        assert np.array_equal(a, kept[name]) and a.dtype == kept[name].dtype, name


def test_composite_identity_and_chain():
    m = example("ex1")
    assert np.array_equal(composite(m, (1, 0), (1, 0)), np.eye(2, dtype=np.int64))
    comp = composite(m, (0, 0), (2, 0))
    assert comp.shape == (1, 2)
    assert rank(comp, 2) == 1


def test_composite_path_independence():
    rng = random.Random(5)
    for trial in range(10):
        mod, _ = random_rectangle_module(4, 4, 5, seed=trial, p=3)
        s = (rng.randrange(2), rng.randrange(2))
        t = (s[0] + rng.randrange(4 - s[0]), s[1] + rng.randrange(4 - s[1]))
        over = matmul(composite(mod, (t[0], s[1]), t), composite(mod, s, (t[0], s[1])), 3)
        assert np.array_equal(over, composite(mod, s, t))


def test_restrict_and_direct_sum_dims():
    a, _ = random_rectangle_module(4, 3, 3, seed=1, p=2)
    b, _ = random_rectangle_module(4, 3, 2, seed=2, p=2)
    s = direct_sum(a, b)
    assert all(s.dim_at(t) == a.dim_at(t) + b.dim_at(t) for t in iter_points(s.nx, s.ny))
    r = restrict(s, [0, 2, 3], [1, 2])
    assert (r.nx, r.ny) == (3, 2)
    assert r.validate() == []
    assert r.dim_at((1, 0)) == s.dim_at((2, 1))


def test_dualize_reverses_dims_and_preserves_hom_dim():
    m = example("ex3-right", p=5)
    d = m.dualize()
    assert d.validate() == []
    for x in range(3):
        for y in range(2):
            assert d.dim_at((x, y)) == m.dim_at((2 - x, 1 - y))
    assert hom_dim(d, d) == hom_dim(m, m)
    r = rectangle_module(3, 2, (1, 0, 2, 0), 5).dualize()
    expect = rectangle_module(3, 2, (0, 1, 1, 1), 5)
    assert [r.dim_at(t) for t in iter_points(r.nx, r.ny)] == [expect.dim_at(t) for t in iter_points(expect.nx, expect.ny)]


def test_rank_invariant_get_set_bounds():
    inv = RankInvariant(2, 2)
    set_pair(inv, (0, 0), (1, 1), 3)
    assert inv.get((0, 0), (1, 1)) == 3
    assert inv.get((-1, 0), (1, 1)) == 0
    assert inv.get((0, 0), (2, 1)) == 0
    with pytest.raises(ValueError):
        inv.get((1, 0), (0, 1))  # incomparable but in range


def test_rank_invariant_text_roundtrip():
    m = example("ex2", p=3)
    inv = rank_invariant_naive(m)
    text = inv.to_text()
    assert text.splitlines()[0] == "# rank invariant on grid 2 x 2 (1-based coordinates)"
    back = RankInvariant.from_text(text)
    assert back == inv
    assert back.to_text() == text


@pytest.mark.parametrize("p", [2, 3, MAX_MODULUS])
def test_naive_rank_is_the_rank_of_every_composite(p):
    rng = random.Random(p)
    modules = [random_rectangle_module(5, 4, 6, seed, p)[0] for seed in range(3)]
    # random maps do not commute, so the table pins the edge route of
    # every composite, not only its rank
    dims = [[rng.randrange(3) for _ in range(4)] for _ in range(5)]
    hmaps = {(x, y): [[rng.randrange(p) for _ in range(dims[x][y])] for _ in range(dims[x + 1][y])]
             for x in range(4) for y in range(4)}
    vmaps = {(x, y): [[rng.randrange(p) for _ in range(dims[x][y])] for _ in range(dims[x][y + 1])]
             for x in range(5) for y in range(3)}
    modules.append(GridModule(5, 4, p, dims, hmaps, vmaps))
    for m in modules:
        table = rank_invariant_naive(m).table
        for s, t in comparable_pairs(m.nx, m.ny):
            assert table[s + t] == rank(composite(m, s, t), p), (s, t)


def test_naive_rank_holds_one_row_of_composites():
    # the maps out of one source are pushed row by row and dropped: the
    # peak is the vector of ranks on the comparable pairs and O(n_x n_y)
    # small matrices, not one cached composite per comparable pair nor a
    # dense (nx, ny, nx, ny) table
    m, _ = random_rectangle_module(12, 12, 40, 1)
    tracemalloc.start()
    try:
        inv = rank_invariant_naive(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = int(m.dims.max())
    assert peak < inv.values.nbytes + m.nx * m.ny * (8 * d * d + 256)


@pytest.mark.parametrize("checker", [is_weakly_exact_algebraic, is_weakly_exact_geometric])
def test_explicit_checkers_hold_one_row_of_maps(checker):
    # the sides of the squares out of one source are pushed row by row
    # and dropped: the peak is the naive rank vector and O(n_x n_y) small
    # matrices, not one cached composite per comparable pair nor a dense
    # (nx, ny, nx, ny) table
    m, _ = random_rectangle_module(12, 12, 40, 1)
    table_bytes = rank_invariant_naive(m).values.nbytes
    tracemalloc.start()
    try:
        verdict = checker(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = int(m.dims.max())
    assert verdict == (True, None)
    assert peak < table_bytes + m.nx * m.ny * (8 * d * d + 256)


def reference_rank_to_text(inv):
    """Oracle: the per-pair .rank writer."""
    out = [f"# rank invariant on grid {inv.nx} x {inv.ny} (1-based coordinates)"]
    for s, t in comparable_pairs(inv.nx, inv.ny):
        r = inv.get(s, t)
        out.append(f"{s[0] + 1} {s[1] + 1} {t[0] + 1} {t[1] + 1} {r}")
    return "\n".join(out) + "\n"


@st.composite
def rank_tables(draw):
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    inv = RankInvariant(nx, ny)
    for s, t in comparable_pairs(nx, ny):
        set_pair(inv, s, t, draw(st.one_of(st.integers(0, 5), st.integers(0, INT64.max))))
    return inv


@settings(max_examples=80, deadline=None)
@given(rank_tables())
def test_rank_to_text_matches_the_per_pair_writer(inv):
    text = inv.to_text()
    assert text == reference_rank_to_text(inv)
    assert RankInvariant.from_text(text) == inv


@pytest.mark.parametrize("nx, ny", [(60, 2), (2, 60), (RANK_EXTENT_MAX, 2), (2, RANK_EXTENT_MAX), (12, 12)])
@pytest.mark.parametrize("fill", ["seeded", "zero"])
def test_rank_to_text_at_the_grid_cap(nx, ny, fill):
    # coordinates reach the .rank layout's extent, and on 12 x 12 a label
    # "x y " takes 6 of its 8 bytes, as "99 99 " does; ranks take 1, 2
    # and 19 digits
    inv = RankInvariant(nx, ny)
    if fill == "seeded":
        rng = np.random.default_rng(60)
        values = np.array([0, 9, 10, 10**18, INT64.max], dtype=np.int64)
        inv.values[:] = rng.choice(values, inv.values.size)
    text = inv.to_text()
    assert text == reference_rank_to_text(inv)
    assert RankInvariant.from_text(text) == inv


INT16_MAX = 2**15 - 1
STRADDLING = st.sampled_from(
    [0, 9, 10**4, INT16_MAX, INT16_MAX + 1, 10**8, INT32_MAX - 1, INT32_MAX, INT32_MAX + 1, 10**10, INT64.max]
)


def narrowest(values) -> np.dtype:
    """The entry type a .rank reader gives ranks up to max(values): the
    first of int16, int32 and int64 that holds it."""
    top = int(np.max(values))
    return np.dtype(np.int16 if top <= INT16_MAX else np.int32 if top <= INT32_MAX else np.int64)


def straddling_table(nx, ny, values, dtype=np.int64):
    """A rank table with `values` on the comparable pairs, in order."""
    return RankInvariant(nx, ny, np.array(values, dtype=dtype))


@st.composite
def straddling_tables(draw, dtype=np.int64):
    """Rank tables on grids up to 4 x 4 with ranks on both sides of
    2**15 - 1 and of 2**31 - 1, or only up to the top of an int16 or
    int32 table."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = STRADDLING | st.integers(0, 2**33) | st.integers(INT16_MAX - 9, INT16_MAX + 9)
    if dtype != np.int64:
        values = values.filter(lambda v: v <= np.iinfo(dtype).max)
    size = pair_count(nx, ny)
    return straddling_table(nx, ny, draw(st.lists(values, min_size=size, max_size=size)), dtype)


# tables whose ranks pass int16, then int32, in a late slab: the fifth
# line of a 2 x 2 table is the first of its second s_x slab
WIDENING = [
    straddling_table(2, 2, [1, 2, 3, 4, INT32_MAX + 1, 5, 6, 7, 8]),
    straddling_table(2, 2, [1, 2, 3, 4, INT16_MAX + 1, 5, 6, 7, INT16_MAX]),
    straddling_table(2, 2, [INT16_MAX, 2, 3, 4, INT16_MAX + 1, 5, 6, INT32_MAX, INT32_MAX + 1]),
    straddling_table(3, 1, [INT16_MAX, 0, INT16_MAX, INT16_MAX + 1, INT32_MAX, 2**31]),
]


@pytest.mark.parametrize("block", [None, 1, 7, 64])
@settings(max_examples=60, deadline=None)
@given(inv=straddling_tables())
@hypothesis.example(inv=WIDENING[0])
@hypothesis.example(inv=WIDENING[1])
@hypothesis.example(inv=WIDENING[2])
@hypothesis.example(inv=WIDENING[3])
def test_rank_reader_reads_int32_until_a_rank_past_it(block, inv):
    # whole or cut into blocks, so that a later block may widen a table
    # already filled, the table read is the int64 reference, and its
    # entry type is exactly the narrowest of int16, int32 and int64
    # that holds every rank
    text = inv.to_text()
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ioutil, "_BLOCK_CHARS", block)
        got = RankInvariant.from_text(text)
        general = rank_reader.from_blocks(lambda: ioutil.line_blocks(text))
    want = reference_rank_from_text(text)
    assert want.values.dtype == np.int64 and got == want == inv == general
    assert got.values.dtype == general.values.dtype == narrowest(inv.values)


@settings(max_examples=80, deadline=None)
@given(straddling_tables(np.int32))
@hypothesis.example(straddling_table(1, 2, [INT32_MAX, 10**8, INT32_MAX], np.int32))
def test_rank_text_slabs_of_an_int32_table_match_the_per_pair_writer(inv):
    # the 4-digit groups of a rank up to 2**31 - 1 divide by 10**8, which
    # an int32 holds
    assert inv.values.dtype == np.int32
    assert b"".join(inv.text_slabs()).decode("ascii") == reference_rank_to_text(inv)


@settings(max_examples=80, deadline=None)
@given(straddling_tables(np.int16))
@hypothesis.example(straddling_table(1, 2, [INT16_MAX, 10**4, 9999], np.int16))
@hypothesis.example(straddling_table(2, 2, [10**4, 0, INT16_MAX, 10, 32760, 99, 1, INT16_MAX, 10**4], np.int16))
def test_rank_text_slabs_of_an_int16_table_match_the_per_pair_writer(inv):
    # a rank of 5 digits takes two 4-digit groups, and its divisor and
    # thresholds, 10**4, fit in int16; cut into runs of one block each
    assert inv.values.dtype == np.int16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "RUN_PAIRS", 1)
        assert b"".join(inv.text_slabs()).decode("ascii") == reference_rank_to_text(inv)
    assert b"".join(inv.text_slabs()).decode("ascii") == reference_rank_to_text(inv)


@st.composite
def writer_bytes(draw):
    """The writer's bytes of a rank table on a grid up to 4 x 4, 60 x 1
    or 1 x 60, with ranks up to 2**31 - 1 or past it, and of 19 digits."""
    nx, ny = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)) | st.sampled_from([(RANK_EXTENT_MAX, 1), (1, RANK_EXTENT_MAX)]))
    values = STRADDLING | st.integers(0, 12) | st.just(10**18 - 1)
    if draw(st.booleans()):
        values = values.filter(lambda v: v <= INT32_MAX)
    palette = draw(st.lists(values, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inv = straddling_table(nx, ny, rng.choice(np.array(palette, dtype=np.int64), pair_count(nx, ny)))
    return inv, b"".join(inv.text_slabs())


def mutate_rank_bytes(data: bytes, draw) -> bytes:
    """`data` with one change: a flipped byte, a dropped, swapped or
    doubled line, an added comment or blank line, one CRLF, a leading
    zero, trailing text, or a cut."""
    lines = data.split(b"\n")[:-1]
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    how = draw(st.sampled_from(["flip", "drop", "swap", "double", "comment", "blank", "crlf", "zero", "trailing", "cut"]))
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 127))]) + data[at + 1 :]
    if how == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "trailing":
        return data + draw(st.sampled_from([b" ", b"\n", b"0", b"x\n", b"# end\n", lines[i] + b"\n"]))
    if how == "drop":
        del lines[i]
    elif how == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    elif how in ("comment", "blank"):
        lines.insert(i, b"# note" if how == "comment" else b"")
    elif how == "crlf":
        lines[i] += b"\r"
    else:
        head, _, rank = lines[i].rpartition(b" ")
        lines[i] = head + b" 0" + rank
    return b"\n".join(lines) + b"\n"


def general_outcome(read):
    """The table read and its entry type, or the FormatError's text."""
    try:
        inv = read()
    except FormatError as e:
        return str(e)
    return inv, inv.values.dtype


def read_both_ways(data: bytes, size: int):
    """`from_slabs` on `data` cut into chunks of `size` bytes, and the
    general reader's outcome on its text; `from_text`, which tries the
    layout first, must give the general reader's outcome."""
    text = data.decode("ascii")
    general = general_outcome(lambda: rank_reader.from_blocks(lambda: ioutil.line_blocks(text)))
    assert general_outcome(lambda: RankInvariant.from_text(text)) == general
    fast = rank_reader.from_slabs(data[i : i + size] for i in range(0, len(data), size))
    if fast is not None:  # only the writer's bytes of the table read
        assert (fast, fast.values.dtype) == general and fast.to_text() == text
    return fast, general


@pytest.mark.parametrize("size", [1, 7, 64, 1 << 17])
@settings(max_examples=40, deadline=None)
@given(drawn=writer_bytes())
@hypothesis.example(drawn=(WIDENING[0], b"".join(WIDENING[0].text_slabs())))
@hypothesis.example(drawn=(WIDENING[1], b"".join(WIDENING[1].text_slabs())))
@hypothesis.example(drawn=(WIDENING[2], b"".join(WIDENING[2].text_slabs())))
@hypothesis.example(drawn=(WIDENING[3], b"".join(WIDENING[3].text_slabs())))
def test_the_writers_layout_reader_reads_what_the_general_reader_reads(size, drawn):
    # the writer's bytes, cut into chunks anywhere, give the general
    # reader's table and entry type, exactly the narrowest of int16,
    # int32 and int64 that holds every rank; only a rank past 18 digits
    # is left to the general reader
    inv, data = drawn
    fast, general = read_both_ways(data, size)
    assert general == (inv, narrowest(inv.values))
    assert (fast is None) == (inv.values.max() >= 10**18)


@pytest.mark.parametrize("run", [1, 7, 64])
@settings(max_examples=40, deadline=None)
@given(drawn=writer_bytes())
@hypothesis.example(drawn=(WIDENING[1], b"".join(WIDENING[1].text_slabs())))
@hypothesis.example(drawn=(WIDENING[3], b"".join(WIDENING[3].text_slabs())))
def test_the_layout_reader_widens_in_runs_of_any_size(run, drawn):
    # in runs of as few as one block r(s, .), from chunks of as many
    # bytes, a rank past int16 or int32 in a late run widens the table
    # already filled, and the table and its entry type are those of a
    # read in whole slabs
    inv, data = drawn
    whole = rank_reader.from_slabs([data])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "RUN_PAIRS", run)
        fast = rank_reader.from_slabs(data[i : i + run] for i in range(0, len(data), run))
    if inv.values.max() >= 10**18:
        assert fast is whole is None
    else:
        assert (fast, fast.values.dtype) == (whole, whole.values.dtype) == (inv, narrowest(inv.values))


@pytest.mark.parametrize("size", [7, 1 << 17])
@settings(max_examples=150, deadline=None)
@given(drawn=writer_bytes(), data=st.data())
def test_a_changed_writers_file_reads_as_the_general_reader_reads_it(size, drawn, data):
    # one change anywhere: the layout reader gives None or the general
    # reader's table, and `from_text` the general reader's table or error
    read_both_ways(mutate_rank_bytes(drawn[1], data.draw), size)


def test_rank_to_text_refuses_a_negative_rank():
    inv = RankInvariant(1, 2)
    set_pair(inv, (0, 0), (0, 1), -1)
    with pytest.raises(ValueError, match="negative entry"):
        inv.to_text()


TOKENS = st.one_of(
    st.integers(1, 3).map(str),
    st.sampled_from(["0", "-1", "+2", "003", "-0", "61", "9223372036854775807",
                     "-9223372036854775808", "9223372036854775808", "-99999999999999999999",
                     "18446744073709551617"]),  # 2**64 + 1, which wraps to 1 in int64
)


@st.composite
def rank_texts(draw):
    """.rank-like text: rows of integer tokens, some short, with blanks and comments."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "short", "blank", "comment"]))
        if kind in ("row", "short"):
            toks = draw(st.lists(TOKENS, min_size=5 if kind == "row" else 1, max_size=5 if kind == "row" else 6))
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            line = sep.join(toks) + draw(st.sampled_from(["", " ", "\r", " # 1 2"]))
        elif kind == "comment":
            line = "# rank 1 1 1 1 1"
        else:
            line = draw(st.sampled_from(["", "   ", "\t"]))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome(read, text):
    try:
        return read(text)
    except FormatError as e:
        return int(re.match(r"line (\d+): ", str(e)).group(1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(rank_texts(), rank_tables().map(lambda inv: inv.to_text())))
def test_rank_from_text_matches_the_per_line_reader(text):
    # the same table, or a FormatError naming the same line
    assert outcome(RankInvariant.from_text, text) == outcome(reference_rank_from_text, text)


BAD_RANK_LINES = [
    "1 1 1 1", "1 1 1 1 1 1", "1 1 1 1 x", "1 1 1 1 -1", "2 1 1 1 1", "0 1 1 1 1", "1 1 1 99999 1",
    "1 1 1 1 9223372036854775808", "1 1 1 1 -9223372036854775809", "1 1 1 1 9999999999999999999",
]


@st.composite
def long_rank_texts(draw, shuffled=False):
    """A valid .rank of at least nine pairs, respelled: comments, blank lines,
    CRs and tabs, signed and zero-padded tokens of up to 19 digits; its
    pairs in the writer's order, or shuffled.  Maybe one bad line, or a
    repeat of an earlier pair, in its second half."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    pairs = list(comparable_pairs(nx, ny))
    if shuffled:
        pairs = draw(st.permutations(pairs))
    lines = []
    for s, t in pairs:
        values = [s[0] + 1, s[1] + 1, t[0] + 1, t[1] + 1, draw(st.integers(0, 5) | st.just(INT64.max))]
        toks = [draw(st.sampled_from([str(v), str(v), f"+{v}", f"00{v}", str(v).zfill(19)])) for v in values]
        toks = [draw(st.sampled_from([tok, "-0"])) if tok == "0" else tok for tok in toks]
        sep = draw(st.sampled_from([" ", "\t", " \t"]))
        lines.append(sep.join(toks) + draw(st.sampled_from(["", "", " ", "\r", " # 1 2"])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\r", "# 1 1 1 1 1"])))
    if draw(st.booleans()):
        at = draw(st.integers(len(lines) // 2, len(lines)))
        bad = draw(st.sampled_from(BAD_RANK_LINES) | st.sampled_from(lines[:at]))
        lines.insert(at, bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome_text(read, text):
    try:
        return read(text)
    except FormatError as e:
        return str(e)


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(long_rank_texts(), long_rank_texts(shuffled=True), rank_texts()))
def test_rank_from_text_reads_the_same_in_blocks_of_any_size(block, text):
    # the text fits in one block of the default size; cut into many, it
    # gives the same table or the same FormatError, also when a later
    # block names a larger t and the table is regrown
    assert len(text) < ioutil._BLOCK_CHARS
    whole = outcome_text(RankInvariant.from_text, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "_BLOCK_CHARS", block)
        assert outcome_text(RankInvariant.from_text, text) == whole
        assert outcome(RankInvariant.from_text, text) == outcome(reference_rank_from_text, text)


FUZZ_CHARS = st.one_of(st.sampled_from(list("0123456789 +-#\n\t\r_x.\x0b\x00\xa0\u00e9\ud800")), st.characters())


@st.composite
def mutated_rank_texts(draw):
    """.rank-like text with a few arbitrary characters spliced in."""
    text = draw(rank_texts())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.text(FUZZ_CHARS, max_size=3)) + text[at:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(FUZZ_CHARS, max_size=80), mutated_rank_texts()))
def test_rank_reader_fuzz_raises_only_format_errors(text):
    try:
        inv = RankInvariant.from_text(text)
    except FormatError as e:
        assert re.match(r"line \d+: ", str(e))
    else:
        assert isinstance(inv, RankInvariant)


def test_rank_reader_names_the_second_line_of_a_repeated_pair():
    text = "# r\n1 1 2 2 1\n1 1 1 1 2\n\n1 1 2 2 1\n"
    with pytest.raises(FormatError, match=r"^line 5: pair repeats line 2"):
        RankInvariant.from_text(text)


@pytest.mark.parametrize("nx, ny", [(60, 1), (1, 60), (60, 2), (100, 1), (1, 100)])
def test_rank_reader_reads_coordinates_up_to_the_grid_cap(monkeypatch, nx, ny):
    # the table is bounded by its bytes, not by the grid's extents: a
    # coordinate past the old 60 x 60 cap and the .rank layout's 99 is
    # read on either axis, with the cap at the bytes of the int16 table
    monkeypatch.setattr(ioutil, "BYTES_CAP", 2 * pair_count(nx, ny))
    inv = RankInvariant.from_text(f"1 1 {nx} {ny} 3\n{nx} {ny} {nx} {ny} 2\n1 1 1 1 4\n")
    want = RankInvariant(nx, ny, np.zeros(pair_count(nx, ny), dtype=np.int16))
    set_pair(want, (0, 0), (nx - 1, ny - 1), 3)
    set_pair(want, (nx - 1, ny - 1), (nx - 1, ny - 1), 2)
    set_pair(want, (0, 0), (0, 0), 4)
    assert inv == want


@pytest.mark.parametrize("row, grid", [
    ("1 1 61 1 1", "61x1"),
    ("1 1 1 61 0", "1x61"),
    ("61 1 61 1 1", "61x1"),
    ("1 1 1 101 0", "1x101"),
    ("1 1 2 1 40000", "2x1"),  # a rank past int16 widens the table
])
def test_rank_reader_refuses_coordinates_past_the_grid_cap(monkeypatch, row, grid):
    # the table of the grid and the largest rank so far is checked as
    # each row comes: read at its bytes, refused one byte short of them
    entry = 4 if row.endswith("40000") else 2
    need = entry * pair_count(*map(int, grid.split("x")))
    text = f"1 1 1 1 1\n{row}\n"
    monkeypatch.setattr(ioutil, "BYTES_CAP", need)
    assert RankInvariant.from_text(text).values.nbytes == need
    monkeypatch.setattr(ioutil, "BYTES_CAP", need - 1)
    message = (
        f"line 2: 1 table(s) on the comparable pairs of the {grid} grid "
        f"would need {need:,} bytes, past the {need - 1:,}-byte cap"
    )
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        RankInvariant.from_text(text)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_rank_reader_names_both_lines_of_a_repeat_in_different_blocks(block):
    rows = [f"{s[0] + 1} {s[1] + 1} {t[0] + 1} {t[1] + 1} 1" for s, t in comparable_pairs(3, 3)]
    text = "\n".join(rows + [rows[2]]) + "\n"
    # line 3 ends at character 29 and its repeat, line 37, starts at 360:
    # no block of at most 64 characters past a line's end holds both
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "_BLOCK_CHARS", block)
        with pytest.raises(FormatError, match=rf"^line {len(rows) + 1}: pair repeats line 3$"):
            RankInvariant.from_text(text)


@pytest.mark.parametrize("block", [7, None])
@pytest.mark.parametrize("text, message", [
    ("1 1 1 1 1\n1 1 2 2 1\n1 1 1 1 2\n1 1 1 x 1\n", "line 3: pair repeats line 1"),
    ("1 1 1 1 1\n1 1 2 2 1\n1 1 1 1 2\n1 1 1 1 -1\n", "line 3: pair repeats line 1"),
    ("1 1 1 1 1\n1 1 2 2 1 0\n1 1 1 1 2\n", "line 2: expected 's_x s_y t_x t_y r', got '1 1 2 2 1 0'"),
    ("1 1 1 1 1\n2 1 1 1 1\n1 1 1 1 2\n", "line 2: pair not comparable or not 1-based"),
    ("1 1 1 1 1\n1 1 2 2 -1\n1 1 1 1 2\n", "line 2: negative rank"),
    ("1 1 1 1 1\n1 1 1 99999 0\n1 1 1 1 2\n", "line 2: 1 table(s) on the comparable pairs of "
     "the 1x99999 grid would need 9,999,900,000 bytes"),
], ids=["repeat-then-malformed", "repeat-then-bad-row", "malformed-then-repeat", "not-comparable-then-repeat",
        "negative-then-repeat", "past-cap-then-repeat"])
def test_rank_reader_raises_for_the_first_bad_line(block, text, message):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ioutil, "_BLOCK_CHARS", block)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            RankInvariant.from_text(text)


@pytest.mark.parametrize("value", ["99999999999999999999", "-9223372036854775809"])
def test_rank_reader_rejects_integers_outside_int64(value):
    with pytest.raises(FormatError, match=r"^line 2: integer .* outside the 64-bit range"):
        RankInvariant.from_text(f"1 1 1 1 1\n1 1 1 2 {value}\n")


@pytest.mark.parametrize("token", ["1_0", "1.0", "0x1", "+", "1-", "\u0661"])
def test_rank_reader_accepts_only_sign_and_ascii_digits(token):
    with pytest.raises(FormatError, match=r"^line 1: expected integer"):
        RankInvariant.from_text(f"1 1 1 1 {token}\n")


def test_rank_invariant_additivity():
    a, _ = random_rectangle_module(3, 3, 3, seed=10, p=2)
    b, _ = random_rectangle_module(3, 3, 3, seed=11, p=2)
    total = rank_invariant_naive(a).table + rank_invariant_naive(b).table
    assert np.array_equal(total, rank_invariant_naive(direct_sum(a, b)).table)


def test_hom_dim_interval_pairs():
    # a map k_ab -> k_ac must vanish at b, hence everywhere on the ab part
    assert hom_dim(interval_module("ab"), interval_module("ac")) == 0
    assert hom_dim(interval_module("ac"), interval_module("ab")) == 0
    assert hom_dim(interval_module("abcd"), interval_module("abcd")) == 1
    assert hom_dim(interval_module("a"), interval_module("a")) == 1
    # at the shared corner d, commuting along b->d kills abcd -> d
    assert hom_dim(interval_module("abcd"), interval_module("d")) == 0
    assert hom_dim(interval_module("d"), interval_module("abcd")) == 1


def test_hom_dim_counts_endomorphisms_of_sums():
    m = direct_sum(interval_module("ab"), interval_module("ac"))
    assert hom_dim(m, m) == 2


def test_invariants_of_square_interval_modules():
    inv = invariants_of_square(interval_module("abc"), (0, 0), (1, 1))
    assert square_vector(inv).tolist() == [1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0]
    inv = invariants_of_square(interval_module("bd"), (0, 0), (1, 1))
    assert square_vector(inv).tolist() == [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0]


def rank_formula_modules(p):
    for seed in range(4):
        yield random_rectangle_module(5, 4, 10, seed=seed, p=p)[0]
    for n in range(2, 6):
        yield indecgrid(n, p)
    for seed in range(3):
        for degree in (0, 1):
            yield homology_module(clique_bifiltration(seed, 7, 0.6, 5, 4, p), degree)


@pytest.mark.parametrize("p", (2, 3, MAX_MODULUS))
def test_square_ranks_give_the_subspace_dimensions(p):
    # i_d = r_bd + r_cd - rank [bd | cd] and k_a = dim_a - r_ab - r_ac +
    # rank [ab; ac], against the subspace oracle at every comparable pair
    for module in rank_formula_modules(p):
        oracle = kappa_iota_naive(module)
        for s, t in comparable_pairs(module.nx, module.ny):
            inv = invariants_of_square(module, s, t)
            assert (inv.i_d, inv.k_a) == (oracle.iota.get(s, t), oracle.kappa.get(s, t)), (s, t)


def test_square_invariant_matrix_vs_bruteforce():
    mat = square_invariant_matrix()
    for col, letters in enumerate(SQUARE_LABELS):
        vec = square_vector(invariants_of_square(interval_module(letters), (0, 0), (1, 1)))
        assert mat[:, col].tolist() == vec.tolist()


def test_decompose_square_roundtrip_singletons():
    for letters in SQUARE_LABELS:
        bc = square_barcode(interval_module(letters), (0, 0), (1, 1))
        assert bc == SquareBarcode({letters: 1})
        assert sum(bc.values()) == 1 and bc[letters] == 1


def test_decompose_square_on_sums():
    m = direct_sum(interval_module("ab"), interval_module("ac"))
    assert square_barcode(m, (0, 0), (1, 1)) == SquareBarcode({"ab": 1, "ac": 1})
    assert invariants_of_square(m, (0, 0), (1, 1)).k_a == 2
    m2 = direct_sum(m, interval_module("abcd"))
    assert square_barcode(m2, (0, 0), (1, 1)) == SquareBarcode(
        {"ab": 1, "ac": 1, "abcd": 1}
    )


def test_decompose_square_rejects_inconsistent_invariants():
    # r_ad = i_d = 1 with every corner dimension zero solves to a
    # negative multiplicity straight away
    bad = SquareInvariants(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0)
    with pytest.raises(InconsistentSquareError):
        decompose_square(bad)


def test_square_barcode_hooks_flag():
    assert SquareBarcode({"abc": 1}).hooks == 1
    assert SquareBarcode({"bcd": 2, "ab": 1}).hooks == 2
    assert SquareBarcode({"ab": 1, "abcd": 3}).hooks == 0
    assert SquareBarcode({"ab": 1}).is_rectangular()
    assert not SquareBarcode({"abc": 1}).is_rectangular()


def test_checkers_on_rectangle_sums():
    for seed in range(5):
        m, _ = random_rectangle_module(4, 3, 4, seed=seed, p=2)
        assert is_weakly_exact_algebraic(m) == (True, None)
        assert is_weakly_exact_geometric(m) == (True, None)


def test_checkers_agree_on_examples():
    for name in ("ex2", "ex3-left", "ex3-right", "ex4-left", "ex4-right"):
        m = example(name)
        assert is_weakly_exact_algebraic(m) == is_weakly_exact_geometric(m)


def test_strong_vs_weak_on_example4():
    left = example("ex4-left")
    right = example("ex4-right")
    assert is_strongly_exact(left) == (True, None)
    assert is_weakly_exact_algebraic(left) == (True, None)
    assert is_weakly_exact_algebraic(right) == (True, None)
    ok, witness = is_strongly_exact(right)
    assert not ok and witness is not None


def test_gmod_roundtrip():
    m = example("ex3-right", p=7)
    text = write_gmod(m)
    back = read_gmod(text)
    assert back.p == 7 and (back.nx, back.ny) == (3, 2)
    assert back.validate() == []
    for t in iter_points(m.nx, m.ny):
        assert back.dim_at(t) == m.dim_at(t)
    assert write_gmod(back) == text


def test_gmod_rejects_malformed():
    good = write_gmod(example("ex2"))
    with pytest.raises(FormatError):
        read_gmod(good.replace("gridmodule", "gridmod"))
    with pytest.raises(FormatError):
        read_gmod(good + "junk line\n")
    zero = write_gmod(zero_module(2, 1, 2))
    with pytest.raises(FormatError):
        read_gmod(zero + "hmap 1 1\n")
