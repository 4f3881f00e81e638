"""The text readers: one integer rule, and FormatError as the only failure.

Every reader here must turn any text into either a parsed object or a
FormatError naming a line; no other exception may escape.  The `.rank`
reader has its own fuzz and reference tests in test_grid_module.py.
"""

import io
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist import ioutil, rank_reader
from bipersist.bifiltration import Bifiltration, read_bif, write_bif
from bipersist.constructions import random_rectangle_module
from bipersist.gmod import read_gmod, write_gmod
from bipersist.grid_module import GridModule, RankInvariant
from bipersist.ioutil import FormatError, parse_int
from bipersist.rect_decomp import RectangleBarcode
from bipersist.fres import read_fres, read_fres_blocks, write_fres
from bipersist.resolution import FreeResolution, column_bytes, free_resolution
from conftest import random_bifiltration, reference_read_fres
from paperlib import dense, int_rows, rectangle_rank_invariant
from test_acceptance import _perf_fixture_text

FUZZ_CHARS = st.one_of(
    st.sampled_from(list("0123456789 +-#;\n\t\r_x.e\x0b\x00\xa0é١\ud800")),
    st.characters(),
)
HUGE = st.sampled_from(
    ["9223372036854775808", "-9223372036854775809", "99999999999999999999", "9" * 5000, "0" * 5000 + "1"]
)
LINE = re.compile(r"line \d+: ")


@st.composite
def bif_texts(draw):
    seed = draw(st.integers(0, 10**6))
    return write_bif(random_bifiltration(seed, max_simplices=12, nx=3, ny=3, p=draw(st.sampled_from([2, 3]))))


@st.composite
def fres_texts(draw):
    seed = draw(st.integers(0, 10**6))
    bif = random_bifiltration(seed, max_simplices=10, nx=3, ny=3, p=draw(st.sampled_from([2, 3, 2**31 - 1])))
    return write_fres(free_resolution(bif, draw(st.sampled_from([0, 1]))))


@st.composite
def gmod_texts(draw):
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10**6))
    return write_gmod(random_rectangle_module(nx, ny, 4, seed, draw(st.sampled_from([2, 3])))[0])


@st.composite
def mutated(draw, texts):
    """A valid file with characters spliced in, a span cut out, or a number swapped for a huge one."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["splice", "cut", "huge"]))
    if how == "splice":
        return text[:at] + draw(st.text(FUZZ_CHARS, max_size=3)) + text[at:]
    if how == "cut":
        return text[:at] + text[at + draw(st.integers(1, 8)) :]
    numbers = list(re.finditer(r"\d+", text))
    if not numbers:
        return text
    m = numbers[draw(st.integers(0, len(numbers) - 1))]
    return text[: m.start()] + draw(HUGE) + text[m.end() :]


READERS = {
    ".bif": (read_bif, Bifiltration, bif_texts()),
    ".fres": (read_fres, FreeResolution, fres_texts()),
    ".gmod": (read_gmod, GridModule, gmod_texts()),
}


@pytest.mark.parametrize("ext", sorted(READERS))
def test_reader_fuzz_raises_only_format_errors(ext):
    read, kind, texts = READERS[ext]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(FUZZ_CHARS, max_size=80), mutated(texts)))
    def check(text):
        try:
            got = read(text)
        except FormatError as e:
            assert LINE.match(str(e)), str(e)
        else:
            assert isinstance(got, kind)

    check()


@pytest.mark.parametrize(
    "tok, value",
    [("-9223372036854775808", -(2**63)), ("9223372036854775807", 2**63 - 1), ("+7", 7), ("-0", 0),
     ("0" * 5000 + "1", 1)],
    ids=["int64-min", "int64-max", "plus", "minus-zero", "5000-leading-zeros"],
)
def test_parse_int_accepts_signed_ascii_digits_in_int64(tok, value):
    assert parse_int(tok, 1, "x") == value


@pytest.mark.parametrize(
    "tok", ["9223372036854775808", "-9223372036854775809", "9" * 5000], ids=["above", "below", "5000-digits"]
)
def test_parse_int_rejects_integers_outside_int64(tok):
    # 5000 digits are past int()'s limit on string length, a plain ValueError
    with pytest.raises(FormatError, match=r"^line 4: integer -?\d+ is outside the 64-bit range"):
        parse_int(tok, 4, "x")


@pytest.mark.parametrize("tok", ["1_0", "1.0", "0x1", "+", "1-", "+-1", " 1", "١", "²", ""])
def test_parse_int_accepts_only_sign_and_ascii_digits(tok):
    with pytest.raises(FormatError, match=r"^line 4: expected integer x"):
        parse_int(tok, 4, "x")


@pytest.mark.parametrize(
    "ext, text, line",
    [
        (".bif", "bifiltration\nfield 2\n1 1 ; 9223372036854775808\n", 3),
        (".fres", "resolution\nfield 2\ngrid 1 99999999999999999999\n", 3),
        (".gmod", "gridmodule\nfield 2\ngrid 1 1\ndim 1 1 99999999999999999999\n", 4),
    ],
)
def test_every_reader_names_the_line_of_an_integer_past_int64(ext, text, line):
    with pytest.raises(FormatError, match=rf"^line {line}: integer \d+ is outside the 64-bit range"):
        READERS[ext][0](text)


def _triplet(line):
    toks = line.split()
    return len(toks) == 3 and all(t.isdigit() for t in toks)


@st.composite
def edited_fres_texts(draw):
    """A valid .fres with lines dropped, doubled, cut or pushed out of range, an
    inhomogeneous entry set twice, triplet values moved by multiples of p,
    comments, tabs, blanks and CRLF, and a few characters spliced in."""
    text = draw(fres_texts())
    res = reference_read_fres(text)
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["drop", "double", "cut", "range", "inhomogeneous", "value", "layout"]))
        body = st.integers(min(4, len(lines) - 1), len(lines) - 1)
        at = draw(body | st.integers(0, len(lines) - 1) if how in ("drop", "double") else body)
        if how == "drop":
            del lines[at]
        elif how == "cut":
            del lines[at + 1 :]
        elif how == "double":
            lines.insert(at, lines[at])
        elif how == "range" and lines[at][:1].isdigit():
            toks = lines[at].split()
            k = draw(st.integers(0, min(len(toks), 2) - 1))
            toks[k] = draw(st.sampled_from(["0", "-1", str(int(toks[k]) + 1), str(int(toks[k]) + 9)]))
            lines[at] = " ".join(toks)
        elif how == "inhomogeneous" and "phi" in lines and "psi" in lines[lines.index("phi"):]:
            gens, rels = res.gens.grades, res.rels.grades
            pairs = [(i, j) for i in range(len(gens)) for j in range(len(rels))]
            pairs = [(i, j) for i, j in pairs if not (gens[i][0] <= rels[j][0] and gens[i][1] <= rels[j][1])] or pairs
            if pairs:
                i, j = draw(st.sampled_from(pairs))
                values = st.sampled_from([0, 1, -1, res.p, res.p + 1, 2**63 - 1])
                for _ in range(2):
                    a = lines.index("phi")
                    where = draw(st.integers(a + 1, lines.index("psi", a)))
                    lines.insert(where, f"{i + 1} {j + 1} {draw(values)}")
        elif how == "value" and _triplet(lines[at]):
            i, j, v = map(int, lines[at].split())
            k = draw(st.integers(-(2**63) // res.p, (2**63 - 1 - v) // res.p))
            lines[at] = f"{i} {j} {v + k * res.p}"
        elif how == "layout":
            edit = draw(st.sampled_from(["tabs", "tail", "insert", "indent"]))
            if edit == "tabs":
                lines[at] = lines[at].replace(" ", draw(st.sampled_from(["\t", " \t ", "  "])))
            elif edit == "tail":
                lines[at] += draw(st.sampled_from(["\r", " # note", "\t#1 2", " ", " 1"]))
            elif edit == "insert":
                lines.insert(at, draw(st.sampled_from(["", "# 1 1", " \t", "\r", "#phi"])))
            else:
                lines[at] = draw(st.sampled_from([" ", "\t", "\r"])) + lines[at]
        if not lines:
            break
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)) | st.integers(len(text) // 4, len(text)))
        text = text[:at] + draw(st.text(FUZZ_CHARS, max_size=3)) + text[at:]
    return text


def fres_outcome(read, text):
    try:
        return write_fres(read(text))
    except FormatError as e:
        return int(re.match(r"line (\d+): ", str(e)).group(1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(fres_texts(), edited_fres_texts()))
def test_read_fres_matches_the_per_line_reader(text):
    # the same resolution, or a FormatError naming the same line
    assert fres_outcome(read_fres, text) == fres_outcome(reference_read_fres, text)


def fres_outcome_text(text):
    try:
        return write_fres(read_fres(text))
    except FormatError as e:
        return str(e)


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(fres_texts(), edited_fres_texts()))
def test_read_fres_reads_the_same_in_blocks_of_any_size(block, text):
    # the text fits in one block of the default size; cut into many, it
    # gives the same resolution or the same FormatError
    assert len(text) < ioutil._BLOCK_CHARS
    whole = fres_outcome_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "_BLOCK_CHARS", block)
        assert fres_outcome_text(text) == whole
        assert fres_outcome(read_fres, text) == fres_outcome(reference_read_fres, text)


def test_fres_reader_refuses_text_past_the_psi_block():
    # the psi block ends at the second psi line; what follows it is not
    # read, so the file is refused, not read as an empty resolution
    text = "resolution\nfield 2\ngrid 1 1\ngens\nrels\nrelrels\nphi\npsi\npsi\nnot a triplet at all\nphi 7\n"
    for read in (read_fres, reference_read_fres):
        with pytest.raises(FormatError, match=r"^line 9: expected the end of the file after the 'psi' block"):
            read(text)


@pytest.mark.parametrize("grade", ["nan 1", "1 NaN", "inf 1", "1 -inf", "-Infinity 2", "1e400 0", "0 -1e999"])
def test_bif_reader_refuses_non_finite_grades(grade):
    # nan compares false with every grade, and 1e400 reads as infinity
    text = f"bifiltration\nfield 2\n0 0 ; 1\n\n{grade} ; 2\n"
    with pytest.raises(FormatError, match=rf"^line 5: grade '{grade}' is not finite"):
        read_bif(text)


@pytest.mark.parametrize("grade", ["1_0 1", "1 2_5.0", "\uff12 1", "1 \u0661", "1\x0b 1", "1 \x1c2"])
def test_bif_reader_refuses_grades_outside_ascii_or_with_separators(grade):
    # float() would read 1_0 as 10, a fullwidth or Arabic-Indic digit as
    # its value and a number next to a vertical tab or a file separator
    # as the number; a grade, like every integer field, is printable
    # ASCII without _
    text = f"bifiltration\nfield 2\n0 0 ; 1\n\n{grade} ; 2\n"
    with pytest.raises(FormatError, match=rf"^line 5: bad grade {re.escape(repr(grade))}$"):
        read_bif(text)


# every character at which str.split() splits, the LF that ends a line aside
SEPARATORS = [
    " ", "\t", "\r", "\x0b", "\x0c", *map(chr, range(0x1C, 0x20)), "\x85", "\xa0", "\u1680",
    *map(chr, range(0x2000, 0x200B)), "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
]


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.integers(1, 9), min_size=4, max_size=4),
    gap=st.integers(0, 2),
)
def test_every_reader_separates_fields_by_space_tab_and_cr_only(values, gap):
    # one rule for every format: a field is a run of characters other
    # than space, tab and CR, so any other separator, Unicode whitespace
    # included, joins the two fields around it and the reader refuses
    # the line, naming it
    a, b, c, d = values
    cases = {  # (reader, file text, number and fields of the line that takes the separator)
        ".bif grade": (read_bif, "bifiltration\nfield 2\n{} ; 0\n", 3, [str(a), str(b)]),
        ".bif simplex": (read_bif, "bifiltration\nfield 2\n1 1 ; {}\n", 3, [str(a), str(a + b), str(a + b + c)]),
        ".gmod dim": (read_gmod, "gridmodule\nfield 2\ngrid 9 9\n{}\n", 4, ["dim", str(a), str(b), str(d)]),
        ".fres grid": (read_fres, "resolution\nfield 2\n{}\ngens\nrels\nrelrels\nphi\npsi\n", 3, ["grid", str(a), str(b)]),
    }
    for read, text, number, parts in cases.values():
        at = min(gap, len(parts) - 2)
        for sep in SEPARATORS:
            line = " ".join(parts[: at + 1]) + sep + " ".join(parts[at + 1 :])
            if sep in " \t\r":
                read(text.format(line))
            else:
                with pytest.raises(FormatError, match=rf"^line {number}: "):
                    read(text.format(line))


def test_a_table_line_of_the_wrong_width_is_quoted_with_its_other_whitespace():
    # the quoted line loses its blanks only: the ideographic space that
    # makes "1\u3000" one field stays in the message
    quoted = re.escape(repr("1 1 1 1\u3000"))
    with pytest.raises(FormatError, match=rf"^line 2: expected 's_x s_y t_x t_y r', got {quoted}$"):
        RankInvariant.from_text("1 1 1 1 1\n1 1 1 1\u3000 \t\n")


@pytest.mark.parametrize("blanks", [" ", "\t", "\r", " \t\r "])
def test_bif_field_line_is_split_by_the_blanks_as_every_line(blanks):
    # the field line took a single space only, so `field\t2` was refused
    # as a missing field line where .fres read it as `field 2`
    assert read_bif(f"bifiltration\nfield{blanks}3\n1 1 ; 0\n").p == 3


@pytest.mark.parametrize("text, message", [
    ("bifiltration\nfield\u30002\n1 1 ; 0\n", "line 2: expected 'field p'"),
    ("bifiltration\nfield\n1 1 ; 0\n", "line 2: expected 'field p'"),
    ("bifiltration\n# p\n\nfield 2 3\n", "line 4: expected 'field p'"),
    ("bifiltration\n1 1 ; 0\n", "line 2: expected 'field p'"),
    ("bifiltration\n# no field line\n", "line 1: missing 'field p' line"),
])
def test_bif_field_line_is_refused_at_its_own_line(text, message):
    # the second logical line must be `field p`, and a refusal names it,
    # as read_fres names its field line; only a file with no second
    # logical line is refused at the header
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_bif(text)


def test_bif_reader_reads_ascii_real_grades():
    bif = read_bif("bifiltration\nfield 2\n+.5 1e0 ; 0\n1.5E0 -2 ; 1\n")
    assert bif.grades == {(0,): (0, 1), (1,): (1, 0)}


@pytest.mark.parametrize(
    "value, outcome",
    [
        (3, 3), (np.int64(3), 3), (np.int32(3), 3), (np.uint8(3), 3), (np.uint64(2**31 - 1), 2**31 - 1),
        (True, "out of range"), (np.int64(4), "not prime"),
        (3.0, "must be an integer"), (np.float64(3), "must be an integer"), (np.array(3), "must be an integer"),
        (np.array([3]), "must be an integer"), (np.bool_(True), "must be an integer"),
        (Fraction(3), "must be an integer"), (Decimal(3), "must be an integer"), ("3", "must be an integer"),
        (None, "must be an integer"),
    ],
    ids=repr,
)
def test_check_modulus_accepts_ints_and_numpy_integer_scalars_only(value, outcome):
    # an int or a numpy integer scalar is read as the int it holds; a
    # float, an array or any other number is refused whatever its value
    if isinstance(outcome, int):
        got = ioutil.check_modulus(value)
        assert got == outcome and type(got) is int
    else:
        with pytest.raises(ValueError, match=outcome):
            ioutil.check_modulus(value)


def test_fres_homogeneity_error_names_the_triplet_line():
    # a generator at (2, 2) cannot feed a relation at (1, 1); the
    # second triplet line sets that entry
    text = "resolution\nfield 2\ngrid 2 2\ngens\n1 1\n2 2\nrels\n1 1\nrelrels\nphi\n1 1 1\n2 1 1\npsi\n"
    with pytest.raises(FormatError, match=r"^line 12: phi not homogeneous: entry \(2,1\)"):
        read_fres(text)


def test_fres_homogeneity_error_gives_the_files_grades():
    # the entry and both grades are the file's own 1-based coordinates
    text = "resolution\nfield 3\ngrid 2 2\ngens\n2 2\nrels\n1 1\nrelrels\nphi\n1 1 1\npsi\n"
    with pytest.raises(FormatError) as err:
        read_fres(text)
    assert str(err.value) == (
        "line 10: phi not homogeneous: entry (1,1) nonzero but row grade (2, 2) is not below column grade (1, 1)"
    )


def counted(blocks):
    """`blocks` with a count of its calls."""

    def again():
        again.calls += 1
        return blocks()

    again.calls = 0
    return again


@pytest.mark.parametrize(
    "last, err",
    [
        ("2 1 1", "line 10001: phi not homogeneous: entry (2,1)"),
        ("2 1 0", None),
    ],
    ids=["set-again", "reset-to-zero"],
)
def test_fres_homogeneity_line_is_found_by_reading_the_file_again(last, err):
    # phi's entry (2, 1) would feed a relation at (1, 1) from a generator
    # at (2, 2); it is set nonzero at line 11, and set again at line
    # 10001, about 30 blocks later.  Only a file that fails on
    # homogeneity is read twice.
    text = (
        "resolution\nfield 2\ngrid 2 2\ngens\n1 1\n2 2\nrels\n1 1\nrelrels\nphi\n2 1 1\n"
        + "1 1 1\n" * 9989
        + f"{last}\npsi\n"
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "_BLOCK_CHARS", 2048)
        blocks = counted(lambda: ioutil.line_blocks(text))
        if err is None:
            res = read_fres_blocks(blocks)
            assert dense(res.phi).tolist() == [[1], [0]]
        else:
            with pytest.raises(FormatError, match=rf"^{re.escape(err)} nonzero"):
                read_fres_blocks(blocks)
    assert blocks.calls == (1 if err is None else 2)


@pytest.mark.parametrize(
    "text, line, message",
    [
        (
            "gridmodule\nfield 2\ngrid 2 100000\n", 3,
            "the rank table of the 2x100000 grid and the identities of its spaces would need 30,000,300,000 bytes, "
            "past the 268,435,456-byte cap",
        ),
        ("gridmodule\nfield 2\ngrid 1 1\ndim 1 1 1000\n", 4, "dimension 1000 exceeds the file's 41 characters"),
        ("gridmodule\nfield 2\ngrid 2 1\ndim 1 1 1\n\ndim 2 1 1\n", 6, r"missing hmap between nonzero spaces at \(1,1\)"),
        ("gridmodule\nfield 2\ngrid 1 2\ndim 1 2 1\n\ndim 1 1 1\n", 6, r"missing vmap between nonzero spaces at \(1,1\)"),
    ],
    ids=["grid-past-cap", "dim-past-file", "missing-map", "missing-vmap"],
)
def test_gmod_reader_refuses_sizes_the_file_cannot_back(text, line, message):
    with pytest.raises(FormatError, match=rf"^line {line}: {message}"):
        read_gmod(text)


def test_gmod_reader_refuses_large_isolated_spaces_before_allocating():
    # (1,1) and (3,1) have no nonzero neighbour, so nothing in the file
    # backs their dimensions; a comment makes the file long enough to
    # pass the per-line bound, and the sum of 8 d^2 over them passes the cap
    d = 10**5
    text = f"gridmodule\nfield 2\ngrid 3 1\ndim 1 1 1\ndim 3 1 {d}\n#{'x' * d}\n"
    assert 8 * d * d > ioutil.BYTES_CAP
    tracemalloc.start()
    try:
        # 8 (1 + d^2) bytes of identities, and the int32 table of the 3 x 1 grid's 6 pairs
        with pytest.raises(FormatError, match=r"^line 5: the rank table of the 3x1 grid and the identities of its spaces would need 80,000,000,032 bytes"):
            read_gmod(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


def test_gmod_reader_refuses_large_spaces_with_neighbours_before_allocating():
    # a 1 x d map backs a space of dimension d with about 2 d characters,
    # yet its identity takes 8 d^2 bytes: d = 6000 passes the cap
    d = 6000
    text = f"gridmodule\nfield 2\ngrid 2 1\ndim 1 1 {d}\ndim 2 1 1\nhmap 1 1\n{' '.join(['1'] * d)}\n"
    assert 8 * d * d > ioutil.BYTES_CAP
    tracemalloc.start()
    try:
        # and the int16 table of the 2 x 1 grid's 3 pairs
        with pytest.raises(FormatError, match=r"^line 4: the rank table of the 2x1 grid and the identities of its spaces would need 288,000,006 bytes"):
            read_gmod(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


def test_int_rows_peak_memory_is_its_rows_and_one_block():
    # a 40 x 40 .rank: the rows go straight into one array, and the
    # per-byte and per-token temporaries of one cache-sized block fit in
    # the quarter of slack
    text = rectangle_rank_invariant(RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1}), 40, 40).to_text()
    tracemalloc.start()
    try:
        rows, lines, error = int_rows(text, "s_x s_y t_x t_y r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error is None and len(rows) == (40 * 41 // 2) ** 2
    assert peak <= 1.25 * (rows.nbytes + lines.nbytes) + ioutil._BLOCK_CHARS


def test_fres_reader_peak_memory_is_phi_and_one_run_of_work():
    # the 50 x 50 benchmark presentation (seed 808), one run of about
    # `_BLOCK_CHARS` characters at a time: beside phi's columns, 54 kB of
    # bitsets, and its 1-byte scratch, one run's text, rows and parse
    # work, with int32 token positions, no per-byte mask alive through
    # the digit pass and no run's rows or line numbers alive while the
    # next run is parsed (15.4 `_BLOCK_CHARS` measured); no int64 phi
    text = _perf_fixture_text()
    tracemalloc.start()
    try:
        res = read_fres(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense(res.phi).shape == (500, 500) and all(type(v) is int for v in res.phi.columns)
    assert peak <= column_bytes(500, 500, 2) + 500 * 500 + 16 * ioutil._BLOCK_CHARS


def test_rank_from_text_layout_route_peak_memory_is_the_vector_one_run_and_one_block():
    # the writer's text of the same 40 x 40 .rank goes to the layout
    # reader one `line_blocks` run at a time, so the tokenizer never runs
    # and the 8.8 MB text is never encoded whole: beside the vector, one
    # run's bytes and per-line arrays, as `from_slabs` holds on byte
    # chunks, and one block of text with its encoding (9.7
    # `_BLOCK_CHARS` measured)
    text = rectangle_rank_invariant(RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1}), 40, 40).to_text()

    def tokenizer(*args):
        raise AssertionError("the general .rank reader ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank_reader, "block_rows", tokenizer)
        tracemalloc.start()
        try:
            inv = RankInvariant.from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert inv.values.size == (40 * 41 // 2) ** 2
    assert peak <= inv.values.nbytes + (9 + 1) * ioutil._BLOCK_CHARS


def test_rank_from_text_peak_memory_is_the_table_the_bitmap_and_one_block():
    # the same 40 x 40 .rank, with a comment line after its header so
    # that the layout reader refuses it and the general reader runs: each
    # block's rows go straight into the vector of ranks and the
    # one-bool-per-pair repeat bitmap, so beside them only one block's
    # text, rows and temporaries are held, whatever the number of rows
    # (672,400 here; 2 bytes a row would break the bound), and no dense
    # (nx, ny, nx, ny) table
    head, rest = rectangle_rank_invariant(
        RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1}), 40, 40
    ).to_text().split("\n", 1)
    text = f"{head}\n# not the writer's layout\n{rest}"
    assert rank_reader.from_slabs([text.encode()]) is None
    tracemalloc.start()
    try:
        inv = RankInvariant.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= inv.values.nbytes + inv.values.size + 40 * ioutil._BLOCK_CHARS
    assert inv == rectangle_rank_invariant(RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1}), 40, 40)


def test_rank_text_slabs_peak_memory_is_a_few_slabs():
    # written run by run, the .rank text of a 40 x 40 table (10.9 MB) is
    # never held whole: beside the vector of ranks, one run of about
    # `RUN_PAIRS` lines and its temporaries, whatever the size of a slab
    # (32,800 lines in the first, about 40 `_BLOCK_CHARS` of per-line
    # arrays; 7.0 `_BLOCK_CHARS` measured at 4,096 pairs a run)
    inv = rectangle_rank_invariant(RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1}), 40, 40)
    chars = 0
    tracemalloc.start()
    try:
        for run in inv.text_slabs():
            chars += len(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chars == len(inv.to_text())
    assert peak <= 8 * ioutil._BLOCK_CHARS


def test_layout_reader_peak_memory_is_the_vector_and_one_run():
    # the writer's bytes of a 40 x 40 int16 table, in chunks of
    # `_BLOCK_CHARS`: beside the vector, one run's bytes and per-line
    # arrays, not those of a slab, and at the render that checks the
    # run only its bytes and points (7.8 `_BLOCK_CHARS` measured)
    inv = rectangle_rank_invariant(RectangleBarcode({(0, 0, 39, 39): 2, (3, 5, 30, 36): 1}), 40, 40)
    data = b"".join(inv.text_slabs())
    chunks = [data[i : i + ioutil._BLOCK_CHARS] for i in range(0, len(data), ioutil._BLOCK_CHARS)]
    tracemalloc.start()
    try:
        got = rank_reader.from_slabs(iter(chunks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == inv and got.values.dtype == np.int16
    assert peak <= got.values.nbytes + 9 * ioutil._BLOCK_CHARS


def big_fres_text(seed: int, n: int, gens: int, rels: int) -> str:
    """A .fres presentation on an n x n grid, every generator at the
    origin, relations at seeded grades, each phi entry 1 with
    probability 1/2."""
    rng = random.Random(seed)
    lines = ["resolution", "field 2", f"grid {n} {n}", "gens"] + ["1 1"] * gens + ["rels"]
    lines += [f"{rng.randrange(n) + 1} {rng.randrange(n) + 1}" for _ in range(rels)]
    lines += ["relrels", "phi"]
    lines += [f"{i + 1} {j + 1} 1" for j in range(rels) for i in range(gens) if rng.random() < 0.5]
    return "\n".join(lines + ["psi"]) + "\n"


def test_fres_block_reader_peak_memory_is_phi_and_one_block():
    # 80,000 triplet lines, about six blocks of text: beside phi's columns
    # and its 1-byte scratch, one block's text, rows and parse arrays,
    # whatever the size of the file or of the phi block; no whole-block
    # rows, line numbers or sort (16.6 `_BLOCK_CHARS` measured)
    text = big_fres_text(5, 30, 400, 400)
    assert len(text) > 5 * ioutil._BLOCK_CHARS
    fh = io.StringIO(text)

    def blocks():
        fh.seek(0)
        return ioutil.file_blocks(fh)

    tracemalloc.start()
    try:
        res = read_fres_blocks(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_fres(res) == write_fres(read_fres(text))
    assert peak <= column_bytes(400, 400, 2) + 400 * 400 + 18 * ioutil._BLOCK_CHARS


INT64_MAX = 2**63 - 1


def spelled(value: int, draw) -> str:
    """One spelling of an integer token: plain, signed, or zero-padded to 19 digits."""
    plain = str(value)
    return draw(st.sampled_from([plain, plain, f"+{value}", plain.zfill(19), "-0" if value == 0 else plain]))


@st.composite
def ragged_rank_texts(draw):
    """.rank rows whose lines, and so the blocks cut from them, keep
    changing length: a short row, a row padded with tens of blanks or
    spelled with 19-digit tokens, blank and comment lines, CRs, tabs and
    signs; maybe one bad line (wrong count, a stray byte, a negative
    rank, a token past int64) or a repeated pair."""
    lines = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["row", "row", "row", "padded", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " " * 30, "\t", "\r"])))
            continue
        if kind == "comment":
            lines.append("#" + " 1" * draw(st.integers(0, 30)))
            continue
        sx, sy = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        tx, ty = draw(st.integers(sx, 6)), draw(st.integers(sy, 6))
        r = draw(st.sampled_from([0, 1, 7, 12, 345, INT64_MAX]))
        sep = draw(st.sampled_from([" ", "\t", " \t "]))
        line = sep.join(spelled(v, draw) for v in (sx, sy, tx, ty, r))
        if kind == "padded":
            line = " " * draw(st.integers(10, 60)) + line + "\t" * draw(st.integers(0, 20))
        lines.append(line + draw(st.sampled_from(["", "", "\r", " # 1 2 3 4 5"])))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(
            ["1 1 1 1", "1 1 1 1 1 1", "1 1 1 1 x", "1 1 1 1 -1", "1 1 1 1 9223372036854775808",
             "1 1 1 1 -99999999999999999999", "1 1 2 2 +", "1é 1 1 1 1"]
        ) | st.sampled_from(lines))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def reference_int_rows(text):
    """Oracle: `int_rows` with five fields, line by line: (rows, their
    line numbers, the number of the first malformed line or None)."""
    rows, lines = [], []
    for lineno, line in ioutil.logical_lines(text):
        toks = re.findall(r"[^ \t\r]+", line)  # the fields: runs of characters other than space, tab and CR
        if len(toks) != 5 or not all(re.fullmatch(r"[+-]?[0-9]+", t) for t in toks):
            return rows, lines, lineno
        values = [int(t) for t in toks]
        if not all(-(2**63) <= v <= INT64_MAX for v in values):
            return rows, lines, lineno
        rows.append(values)
        lines.append(lineno)
    return rows, lines, None


def rank_outcome_text(read):
    try:
        return read()
    except FormatError as e:
        return str(e)


@pytest.mark.parametrize("block", [12, 29, 70])
@settings(max_examples=100, deadline=None)
@given(text=ragged_rank_texts())
def test_rank_reader_scratch_carries_nothing_between_blocks(block, text):
    # cut into blocks of tens of characters, the lines' lengths make the
    # blocks, and their per-byte and per-token work, grow and shrink; a
    # block that reused a byte or token of a longer earlier block would
    # read a different table or name a different line
    fields = "s_x s_y t_x t_y r"
    whole_rows, whole_lines, whole_error = int_rows(text, fields)
    whole = rank_outcome_text(lambda: RankInvariant.from_text(text))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "_BLOCK_CHARS", block)
        rows, lines, error = int_rows(text, fields)
        assert rank_outcome_text(lambda: RankInvariant.from_text(text)) == whole
        from_file = rank_outcome_text(lambda: rank_reader.from_blocks(lambda: ioutil.file_blocks(io.StringIO(text))))
        assert from_file == whole
    ref_rows, ref_lines, ref_error = reference_int_rows(text)
    assert rows.tolist() == whole_rows.tolist() == ref_rows
    assert lines.tolist() == whole_lines.tolist() == ref_lines
    assert str(error) == str(whole_error)
    assert (error and int(re.match(r"line (\d+): ", str(error)).group(1))) == ref_error
