"""The text readers: one integer rule, and FormatError as the only failure.

Every reader here must turn any text into either a parsed object or a
FormatError naming a line; no other exception may escape.  The `.rank`
reader has its own fuzz and reference tests in test_grid_module.py.
"""

import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, read_bif, write_bif
from bipersist.constructions import random_rectangle_module
from bipersist.grid_module import DP_GRID_CAP, GMOD_IDENTITY_BYTES_CAP, GridModule, read_gmod, write_gmod
from bipersist.ioutil import FormatError, parse_int
from bipersist.rect_decomp import RectangleBarcode
from bipersist.resolution import FreeResolution, free_resolution, read_fres, write_fres
from bipersist.zigzag import ZigzagBarcode, read_zbar, write_zbar
from conftest import random_bifiltration, reference_read_fres

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
def barcode_texts(draw):
    rects = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 4).map(lambda r: (min(r[0], r[2]), min(r[1], r[3]), max(r[0], r[2]), max(r[1], r[3]))),
        st.integers(1, 3),
        max_size=5,
    ))
    return RectangleBarcode(rects).to_text()


@st.composite
def zbar_texts(draw):
    n = draw(st.integers(1, 6))
    bars = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple), max_size=5))
    return write_zbar([ZigzagBarcode(n, bars, draw(st.integers(0, 2)))])


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
    ".barcode": (RectangleBarcode.from_text, RectangleBarcode, barcode_texts()),
    ".zbar": (read_zbar, list, zbar_texts()),
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
        (".barcode", "1 1 1 1 99999999999999999999\n", 1),
        (".zbar", "# bars\n0 1 99999999999999999999\n", 2),
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


def test_fres_homogeneity_error_names_the_triplet_line():
    # a generator at (2, 2) cannot feed a relation at (1, 1); the
    # second triplet line sets that entry
    text = "resolution\nfield 2\ngrid 2 2\ngens\n1 1\n2 2\nrels\n1 1\nrelrels\nphi\n1 1 1\n2 1 1\npsi\n"
    with pytest.raises(FormatError, match=r"^line 12: phi not homogeneous: entry \(2,1\)"):
        read_fres(text)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("gridmodule\nfield 2\ngrid 2 100000\n", 3, f"grid 2x100000 exceeds the {DP_GRID_CAP}x{DP_GRID_CAP} cap"),
        ("gridmodule\nfield 2\ngrid 1 1\ndim 1 1 1000\n", 4, "dimension 1000 exceeds the file's 41 characters"),
        ("gridmodule\nfield 2\ngrid 2 1\ndim 1 1 1\n\ndim 2 1 1\n", 6, r"missing hmap between nonzero spaces at \(1,1\)"),
    ],
    ids=["grid-past-cap", "dim-past-file", "missing-map"],
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
    assert 8 * d * d > GMOD_IDENTITY_BYTES_CAP
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^line 5: identities of the spaces would need 80,000,000,008 bytes"):
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
    assert 8 * d * d > GMOD_IDENTITY_BYTES_CAP
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"^line 4: identities of the spaces would need 288,000,000 bytes"):
            read_gmod(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)
