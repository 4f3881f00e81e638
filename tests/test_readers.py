"""The text readers: one integer rule, and FormatError as the only failure.

Every reader here must turn any text into either a parsed object or a
FormatError naming a line; no other exception may escape.  The `.rank`
reader has its own fuzz and reference tests in test_grid_module.py.
`.gmod` is left out: a valid `grid` line with large extents makes its
reader allocate the whole grid before it checks any content.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipersist.bifiltration import Bifiltration, read_bif, write_bif
from bipersist.ioutil import FormatError, parse_int
from bipersist.rect_decomp import RectangleBarcode
from bipersist.resolution import FreeResolution, free_resolution, read_fres, write_fres
from bipersist.zigzag import ZigzagBarcode, read_zbar, write_zbar
from conftest import random_bifiltration

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
    bif = random_bifiltration(seed, max_simplices=10, nx=3, ny=3, p=draw(st.sampled_from([2, 3])))
    return write_fres(free_resolution(bif, draw(st.sampled_from([0, 1]))))


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
            # the one message without a line: .fres checks homogeneity
            # on the assembled matrices
            assert LINE.match(str(e)) or (ext == ".fres" and "not homogeneous" in str(e)), str(e)
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
        (".barcode", "1 1 1 1 99999999999999999999\n", 1),
        (".zbar", "# bars\n0 1 99999999999999999999\n", 2),
    ],
)
def test_every_reader_names_the_line_of_an_integer_past_int64(ext, text, line):
    with pytest.raises(FormatError, match=rf"^line {line}: integer \d+ is outside the 64-bit range"):
        READERS[ext][0](text)
