"""Shared bits: the text file formats (UTF-8, LF, '#' comments) and the
package's exception classes."""

from __future__ import annotations

import re

import numpy as np


class FormatError(ValueError):
    """Raised on malformed input files; message carries a 1-based line number."""


class InvariantError(RuntimeError):
    """A fact the algorithms guarantee for every valid input did not hold.

    Raised instead of `assert` so the checks survive `python -O`.
    """


def logical_lines(text: str):
    """Yield (lineno, stripped_content) skipping blanks and comments."""
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_SAFE_DIGITS = 18  # every integer of this many digits fits in int64


def _int64(token: str):
    """Value of a sign-and-digits token, or None when it is outside int64."""
    digits = token.lstrip("+-").lstrip("0") or "0"
    if len(digits) > _SAFE_DIGITS + 1:
        return None  # also keeps int() below its limit on digits
    value = -int(digits) if token.startswith("-") else int(digits)
    return value if _INT64_MIN <= value <= _INT64_MAX else None


def parse_int(tok: str, lineno: int, what: str) -> int:
    """One integer field of any format: an optional sign and ASCII digits, within int64."""
    if len(tok) <= _SAFE_DIGITS and tok.isdigit() and tok.isascii():
        return int(tok)  # short unsigned fields, the bulk of every file, skip the regex
    if not _INT_TOKEN.fullmatch(tok):
        raise FormatError(f"line {lineno}: expected integer {what}, got {tok!r}")
    value = _int64(tok)
    if value is None:
        raise FormatError(f"line {lineno}: integer {tok} is outside the 64-bit range")
    return value


_COMMENT = re.compile(r"#[^\n]*")
# text parsed per vectorized pass: small enough that the pass's per-byte and
# per-token temporaries stay in the CPU cache
_BLOCK_CHARS = 1 << 17


def int_rows(text: str, fields: str, first_line: int = 1):
    """Parse a table of integers, one row per logical line.

    Every line that is not blank once its '#' comment is cut must hold
    one integer per name in `fields` (e.g. "s_x s_y t_x t_y r").  An
    integer is an optional sign and ASCII digits, within int64; tokens
    are separated by spaces or tabs, and a CR is read as a space.

    `text` is a run of whole lines whose first line is line `first_line`
    of its file, so a reader that cuts one block out of a file keeps the
    line numbers of the file.  The text is parsed in cache-sized blocks
    of whole lines, each of which writes its rows straight into one
    array allocated up front for as many rows as the text can hold.

    Returns (rows, lines, error): the (n, width) int64 rows of the lines
    before the first malformed one, their 1-based line numbers, and a
    FormatError naming that line (None when every line is well formed).
    A caller checks the rows it got before it raises `error`, so the
    error it raises names the first bad line of the file, whatever
    check that line fails.
    """
    width = len(fields.split())
    cap = row_capacity(len(text), text.count("\n"), width)
    rows = np.empty((cap, width), dtype=np.int64)
    lines = np.empty(cap, dtype=np.int64)
    n = 0
    for first, block, _ in line_blocks(text, first_line):
        got, error = block_rows(block, fields, first, rows[n:], lines[n:])
        n += got
        if error is not None:
            return rows[:n], lines[:n], error
    return rows[:n], lines[:n], None


def row_capacity(chars: int, newlines: int, width: int) -> int:
    """Most rows of `width` integers that a text of `chars` characters
    and `newlines` newlines can hold: a row takes a line, and at least
    one character and one separator per field."""
    return min(newlines + 1, (chars + 1) // (2 * width))


def line_blocks(text: str, first_line: int = 1):
    """Cut `text` into runs of whole lines of about `_BLOCK_CHARS`
    characters; yields (number of the run's first line, run, newlines
    in the run), each run's newlines counted once."""
    pos = 0
    while pos < len(text):
        cut = text.find("\n", pos + _BLOCK_CHARS)
        cut = len(text) if cut < 0 else cut + 1
        block = text[pos:cut]
        newlines = block.count("\n")
        yield first_line, block, newlines
        first_line += newlines
        pos = cut


def file_blocks(fh):
    """`line_blocks` of an open text file, read one run at a time: each
    run is `_BLOCK_CHARS` characters and the rest of the line they end
    in, so the file's text is never held whole."""
    first_line = 1
    while block := fh.read(_BLOCK_CHARS) + fh.readline():
        newlines = block.count("\n")
        yield first_line, block, newlines
        first_line += newlines


def block_rows(block: str, fields: str, first_line: int, rows, lines):
    """`int_rows` on one run of whole lines starting at line `first_line`:
    writes the rows and their line numbers to the heads of `rows` and
    `lines`, and returns (number of rows written, error)."""
    width = rows.shape[1]
    data = np.frombuffer(_COMMENT.sub("", block).encode("utf-8", "surrogatepass"), dtype=np.uint8)
    blank = (data == 32) | (data == 10) | (data == 9) | (data == 13)
    digit = (data - 48) < 10  # uint8 arithmetic wraps the bytes below '0' upwards
    edges = np.flatnonzero(np.diff(~blank, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    line_ends = np.append(np.flatnonzero(data == 10), data.size)
    per_line = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    stop = line_ends.size  # index of the first malformed line
    why = ""
    wrong_count = np.flatnonzero((per_line != 0) & (per_line != width))
    if wrong_count.size:
        stop = int(wrong_count[0])
        a = line_ends[stop - 1] + 1 if stop else 0
        line = data[a : line_ends[stop]].tobytes().decode("utf-8", "replace").strip()
        why = f"expected '{fields}', got {line!r}"
    # a byte that is neither blank nor a digit must be a sign that opens
    # its token and is followed by a digit
    odd = np.flatnonzero(~(blank | digit))
    opens = (odd == 0) | blank[odd - 1]
    then_digit = digit[np.minimum(odd + 1, data.size - 1)] & (odd + 1 < data.size)
    stray = odd[~(((data[odd] == 43) | (data[odd] == 45)) & opens & then_digit)]
    if stray.size:
        at = int(np.searchsorted(line_ends, stray[0]))
        if at < stop:
            stop = at
            t = np.searchsorted(starts, stray[0], side="right") - 1
            token = data[starts[t] : ends[t]].tobytes().decode("utf-8", "replace")
            why = f"expected integer, got {token!r}"

    n_tok = int(per_line[:stop].sum())
    starts, ends = starts[:n_tok], ends[:n_tok]
    first = data[starts]
    minus = first == 45
    n_digits = ends - starts - (minus | (first == 43))
    # every token has a last digit; each earlier place is added over the
    # tokens long enough to have it
    values = rows.reshape(-1)[:n_tok]
    np.subtract(data[ends - 1], 48, out=values, dtype=np.int64)
    live = np.flatnonzero(n_digits > 1)
    for place in range(1, _SAFE_DIGITS):
        if not live.size:
            break
        values[live] += (data[ends[live] - 1 - place].astype(np.int64) - 48) * 10**place
        live = live[n_digits[live] > place + 1]
    np.negative(values, out=values, where=minus)
    for t in np.flatnonzero(n_digits > _SAFE_DIGITS):
        token = data[starts[t] : ends[t]].tobytes().decode()
        value = _int64(token)
        if value is None:
            stop = int(np.searchsorted(line_ends, starts[t]))
            why = f"integer {token} is outside the 64-bit range"
            n_tok = t - t % width
            break
        values[t] = value
    error = FormatError(f"line {first_line + stop}: {why}") if why else None
    n_rows = n_tok // width
    lines[:n_rows] = first_line + np.flatnonzero(per_line[:stop] == width)[:n_rows]
    return n_rows, error
