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
_BLOCK_CHARS = 1 << 22  # text parsed per vectorized pass; bounds the per-byte arrays


def int_rows(text: str, fields: str):
    """Parse a table of integers, one row per logical line.

    Every line that is not blank once its '#' comment is cut must hold
    one integer per name in `fields` (e.g. "s_x s_y t_x t_y r").  An
    integer is an optional sign and ASCII digits, within int64; tokens
    are separated by spaces or tabs, and a CR is read as a space.

    Returns (rows, lines, error): the (n, width) int64 rows of the lines
    before the first malformed one, their 1-based line numbers, and a
    FormatError naming that line (None when every line is well formed).
    A caller checks the rows it got before it raises `error`, so the
    error it raises names the first bad line of the file, whatever
    check that line fails.
    """
    width = len(fields.split())
    rows, lines = [np.zeros((0, width), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    pos, first_line = 0, 1
    while pos < len(text):
        cut = text.find("\n", pos + _BLOCK_CHARS)
        cut = len(text) if cut < 0 else cut + 1
        block = text[pos:cut]
        block_rows, block_lines, error = _block_rows(block, fields, width, first_line)
        rows.append(block_rows)
        lines.append(block_lines)
        if error is not None:
            return np.concatenate(rows), np.concatenate(lines), error
        first_line += block.count("\n")
        pos = cut
    return np.concatenate(rows), np.concatenate(lines), None


def _block_rows(block: str, fields: str, width: int, first_line: int):
    """`int_rows` on a run of whole lines starting at line `first_line`."""
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
    minus = data[starts] == 45
    lo = starts + (minus | (data[starts] == 43))
    n_digits = ends - lo
    values = np.zeros(n_tok, dtype=np.int64)
    for back in range(min(int(n_digits.max(initial=0)), _SAFE_DIGITS), 0, -1):
        at = ends - back
        d = np.take(data, at, mode="clip").astype(np.int64) - 48
        values = values * 10 + np.where(at >= lo, d, 0)
    values[minus] *= -1
    for t in np.flatnonzero(n_digits > _SAFE_DIGITS):
        token = data[starts[t] : ends[t]].tobytes().decode()
        value = _int64(token)
        if value is None:
            stop = int(np.searchsorted(line_ends, starts[t]))
            why = f"integer {token} is outside the 64-bit range"
            n_tok = t - t % width
            values = values[:n_tok]
            break
        values[t] = value
    error = FormatError(f"line {first_line + stop}: {why}") if why else None
    lines = first_line + np.flatnonzero(per_line[:stop] == width)
    return values.reshape(-1, width), lines[: n_tok // width], error
