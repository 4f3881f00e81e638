"""Shared bits: the text rules of every file format (UTF-8, LF, '#'
comments, blank-separated fields), the field modulus rule and the
package's exception classes.

This is the text layer, and it loads no numpy: `block_rows`, its one
array user, imports it when called, so reading and validating a .bif,
and every refusal made before the algebra starts, run without it."""

from __future__ import annotations

import numbers
import re
from typing import Optional


class FormatError(ValueError):
    """Raised on malformed input files; message carries a 1-based line number."""


class InvariantError(RuntimeError):
    """A fact the algorithms guarantee for every valid input did not hold.

    Raised instead of `assert` so the checks survive `python -O`.
    """


# The text rules of every format: a '#' opens a comment to the end of its
# line, and a field is a run of characters other than the blanks, space,
# tab and CR; any other character, Unicode whitespace too, is a field's.
BLANKS = " \t\r"
fields = re.compile(f"[^{BLANKS}]+").findall  # the fields of a line, in order


def logical_lines(text: str):
    """Yield (lineno, content) of each line that holds a field once its
    comment is cut, stripped of its blanks."""
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(BLANKS)
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


MAX_MODULUS = 2**31 - 1


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for all p below 2**31."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # bases 2,3,5,7 are a proven witness set for p < 3_215_031_751
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> int:
    """p as an int, when it is a prime in [2, MAX_MODULUS]: an int or a
    numpy integer scalar (both `numbers.Integral`), not a float or an array."""
    if not isinstance(p, numbers.Integral):
        raise ValueError("field modulus must be an integer")
    p = int(p)
    if p < 2 or p > MAX_MODULUS:
        raise ValueError(f"field modulus {p} out of range [2, {MAX_MODULUS}]")
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    return p


# The most bytes an input's largest allocations may take: its tables on
# the comparable pairs and the dense matrices of its route.
BYTES_CAP = 1 << 28


class TooLargeError(ValueError):
    """An input whose allocations `check_bytes` refuses."""


def check_bytes(need: int, what: str, line: Optional[int] = None) -> None:
    """Every size refusal of the package, made before the allocation:
    `need` bytes for `what` past `BYTES_CAP` raise a TooLargeError naming
    both, or a FormatError "line N: " it for the file line that asks."""
    if need > BYTES_CAP:
        text = f"{what} would need {need:,} bytes, past the {BYTES_CAP:,}-byte cap"
        raise TooLargeError(text) if line is None else FormatError(f"line {line}: {text}")

_COMMENT = re.compile(r"#[^\n]*")
# text parsed per vectorized pass: small enough that the pass's per-byte and
# per-token temporaries stay in the CPU cache
_BLOCK_CHARS = 1 << 17


def line_blocks(text: str):
    """Cut `text` into runs of whole lines of about `_BLOCK_CHARS`
    characters; yields (number of the run's first line, run)."""
    pos, first_line = 0, 1
    while pos < len(text):
        cut = text.find("\n", pos + _BLOCK_CHARS)
        cut = len(text) if cut < 0 else cut + 1
        yield first_line, text[pos:cut]
        first_line += text.count("\n", pos, cut)
        pos = cut


def file_blocks(fh):
    """`line_blocks` of an open text file, read one run at a time: each
    run is `_BLOCK_CHARS` characters and the rest of the line they end
    in, so the file's text is never held whole."""
    first_line = 1
    while block := fh.read(_BLOCK_CHARS) + fh.readline():
        yield first_line, block
        first_line += block.count("\n")


def file_chunks(fh):
    """The bytes of an open binary file, `_BLOCK_CHARS` at a time."""
    return iter(lambda: fh.read(_BLOCK_CHARS), b"")


def block_rows(block: str, names: str, first_line: int):
    """Parse a table of integers, one row per logical line, from one run
    of whole lines starting at line `first_line` of its file.

    Every line that is not blank once its '#' comment is cut must hold
    one integer per name in `names` (e.g. "s_x s_y t_x t_y r").  An
    integer is an optional sign and ASCII digits, within int64, and the
    `BLANKS` separate them.

    Returns (rows, lines, error): the rows of the lines before the
    first malformed one (int64, one column per field), their 1-based
    line numbers, and a FormatError naming the first malformed line,
    None when every line is well formed.  A caller checks the rows it
    got before it raises `error`, so the error it raises names the first
    bad line of the file, whatever check that line fails.  Its per-byte
    and per-token work arrays are the run's own, freed when it returns:
    byte positions are int32 wherever they fit, the per-byte masks are
    freed before the per-token work, and only the index of the digit
    gathers is intp, so that no gather casts its index to a copy."""
    import numpy as np

    width = len(fields(names))
    data = np.frombuffer(_COMMENT.sub("", block).encode("utf-8", "surrogatepass"), dtype=np.uint8)
    size = data.size
    position = np.int32 if size < 2**31 else np.intp  # no position passes size
    # per byte: the digit values, 0 off the digits and shifted one place
    # behind a leading 0; the blanks; and the non-blanks, padded with a
    # blank at each end so that every token has a start and an end edge.
    # `edge` and `solid` serve as temporaries before they hold those.
    digit_at = np.zeros(size + 1, dtype=np.uint8)
    blank = np.empty(size, dtype=bool)
    solid = np.empty(size + 2, dtype=bool)
    edge = np.empty(size + 1, dtype=bool)
    np.subtract(data, 48, out=digit_at[1:])  # uint8 arithmetic wraps the bytes below '0' upwards
    digit = np.less(digit_at[1:], 10, out=edge[:size])
    digit_at[1:] *= digit
    plain = np.count_nonzero(digit)  # bytes that are digits or blanks
    newline = np.equal(data, 10, out=solid[:size])
    solid[size] = True  # the run's last line ends at its end
    line_ends = np.flatnonzero(solid[: size + 1]).astype(position)
    np.copyto(blank, newline)
    for byte in BLANKS.encode():
        blank |= np.equal(data, byte, out=solid[:size])
    plain += np.count_nonzero(blank)
    solid[0] = solid[-1] = False
    np.logical_not(blank, out=solid[1:-1])
    edges = np.flatnonzero(np.not_equal(solid[1:], solid[:-1], out=edge)).astype(position)  # token i is data[edges[2i]:edges[2i + 1]]
    # twice the tokens up to each line end: a token lies within one line,
    # and its end edge may be the newline itself
    through = np.searchsorted(edges, line_ends, side="right")
    per_line = np.diff(through, prepend=0) >> 1
    stop = line_ends.size  # index of the first malformed line
    why = ""
    fits = (per_line == width) | (per_line == 0)
    if not fits.all():
        stop = int(np.argmin(fits))
        a = line_ends[stop - 1] + 1 if stop else 0
        line = data[a : line_ends[stop]].tobytes().decode("utf-8", "replace").strip(BLANKS)
        why = f"expected '{names}', got {line!r}"
    # a byte that is neither blank nor a digit must be a sign that opens
    # its token and is followed by a digit
    signed = plain < size
    if signed:
        digit = (data - 48) < 10
        odd = np.flatnonzero(~(blank | digit))
        opens = (odd == 0) | blank[odd - 1]
        then_digit = digit[np.minimum(odd + 1, size - 1)] & (odd + 1 < size)
        stray = odd[~(((data[odd] == 43) | (data[odd] == 45)) & opens & then_digit)]
        if stray.size:
            at = int(np.searchsorted(line_ends, stray[0]))
            if at < stop:
                stop = at
                t = np.searchsorted(edges[0::2], stray[0], side="right") - 1
                token = data[edges[2 * t] : edges[2 * t + 1]].tobytes().decode("utf-8", "replace")
                why = f"expected integer, got {token!r}"

    n_tok = int(through[stop - 1]) // 2 if stop else 0
    lines = np.flatnonzero(per_line[:stop] == width)[: n_tok // width] + first_line
    del blank, solid, edge, digit, newline, through, per_line, fits  # the masks and per-line counts are done with
    starts, ends = edges[0 : 2 * n_tok : 2], edges[1 : 2 * n_tok : 2]
    n_digits = ends - starts
    if signed:
        first = data[starts]
        minus = first == 45
        n_digits -= minus | (first == 43)
    longest = int(n_digits.max(initial=0))
    long_tokens = np.flatnonzero(n_digits > _SAFE_DIGITS) if longest > _SAFE_DIGITS else ()
    # Horner's rule over the digit places, from the highest any token
    # has; digit_at[ends] is a token's last digit, and a place before
    # its first digit reads digit_at[low], the byte before that digit (a
    # blank or a sign), whose digit value is 0
    low = np.subtract(ends, n_digits, out=n_digits)
    # one index buffer serves every place: fresh indices per place raised
    # `rank`'s peak RSS by 0.3 MB on the 50 x 50 benchmark presentation
    values, at = np.zeros(n_tok, dtype=np.int64), np.empty(n_tok, dtype=np.intp)
    for place in reversed(range(min(longest, _SAFE_DIGITS))):
        values *= 10
        values += digit_at[np.maximum(np.subtract(ends, place, out=at), low, out=at)]
    if signed:
        np.negative(values, out=values, where=minus)
    for t in long_tokens:
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
    return values[: n_rows * width].reshape(n_rows, width), lines[:n_rows], error
