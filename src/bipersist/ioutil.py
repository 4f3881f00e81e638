"""Shared bits: the text file formats (UTF-8, LF, '#' comments) and the
package's exception classes."""

from __future__ import annotations


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


def parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: expected integer {what}, got {tok!r}") from None
