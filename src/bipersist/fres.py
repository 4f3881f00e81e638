"""The .fres format of free resolutions (`write_fres`, `read_fres`),
loaded only by the commands that read a .fres.

`.fres` files share the `.rank` field rule (`ioutil.block_rows`): fields
are separated by spaces or tabs, a CR reads as a space, and every
integer is an optional sign and ASCII digits within int64.  Any other
character, other Unicode whitespace included, belongs to a field.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .ioutil import FormatError, Scratch, block_rows, line_blocks, parse_int, row_capacity
from .linalg import check_modulus
from .resolution import FreeModule, FreeResolution, GradedMatrix


def write_fres(res: FreeResolution) -> str:
    out = ["resolution", f"field {res.p}", f"grid {res.nx} {res.ny}"]
    for name, fm in (("gens", res.gens), ("rels", res.rels), ("relrels", res.relrels)):
        out.append(name)
        for g in fm.grades:
            out.append(f"{g[0] + 1} {g[1] + 1}")
    for name, gm in (("phi", res.phi), ("psi", res.psi)):
        out.append(name)
        for i, j in zip(*np.nonzero(gm.entries)):
            out.append(f"{i + 1} {j + 1} {int(gm.entries[i, j])}")
    return "\n".join(out) + "\n"


# a logical line (one with a field once its comment is cut), and a line
# whose first field is a section name (group 2: the rest, up to the comment)
_LINE = re.compile(r"^[ \t\r]*([^ \t\r\n#][^\n#]*)", re.M)
_SECTION = re.compile(r"^[ \t\r]*(gens|rels|relrels|phi|psi)(?=[ \t\r#]|$)([^\n#]*)", re.M)
_BLANKS = re.compile(r"[ \t\r]+")
_SECTIONS = ("gens", "rels", "relrels", "phi", "psi")


def read_fres(text: str) -> FreeResolution:
    """Read a .fres text; a FormatError names the first bad line.  The
    text is read as `read_fres_blocks` reads a file, one run of lines
    (`ioutil.line_blocks`) at a time."""
    return read_fres_blocks(line_blocks(text))


def read_fres_blocks(blocks) -> FreeResolution:
    """Read a .fres file given as runs of whole lines, as
    `ioutil.line_blocks` and `ioutil.file_blocks` yield them; a
    FormatError names the first bad line.

    The header is the first four logical lines: `resolution`,
    `field p`, `grid nx ny` and `gens`.  The section lines (`gens`,
    `rels`, `relrels`, `phi`, `psi`) are found by one scan of each run,
    and the lines between them are parsed by `ioutil.block_rows`, whose
    rows are then checked as whole arrays: grades within the grid,
    triplet indices within the matrix.  A grade block ends at the next
    line that opens with a section name, a triplet block at the next
    `phi` or `psi` line, and the `psi` block must run to the end of the
    file.

    Each run's triplets are scattered into phi or psi as they come, the
    last triplet naming an entry setting it, and both matrices are
    reduced mod p in place once the file is read.  Homogeneity is checked
    on the triplets: the entry and line of each one that puts a value
    nonzero mod p where the row grade is not below the column grade are
    kept (none in a valid file), and the first such entry in row-major
    order that is still nonzero at the end fails the file, at the line
    of the last triplet that set it.  So beside the two matrices only
    one run's text and rows are held, and no whole text.
    """
    p, nx, ny, first, pieces = _fres_header(blocks)
    grades, modules, matrices, flagged = [], [], [], []
    for k, rows, lines, error in _fres_rows(pieces, first):
        if rows is None:  # block k opens
            if k == 3:
                grades = [np.concatenate(block) if block else np.zeros((0, 2), dtype=np.int64) for block in grades]
                modules = [FreeModule(block.tolist()) for block in grades]
            if k < 3:
                grades.append([])
            else:
                matrices.append(np.zeros((len(modules[k - 3]), len(modules[k - 2])), dtype=np.int64))
                flagged.append([])
        elif k < 3:
            x, y = rows.T
            bad = (x < 1) | (x > nx) | (y < 1) | (y > ny)
            _first_bad(rows, lines, bad, lambda x, y: f"grade ({x},{y}) outside the grid")
            grades[k].append(rows - 1)
        else:
            entries = matrices[k - 3]
            n_rows, n_cols = entries.shape
            i, j = rows[:, 0] - 1, rows[:, 1] - 1
            bad = (i < 0) | (i >= n_rows) | (j < 0) | (j >= n_cols)
            _first_bad(rows, lines, bad, lambda i, j, v: f"index ({i},{j}) outside {n_rows}x{n_cols}")
            flat = i * n_cols + j
            # the last triplet of each entry in the run, first in the reversed run
            last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
            entries.reshape(-1)[flat[last]] = rows[last, 2]
            inhomogeneous = (grades[k - 3][i] > grades[k - 2][j]).any(axis=1)
            inhomogeneous &= rows[:, 2] % p != 0
            if inhomogeneous.any():
                flagged[k - 3].append((flat[inhomogeneous], lines[inhomogeneous]))
        if error is not None:
            raise error

    gens, rels, relrels = modules
    for entries in matrices:  # the reader's own arrays: reduced where they are
        np.remainder(entries, p, out=entries)
    phi = GradedMatrix(gens, rels, matrices[0], p)
    psi = GradedMatrix(rels, relrels, matrices[1], p)
    for name, gm, marks in (("phi", phi, flagged[0]), ("psi", psi, flagged[1])):
        if not marks:
            continue
        flat = np.concatenate([f for f, _ in marks])
        setter = np.concatenate([line for _, line in marks])
        entry, last = np.unique(flat[::-1], return_index=True)  # the last mark of each entry
        alive = np.flatnonzero(gm.entries.reshape(-1)[entry] != 0)
        if alive.size:
            i, j = divmod(int(entry[alive[0]]), len(gm.source))
            (rx, ry), (cx, cy) = gm.target.grades[i], gm.source.grades[j]
            raise FormatError(
                f"line {setter[::-1][last[alive[0]]]}: {name} not homogeneous: entry ({i + 1},{j + 1}) nonzero but "
                f"row grade ({rx + 1}, {ry + 1}) is not below column grade ({cx + 1}, {cy + 1})"
            )
    return FreeResolution(gens, rels, relrels, phi, psi, nx, ny, p)


def _first_bad(rows, lines, bad, why) -> None:
    """Raise the FormatError of the first row flagged `bad`, at its line."""
    if bad.any():
        n = int(np.argmax(bad))
        raise FormatError(f"line {lines[n]}: " + why(*rows[n].tolist()))


def _fres_header(blocks):
    """Read the header, the first four logical lines, off the runs
    `blocks`: (p, nx, ny, number of the `gens` line, the `_pieces` of
    the lines after it)."""
    blocks = iter(blocks)
    header, rest = [], None
    for first_line, block, _ in blocks:
        for m in _LINE.finditer(block):
            header.append((first_line + block.count("\n", 0, m.start()), _BLANKS.split(m[1].strip(" \t\r"))))
            if len(header) == 4:
                eol = block.find("\n", m.end())
                rest = (header[-1][0] + 1, block[eol + 1 :] if eol >= 0 else "")
                break
        if rest is not None:
            break
    if not header or header[0][1] != ["resolution"]:
        raise FormatError(f"line {header[0][0] if header else 1}: expected 'resolution' header")

    def take(at, prefix, parts):
        if at >= len(header):
            raise FormatError(f"line {header[-1][0]}: missing '{prefix}' section")
        lineno, toks = header[at]
        if toks[0] != prefix or len(toks) != parts + 1:
            raise FormatError(f"line {lineno}: expected '{prefix}'" + " with arguments" * bool(parts))
        return lineno, toks[1:]

    lineno, toks = take(1, "field", 1)
    p = parse_int(toks[0], lineno, "modulus")
    try:
        check_modulus(p)
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None
    lineno, toks = take(2, "grid", 2)
    nx, ny = (parse_int(v, lineno, "extent") for v in toks)
    if nx < 1 or ny < 1:
        raise FormatError(f"line {lineno}: grid extents must be positive")
    lineno, _ = take(3, "gens", 0)
    return p, nx, ny, lineno, _pieces(itertools.chain([rest], ((first, block) for first, block, _ in blocks)))


def _pieces(runs):
    """Cut runs of whole lines, given as (number of the first line, run),
    at their section lines: yields (number of the first line, text,
    match), where match is the `_SECTION` match of a section line and
    None for the lines between two of them."""
    for line, run in runs:
        at = 0
        for m in _SECTION.finditer(run):
            if m.start() > at:
                yield line, run[at : m.start()], None
                line += run.count("\n", at, m.start())
            eol = run.find("\n", m.end())
            end = len(run) if eol < 0 else eol + 1
            yield line, run[m.start() : end], m
            line, at = line + 1, end
        if at < len(run):
            yield line, run[at:], None


def _fres_rows(pieces, first: int):
    """Parse the `_pieces` after the `gens` line (line `first`): yields
    (k, None, None, None) as the block of `_SECTIONS[k]` opens, and then
    (k, rows, lines, error) per run of its lines: their good rows and
    line numbers, up to the first malformed line, and a FormatError
    naming that line (None before it).  The rows and lines are views
    into one `ioutil.Scratch`, good until the next run.  A section line
    out of place, and a file that ends before the `psi` block, raise
    the FormatError that names it, once the rows before it are yielded.
    """
    scratch = Scratch()
    k, last = 0, first  # the open block, and its last row's line or its section line
    yield k, None, None, None
    for line, text, m in pieces:
        if m is not None and m[1] in _SECTIONS[3 if k >= 3 else 0 :]:
            if k == 4:
                raise FormatError(f"line {line}: expected the end of the file after the 'psi' block")
            if (m[1], m[2].strip(" \t\r")) != (_SECTIONS[k + 1], ""):
                raise FormatError(f"line {line}: expected '{_SECTIONS[k + 1]}'")
            k, last = k + 1, line
            yield k, None, None, None
            continue
        fields = "g_x g_y" if k < 3 else "row col value"
        width = len(fields.split())
        cap = row_capacity(len(text), text.count("\n"), width)
        rows, lines = scratch.array("rows", width * cap).reshape(cap, width), scratch.array("lines", cap)
        got, error = block_rows(text, fields, line, rows, lines, scratch)
        yield k, rows[:got], lines[:got], error
        if got:
            last = int(lines[got - 1])
        if error is not None:
            return
    if k < 4:
        raise FormatError(f"line {last}: missing '{_SECTIONS[k + 1]}' section")
