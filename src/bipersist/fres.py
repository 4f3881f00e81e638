"""The .fres format of free resolutions (`write_fres`, `read_fres`),
loaded only by the commands that read a .fres.

`.fres` files follow the field rule of every format (`ioutil.BLANKS`):
fields are separated by spaces, tabs and CRs, and every integer is an
optional sign and ASCII digits within int64.  Any other character,
other Unicode whitespace included, belongs to a field.
The reader holds the matrices it returns, as columns, the scratch of the
one it reads, and one run of lines with its rows at a time; nothing
else is kept from run to run.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .ioutil import _BLOCK_CHARS, BLANKS, FormatError, block_rows, check_bytes, check_modulus, fields, line_blocks
from .ioutil import parse_int
from .linalg import ColumnReducer, column_bytes
from .resolution import FreeModule, FreeResolution, GradedMatrix


def write_fres(res: FreeResolution) -> str:
    out = ["resolution", f"field {res.p}", f"grid {res.nx} {res.ny}"]
    for name, fm in (("gens", res.gens), ("rels", res.rels), ("relrels", res.relrels)):
        out.append(name)
        for g in fm.grades:
            out.append(f"{g[0] + 1} {g[1] + 1}")
    for name, gm in (("phi", res.phi), ("psi", res.psi)):
        out.append(name)
        entries = ColumnReducer.dense(gm.columns, len(gm.target), gm.p)  # the triplets go in row-major order
        for i, j in zip(*np.nonzero(entries)):
            out.append(f"{i + 1} {j + 1} {int(entries[i, j])}")
    return "\n".join(out) + "\n"


# a logical line (one with a field once its comment is cut), and a line
# whose first field is a section name (group 2: the rest, up to the comment)
_LINE = re.compile(rf"^[{BLANKS}]*([^{BLANKS}\n#][^\n#]*)", re.M)
_SECTION = re.compile(rf"^[{BLANKS}]*(gens|rels|relrels|phi|psi)(?=[{BLANKS}#]|$)([^\n#]*)", re.M)
_SECTIONS = ("gens", "rels", "relrels", "phi", "psi")


def read_fres(text: str) -> FreeResolution:
    """Read a .fres text; a FormatError names the first bad line.  The
    text is read as `read_fres_blocks` reads a file, one run of lines
    (`ioutil.line_blocks`) at a time."""
    return read_fres_blocks(lambda: line_blocks(text))


def read_fres_blocks(blocks) -> FreeResolution:
    """Read a .fres file given as runs of whole lines; a FormatError
    names the first bad line.

    `blocks()` returns a fresh iterable of (number of the run's first
    line, run), as `ioutil.line_blocks` and `ioutil.file_blocks` yield
    them; it is called once, and once more only to name the line of an
    entry that is not homogeneous.

    The header is the first four logical lines: `resolution`,
    `field p`, `grid nx ny` and `gens`.  The section lines (`gens`,
    `rels`, `relrels`, `phi`, `psi`) are found by one scan of each run,
    and the lines between them are parsed by `ioutil.block_rows`, whose
    rows are then checked as whole arrays: grades within the grid,
    triplet indices within the matrix.  A grade block ends at the next
    line that opens with a section name, a triplet block at the next
    `phi` or `psi` line, and the `psi` block must run to the end of the
    file.  Once the grade blocks are read, a file whose phi and psi
    would need more bytes than the cap is refused at its `phi` line
    (`ioutil.check_bytes`), before either is allocated.

    Each block of triplets is scattered into a scratch of its matrix,
    transposed, as the runs come, reduced mod p, the last triplet naming
    an entry setting it: at p = 2 one byte an entry, else int64.  Once
    the block is read, its first nonzero entry in row-major order whose
    row grade is not below its column grade is found on the scratch
    (`_first_inhomogeneous`), and the scratch becomes the matrix's
    columns in the form `ColumnReducer.add` takes: at p = 2 it is packed
    into bitsets and dropped, so phi is held as bitsets while psi is
    read; otherwise its rows are the int64 columns.  Once the whole file
    is read, such an entry of phi, and then of psi, fails the file at
    the line of the last triplet that names it, which a second read
    finds (`_last_line`).  So beside the matrices only one scratch and
    one run's text and rows are held, and no whole text, and a valid
    file is read once.  The cap is stated on what is allocated: both
    matrices' columns (`linalg.column_bytes`), and at p = 2 the
    larger scratch.
    """
    p, nx, ny, first, pieces = _fres_header(blocks())
    grades, modules, columns, scratch, inhomogeneous = [], [], [], None, []
    for k, rows, lines, error in _fres_rows(pieces, first):
        if rows is None:  # block k opens, at line `lines`
            if k == 3:
                grades = [np.concatenate(block) if block else np.zeros((0, 2), dtype=np.int64) for block in grades]
                modules = [FreeModule(block.tolist()) for block in grades]
                g, r, z = map(len, modules)
                need = column_bytes(g, r, p) + column_bytes(r, z, p) + (max(g * r, r * z) if p == 2 else 0)
                check_bytes(need, "phi and psi", lines)
            if k < 3:
                grades.append([])
            else:
                if scratch is not None:  # phi's block is read
                    inhomogeneous.append(_first_inhomogeneous(scratch.T, grades[0], grades[1]))
                    columns.append(_columns(scratch, p))
                scratch = None  # before the next one is allocated
                scratch = np.zeros((len(modules[k - 2]), len(modules[k - 3])), dtype=np.uint8 if p == 2 else np.int64)
        elif k < 3:
            outside = ((rows < 1) | (rows > (nx, ny))).any(axis=1)
            _first_bad(rows, lines, outside, lambda x, y: f"grade ({x},{y}) outside the grid")
            grades[k].append(rows - 1)
        else:
            _scatter(scratch.T, rows, lines, p)
        del rows, lines  # freed before the next run is parsed
        if error is not None:
            raise error
    inhomogeneous.append(_first_inhomogeneous(scratch.T, grades[1], grades[2]))
    columns.append(_columns(scratch, p))
    del scratch
    for k, entry in enumerate(inhomogeneous):
        if entry is not None:
            _raise_inhomogeneous(entry, grades[k], grades[k + 1], blocks, k + 3)
    gens, rels, relrels = modules
    phi = GradedMatrix(gens, rels, columns[0], p)
    psi = GradedMatrix(rels, relrels, columns[1], p)
    return FreeResolution(gens, rels, relrels, phi, psi, nx, ny, p)


def _columns(scratch, p: int) -> list:
    """The columns of the matrix whose transposed scratch is `scratch`, in
    the form `ColumnReducer.add` takes: at p = 2 the parity bytes packed
    into bitsets, otherwise the scratch's rows."""
    return ColumnReducer.columns(scratch.T, 2) if p == 2 else list(scratch)


def _scatter(entries, rows, lines, p: int) -> None:
    """Set the entries that a run's triplets `rows` name to their values
    mod p, the last triplet of an entry setting it; its index arrays are
    freed when it returns, before the next run is parsed."""
    n_rows, n_cols = entries.shape
    i, j = rows[:, 0] - 1, rows[:, 1] - 1
    bad = (i < 0) | (i >= n_rows) | (j < 0) | (j >= n_cols)
    _first_bad(rows, lines, bad, lambda i, j, v: f"index ({i},{j}) outside {n_rows}x{n_cols}")
    flat = i * n_cols + j
    # the last triplet of each entry in the run, first in the reversed run
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    entries[i[last], j[last]] = rows[last, 2] % p


def _first_inhomogeneous(entries, row_grades, col_grades):
    """The first nonzero entry (i, j) of `entries` in row-major order whose
    row grade is not below its column grade, or None.  It is read off the
    nonzeros of bands of rows of about `ioutil._BLOCK_CHARS` / 16
    entries, so one band's work is held (bands of `_BLOCK_CHARS` entries
    raised the peak RSS of `rank` on the 50 x 50 benchmark presentation
    by 1.3 MB)."""
    band = max(1, _BLOCK_CHARS // 16 // max(1, entries.shape[1]))
    (rx, ry), (cx, cy) = row_grades.T, col_grades.T
    for a in range(0, len(entries), band):
        i, j = np.nonzero(entries[a : a + band])
        i += a
        bad = np.flatnonzero((rx[i] > cx[j]) | (ry[i] > cy[j]))
        if bad.size:
            return int(i[bad[0]]), int(j[bad[0]])
    return None


def _raise_inhomogeneous(entry, row_grades, col_grades, blocks, k: int) -> None:
    """Raise the FormatError of the entry (i, j) of the matrix of block
    `_SECTIONS[k]` that `_first_inhomogeneous` found, at the line
    `_last_line` finds."""
    (i, j), (rx, ry), (cx, cy) = entry, row_grades.T, col_grades.T
    raise FormatError(
        f"line {_last_line(blocks(), k, i, j)}: {_SECTIONS[k]} not homogeneous: entry ({i + 1},{j + 1}) nonzero "
        f"but row grade ({rx[i] + 1}, {ry[i] + 1}) is not below column grade ({cx[j] + 1}, {cy[j] + 1})"
    )


def _last_line(blocks, k: int, i: int, j: int) -> int:
    """The line of the last triplet of the block of `_SECTIONS[k]` that
    names entry (i, j), 0-based, read again off the runs `blocks` of a
    file that has been read without error."""
    *_, first, pieces = _fres_header(blocks)
    hits = [
        lines[(rows[:, 0] == i + 1) & (rows[:, 1] == j + 1)]
        for section, rows, lines, _ in _fres_rows(pieces, first)
        if section == k and rows is not None
    ]
    return int(np.concatenate(hits)[-1])


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
    for first_line, block in blocks:
        for m in _LINE.finditer(block):
            header.append((first_line + block.count("\n", 0, m.start()), fields(m[1])))
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
    return p, nx, ny, lineno, _pieces(itertools.chain([rest], blocks))


def _pieces(runs):
    """Cut runs of whole lines, given as (number of the first line, run),
    at their section lines: yields (number of the first line, text,
    match), where match is the `_SECTION` match of a section line and
    None for the lines between two of them."""
    for line, run in runs:
        at = 0  # a run with no section name, such as one of triplets, skips the scan
        for m in _SECTION.finditer(run) if any(name in run for name in ("gens", "rels", "phi", "psi")) else ():
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
    (k, None, line, None) as the block of `_SECTIONS[k]` opens at its
    section line `line`, and then (k, rows, lines, error) per run of its
    lines: their good rows and line numbers, up to the first malformed
    line, and a FormatError naming that line (None before it); each run
    is parsed afresh by `ioutil.block_rows`, so nothing is carried
    between runs.  A section line out of place, and a file that ends
    before the `psi` block, raise the FormatError that names it, once
    the rows before it are yielded.
    """
    k, last = 0, first  # the open block, and its last row's line or its section line
    yield k, None, first, None
    for line, text, m in pieces:
        if m is not None and m[1] in _SECTIONS[3 if k >= 3 else 0 :]:
            if k == 4:
                raise FormatError(f"line {line}: expected the end of the file after the 'psi' block")
            if (m[1], m[2].strip(BLANKS)) != (_SECTIONS[k + 1], ""):
                raise FormatError(f"line {line}: expected '{_SECTIONS[k + 1]}'")
            k, last = k + 1, line
            yield k, None, line, None
            continue
        rows, lines, error = block_rows(text, "g_x g_y" if k < 3 else "row col value", line)
        if len(lines):
            last = int(lines[-1])
        yield k, rows, lines, error
        del rows, lines  # before the next run is parsed
        if error is not None:
            return
    if k < 4:
        raise FormatError(f"line {last}: missing '{_SECTIONS[k + 1]}' section")
