"""The .rank readers, loaded only by the commands that read a .rank.

`from_slabs` reads the exact layout that `RankInvariant.text_slabs`
writes, from its bytes and without tokenizing; `from_blocks` reads any
valid .rank text and names the first bad line of any other.  Both fill
the rank invariant's vector on the comparable pairs (`grid_module`)
directly.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from .grid_module import (
    DP_GRID_CAP,
    GridTooLargeError,
    PairTable,
    RankInvariant,
    check_table_grid,
    iter_points,
    pair_count,
    pair_index,
    rank_header,
    rank_labels,
    slab_points,
    slab_runs,
    table_dtype,
)
from .ioutil import _SAFE_DIGITS, FormatError, InvariantError, block_rows

_RANK_HEADER = re.compile(rb"# rank invariant on grid ([1-9][0-9]*) x ([1-9][0-9]*) \(1-based coordinates\)\n")
_RANK_LINE_MOST = 2 * len("60 60 ") + _SAFE_DIGITS + 1  # `from_slabs` reads ranks of up to 18 digits


def from_slabs(chunks) -> Optional[RankInvariant]:
    """Read a .rank file in the layout `text_slabs` writes, given as an
    iterable of byte chunks cut anywhere; None at the first byte that
    departs from that layout.  It accepts exactly the bytes that
    `text_slabs` writes for the invariant it returns, up to ranks of 18
    digits, and reads them without tokenizing: any other file, valid or
    not, is left to `from_blocks`.

    The header's grid, 1 x 1 to 60 x 60, fixes every line but its rank:
    `slab_runs` cuts each s_x slab into the runs of lines the writer
    makes, and `slab_points` gives each run's pairs and labels in the
    writer's order, which is the order of the run's range in the
    vector.  For each run the reader cuts the chunks at the run's last
    LF and finds its LFs in one pass; the lines follow each other, so
    each line starts after the LF before it.  The two labels of each
    line are compared as masked little-endian 8-byte words, gathered at
    the line starts and after the first label from one byte-strided
    `uint64` view of the run.  What is left of a line, before its LF,
    is its rank: 1 to 18 digits, with no leading zero unless the rank is
    0.  The file must end at the last LF.  The ranks of a run are
    written to its range in one copy.  The entry type is `from_blocks`':
    int16, widened to int32 or int64 when a rank passes the current
    type (`table_dtype`).  Beside the vector only one run's bytes and
    its per-line arrays are held.
    """
    chunks = iter(chunks)
    rest, rest_ends = b"", np.zeros(0, dtype=np.int64)

    def lines(n: int, most: int):
        """The next n lines of the file, as (a uint8 array that starts
        with them and ends in 16 zero bytes, since a word may read past
        the last line, and the positions of their LFs), or None when the
        file ends first or they are longer than `most`.  Each chunk's
        LFs are found once, as it comes in."""
        nonlocal rest, rest_ends
        parts, ends, size = [rest], [rest_ends], len(rest)
        have = rest_ends.size
        while have < n:
            chunk = None if size > most else next(chunks, None)
            if chunk is None:
                return None
            found = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
            found += size
            parts.append(chunk)
            ends.append(found)
            have += found.size
            size += len(chunk)
        data = np.frombuffer(b"".join([*parts, bytes(16)]), dtype=np.uint8)
        ends = np.concatenate(ends)
        cut = int(ends[n - 1]) + 1
        rest, rest_ends = data[cut:-16].tobytes(), ends[n:] - cut
        return (data, ends[:n]) if cut <= most else None

    got = lines(1, len(rank_header(DP_GRID_CAP, DP_GRID_CAP)))
    grid = got and _RANK_HEADER.fullmatch(got[0][: got[1][0] + 1].tobytes())
    if not grid or max(nx := int(grid[1]), ny := int(grid[2])) > DP_GRID_CAP:
        return None
    words, masks, sizes = rank_labels(nx, ny)
    inv = RankInvariant(nx, ny, np.empty(pair_count(nx, ny), dtype=table_dtype(0)))
    for x, lo, hi in slab_runs(nx, ny):
        s, t = slab_points(nx, ny, x, lo, hi)
        n = s.size
        got = lines(n, n * _RANK_LINE_MOST)
        if got is None:
            return None
        data, ends = got
        word = np.ndarray((data.size - 7,), "<u8", data, strides=(1,))  # word[i]: bytes i .. i + 7
        start = np.empty_like(ends)  # the line starts, then the ends of their labels
        start[0] = 0
        np.add(ends[:-1], 1, out=start[1:])
        for at in (s, t):
            if not np.array_equal(word[start] & masks[at], words[at]):
                return None
            start += sizes[at]
        digits = ends - start
        if digits.min() < 1 or digits.max() > _SAFE_DIGITS or np.any((data[start] == 48) & (digits > 1)):
            return None  # an empty or long rank, or a leading zero
        value = np.subtract(data[: ends[-1]], 48)
        is_digit = value < 10
        # beside the checked labels, only the 4 spaces of each line
        # and the LFs between the lines are not digits
        if ends[-1] - np.count_nonzero(is_digit) != 5 * n - 1:
            return None
        value *= is_digit  # the digits' values, 0 at the space before each rank
        start -= 1
        ranks = value[ends - 1].astype(np.int64)
        for place in range(1, int(digits.max())):
            ranks += value[np.maximum(ends - 1 - place, start)] * np.int64(10**place)
        dtype = np.promote_types(inv.values.dtype, table_dtype(int(ranks.max())))
        if dtype != inv.values.dtype:
            inv.values = inv.values.astype(dtype)
        inv.rows(x, lo, hi)[:] = ranks
    if rest or any(chunks):
        return None  # the file goes on past its last pair
    return inv


def from_blocks(blocks) -> RankInvariant:
    """Read a .rank file given as runs of whole lines; a FormatError
    names the first bad line.

    `blocks()` returns a fresh iterable of (number of the run's first
    line, run), as `ioutil.line_blocks` yields them; it is called once,
    and once more only to name the lines of a repeated pair.

    A line is bad when it is malformed, when its pair is not comparable
    or not 1-based, when its rank is negative, when it lies past the
    grid cap, or when its pair repeats an earlier line.

    Each run's good rows are scattered straight into the vector of
    ranks and into a bitmap of one bool per comparable pair, marking the
    pairs they hit.  Both are laid out for the extents read so far and
    regrown, each block r(s, .) copied into the new layout, only when a
    later run names a larger t; the writer's files name their largest t
    in the first lines, so they are allocated once.  The vector starts
    with int16 entries and is regrown the same way, to int32 or int64
    (`table_dtype`), when a run holds a rank past the current type, so
    every rank is kept exactly.  Beside them only one run's text and
    rows are held.  A pair repeats exactly when fewer pairs are hit than
    rows were read.
    """
    inv = RankInvariant(0, 0, np.zeros(0, dtype=table_dtype(0)))
    seen = PairTable(0, 0, np.zeros(0, dtype=bool))
    n_rows = 0
    error = None
    for rows, _, error in _rank_rows(blocks()):
        nx = max(inv.nx, int(rows[:, 2].max(initial=0)))
        ny = max(inv.ny, int(rows[:, 3].max(initial=0)))
        dtype = np.promote_types(inv.values.dtype, table_dtype(int(rows[:, 4].max(initial=0))))
        if (nx, ny) != (inv.nx, inv.ny) or dtype != inv.values.dtype:  # a good row's t is within the grid cap
            inv = _regrown(inv, nx, ny, dtype)
        if (nx, ny) != (seen.nx, seen.ny):
            seen = _regrown(seen, nx, ny, bool)
        at = _indices(rows, nx, ny)
        seen.values[at] = True
        inv.values[at] = rows[:, 4]
        n_rows += len(rows)
    if np.count_nonzero(seen.values) < n_rows:
        nx, ny = inv.nx, inv.ny
        del inv, seen  # naming the lines needs neither
        raise _repeated_pair(blocks(), nx, ny)
    if error is not None:
        raise error
    return inv


_RANK_FIELDS = "s_x s_y t_x t_y r"


def _rank_rows(blocks):
    """Parse .rank runs of whole lines; yields (rows, lines, error) per
    run: the run's good rows and their line numbers, up to the first
    bad line of the file, and a FormatError naming that line (None
    before its run, which is the last one read).  Each run is parsed
    afresh by `ioutil.block_rows`, so nothing is carried between runs."""
    for first_line, block in blocks:
        rows, lines, error = block_rows(block, _RANK_FIELDS, first_line)
        n_ok, bad = _first_bad_rank_row(rows, lines)
        if bad is not None:  # a bad row comes before the run's malformed line
            error = bad
        yield rows[:n_ok], lines[:n_ok], error
        if error is not None:
            return


def _first_bad_rank_row(rows, lines):
    """(n, error): the number of .rank rows before the first one with a
    bad pair, rank or extent, and a FormatError naming that row's line
    (None when every row is good)."""
    sx, sy, tx, ty, r = rows.T
    bad = (sx < 1) | (sy < 1) | (sx > tx) | (sy > ty) | (r < 0)
    bad |= (tx > DP_GRID_CAP) | (ty > DP_GRID_CAP)
    if not bad.any():
        return len(rows), None
    n = int(np.argmax(bad))
    where = f"line {lines[n]}"
    a, b, c, d, value = rows[n].tolist()
    if not (1 <= a <= c and 1 <= b <= d):
        return n, FormatError(f"{where}: pair not comparable or not 1-based")
    if value < 0:
        return n, FormatError(f"{where}: negative rank")
    try:
        check_table_grid(c, d)
    except GridTooLargeError as e:
        return n, FormatError(f"{where}: {e}")
    raise InvariantError(f"{where}: row {rows[n].tolist()} flagged bad without a cause")


def _regrown(table: PairTable, nx: int, ny: int, dtype) -> PairTable:
    """A zero table of `table`'s type and of `dtype` on the nx x ny grid,
    with `table`'s entries copied in block by block, so every pair of
    the old grid keeps its entry."""
    out = type(table)(nx, ny, np.zeros(pair_count(nx, ny), dtype=dtype))
    for sx, sy in iter_points(table.nx, table.ny):
        out.block((sx, sy))[: table.nx - sx, : table.ny - sy] = table.block((sx, sy))
    return out


def _indices(rows, nx: int, ny: int):
    """The indices of the pairs of good .rank rows in the layout of the
    nx x ny grid."""
    return pair_index(nx, ny, (rows[:, 0] - 1, rows[:, 1] - 1), (rows[:, 2] - 1, rows[:, 3] - 1))


def _repeated_pair(blocks, nx: int, ny: int) -> FormatError:
    """The FormatError of the first .rank line whose pair repeats an
    earlier line's, for a file on an nx x ny grid whose good rows are
    known to repeat one; reads the file again, keeping the first line
    of each pair."""
    first = np.zeros(pair_count(nx, ny), dtype=np.int64)  # 0: no line yet
    for rows, lines, _ in _rank_rows(blocks):
        at = _indices(rows, nx, ny)
        _, once, back = np.unique(at, return_index=True, return_inverse=True)
        # the first line of each row's pair, in an earlier run or in this one
        earlier = np.where(first[at] > 0, first[at], lines[once][back])
        again = np.flatnonzero(earlier < lines)
        if again.size:
            i = int(again[0])
            return FormatError(f"line {lines[i]}: pair repeats line {earlier[i]}")
        first[at[once]] = lines[once]
    raise InvariantError("no .rank pair repeats")
