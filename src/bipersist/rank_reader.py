"""The .rank readers, loaded only by the commands that read a .rank.

`from_slabs` reads the exact layout that `RankInvariant.text_slabs`
writes, from its bytes and without tokenizing, and accepts a run of
lines only when the writer's `run_bytes` renders it; `from_blocks` reads
any valid .rank text and names the first bad line of any other, and
`read_rank` tries the two in turn.  Both fill the rank invariant's
vector on the comparable pairs (`grid_module`) directly.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from .grid_module import (
    RANK_EXTENT_MAX,
    PairTable,
    RankInvariant,
    check_tables,
    iter_points,
    pair_count,
    pair_index,
    rank_header,
    rank_labels,
    run_bytes,
    slab_points,
    slab_runs,
    table_dtype,
)
from .ioutil import _SAFE_DIGITS, FormatError, InvariantError, block_rows

_RANK_GRID = re.compile(rb"# rank invariant on grid ([1-9][0-9]*) x ([1-9][0-9]*) ")  # then `rank_header`
_RANK_LINE_MOST = 2 * len("99 99 ") + _SAFE_DIGITS + 1  # `from_slabs` reads ranks of up to 18 digits


def _table_refusal(nx: int, ny: int, rank: int, line: Optional[int] = None):
    """`check_tables`' error for the rank table of the nx x ny grid that
    holds `rank` (naming `line` when given), or None when it fits."""
    try:
        check_tables(nx, ny, 1, rank, line)
    except ValueError as e:
        return e


def read_rank(chunks, read_blocks) -> RankInvariant:
    """A .rank file, from its bytes (an iterable of byte chunks) by
    `from_slabs` when they are the writer's, and otherwise by
    `read_blocks(from_blocks)`, which reads it from its start again."""
    inv = from_slabs(chunks)
    return inv if inv is not None else read_blocks(from_blocks)


def from_slabs(chunks) -> Optional[RankInvariant]:
    """Read a .rank file in the layout `text_slabs` writes, given as an
    iterable of byte chunks cut anywhere, without tokenizing; None at the
    first run of lines that departs from that layout, which leaves any
    other file, valid or not, to `from_blocks`.

    The header's grid, 1 x 1 to 99 x 99, fixes every line but its rank:
    `slab_runs` cuts each s_x slab into the runs of lines the writer
    makes, and `slab_points` gives each run's pairs in the writer's
    order, the order of the run's range in the vector.  For each run the
    reader cuts the chunks at the run's last LF and reads each line's
    rank as the 1 to 18 bytes between its two labels (`rank_labels`'
    lengths) and its LF.  It writes the ranks to the run's range and
    accepts the run only when `run_bytes` renders that range as exactly
    the run's bytes: so it accepts exactly the bytes that `text_slabs`
    writes for the invariant it returns, up to ranks of 18 digits.  The
    file must end at the last LF.  The entry type is `from_blocks`':
    int16, widened to int32 or int64 when a rank passes the current type
    (`table_dtype`).  A grid whose int64 table would pass the byte cap
    is left to `from_blocks`, which names the line that crosses it.
    Beside the vector only one run's bytes and its per-line arrays are
    held.
    """
    chunks = iter(chunks)
    rest, rest_ends = b"", np.zeros(0, dtype=np.int64)

    def lines(n: int, most: int):
        """The next n lines of the file, as (bytes that start with them,
        the positions of their LFs), or None when the file ends first or
        they are longer than `most`.  Each chunk's LFs are found once, as
        it comes in."""
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
        data, ends = b"".join(parts), np.concatenate(ends)
        cut = int(ends[n - 1]) + 1
        rest, rest_ends = data[cut:], ends[n:] - cut
        return (data, ends[:n]) if cut <= most else None

    def read_run(x: int, lo: int, hi: int) -> bool:
        """Read the run of the pairs with s_x = x, lo <= s_y < hi into
        `inv`; whether its bytes are the writer's.  Its arrays go with it."""
        s, t = slab_points(nx, ny, x, lo, hi)
        if (got := lines(s.size, s.size * _RANK_LINE_MOST)) is None:
            return False
        data, ends = got
        start = np.concatenate(([0], ends[:-1] + 1)) + sizes[s] + sizes[t]  # where each line's rank starts
        digits = ends - start
        if digits.min() < 1 or digits.max() > _SAFE_DIGITS:
            return False
        value = np.frombuffer(data, dtype=np.uint8, count=int(ends[-1])) - np.uint8(48)
        start -= 1
        value[start] = 0  # at the space before each rank, where its places end
        ranks = value[ends - 1].astype(np.int64)
        for place in range(1, int(digits.max())):
            ranks += value[np.maximum(ends - 1 - place, start)] * np.int64(10**place)
        if ranks.min() < 0:
            return False  # wrapped by bytes that are not digits: no rank renders so
        dtype = np.promote_types(inv.values.dtype, table_dtype(int(ranks.max())))
        if dtype != inv.values.dtype:
            inv.values = inv.values.astype(dtype)
        inv.rows(x, lo, hi)[:] = ranks
        del got, ends, start, digits, value, ranks  # the render needs only the run's bytes and points
        return data.startswith(run_bytes(inv.rows(x, lo, hi), s, t, labels))

    got = lines(1, len(rank_header(RANK_EXTENT_MAX, RANK_EXTENT_MAX)))
    head = got and got[0][: got[1][0] + 1]
    grid = head and _RANK_GRID.match(head)
    if not grid or head != rank_header(nx := int(grid[1]), ny := int(grid[2])):
        return None
    if max(nx, ny) > RANK_EXTENT_MAX or _table_refusal(nx, ny, 2**63 - 1):
        return None
    labels, sizes = rank_labels(nx, ny)
    inv = RankInvariant(nx, ny, np.empty(pair_count(nx, ny), dtype=table_dtype(0)))
    if not all(read_run(x, lo, hi) for x, lo, hi in slab_runs(nx, ny)) or rest or any(chunks):
        return None  # a run departs from the layout, or the file goes on past its last pair
    return inv


def from_blocks(blocks) -> RankInvariant:
    """Read a .rank file given as runs of whole lines; a FormatError
    names the first bad line.

    `blocks()` returns a fresh iterable of (number of the run's first
    line, run), as `ioutil.line_blocks` yields them; it is called once,
    and once more only to name the lines of a repeated pair.

    A line is bad when it is malformed, when its pair is not comparable
    or not 1-based, when its rank is negative, when the table of the
    rows up to it passes the byte cap, or when its pair repeats an
    earlier line.

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
    for rows, _, error, (nx, ny, top) in _rank_rows(blocks()):
        if (nx, ny, table_dtype(top)) != (inv.nx, inv.ny, inv.values.dtype):  # within the byte cap, as checked
            inv = _regrown(inv, nx, ny, table_dtype(top))
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
    """Parse .rank runs of whole lines; yields (rows, lines, error, grid)
    per run: the run's good rows and their line numbers, up to the first
    bad line of the file, a FormatError naming that line (None before
    its run, which is the last one read), and [nx, ny, largest rank] of
    the good rows so far, the only state carried between runs, for the
    byte rule.  Each run is parsed afresh by `ioutil.block_rows`."""
    grid = [0, 0, 0]
    for first_line, block in blocks:
        rows, lines, error = block_rows(block, _RANK_FIELDS, first_line)
        n_ok, bad, grid = _first_bad_rank_row(rows, lines, grid)
        if bad is not None:  # a bad row comes before the run's malformed line
            error = bad
        yield rows[:n_ok], lines[:n_ok], error, grid
        if error is not None:
            return


def _first_bad_rank_row(rows, lines, grid):
    """(n, error, grid): the number of .rank rows before the first with a
    bad pair or rank, or past which the table of [nx, ny, largest rank]
    passes the byte cap, a FormatError naming its line (None when every
    row is good), and the `grid` of the rows before it, given for those
    before the run.  The table only grows, so the rows are checked one
    by one only when the last good one's does not fit."""
    sx, sy, tx, ty, r = rows.T
    pair = (sx < 1) | (sy < 1) | (sx > tx) | (sy > ty)
    bad = pair | (r < 0)
    n = int(np.argmax(bad)) if bad.any() else len(rows)
    after = np.maximum.accumulate(np.vstack((grid, rows[:n, 2:])))  # [t_x, t_y, r] maxima after each row
    if _table_refusal(*after[-1].tolist()):
        n = next(i for i, row in enumerate(after[1:].tolist()) if _table_refusal(*row))
        return n, _table_refusal(*after[n + 1].tolist(), int(lines[n])), after[n].tolist()
    why = n < len(rows) and ("pair not comparable or not 1-based" if pair[n] else "negative rank")
    return n, FormatError(f"line {lines[n]}: {why}") if why else None, after[-1].tolist()


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
    for rows, lines, *_ in _rank_rows(blocks):
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
