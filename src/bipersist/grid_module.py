"""Persistence modules over a finite grid, given by explicit matrices.

A module assigns a vector space over F_p to every point of the grid
[0,nx) x [0,ny) and a matrix to every unit edge; commutativity of the
unit squares is the validation contract.  The rank invariant and
dualization live here, together with the .rank file format; the .gmod
format is in `gmod`, and the square-local invariants of the explicit
exactness checkers are in `squares`.

Grid points are 0-based (x, y) tuples in code; the file formats use
1-based coordinates.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .ioutil import (
    FormatError,
    InvariantError,
    Scratch,
    block_rows,
    line_blocks,
    row_capacity,
)
from .linalg import check_modulus, matmul, rank

# The rank invariant and the kappa/iota tables are dense 4-D tables of
# nx*ny*nx*ny entries, 4 bytes each (`table_dtype`); past this extent
# one table alone would outgrow desk-scale memory.
DP_GRID_CAP = 60

INT32_MAX = 2**31 - 1


class GridTooLargeError(ValueError):
    """A grid past DP_GRID_CAP, where the dense 4-D tables are refused."""


def check_table_grid(nx: int, ny: int, tables: int = 1) -> None:
    """Refuse to allocate `tables` dense 4-D tables on a grid past the cap."""
    if max(nx, ny) > DP_GRID_CAP:
        need = tables * 4 * (nx * ny) ** 2
        raise GridTooLargeError(
            f"grid {nx}x{ny} exceeds the {DP_GRID_CAP}x{DP_GRID_CAP} cap of the "
            f"dense 4-D tables ({tables} table(s) of 4-byte entries would need {need:,} bytes)"
        )


def table_dtype(bound: int) -> type:
    """The entry type of a dense 4-D table whose entries lie in [0, bound]:
    int32 when `bound` fits in it, int64 otherwise.

    Every entry of the rank invariant and of the kappa/iota tables is a
    rank or a dimension, so its producer knows a bound: the generator
    count for the rank DP, the largest dimension of the module for the
    naive rank and for kappa and iota.
    """
    return np.int32 if bound <= INT32_MAX else np.int64


def iter_points(nx: int, ny: int) -> Iterator[tuple[int, int]]:
    for x in range(nx):
        for y in range(ny):
            yield (x, y)


def comparable_mask(nx: int, ny: int) -> np.ndarray:
    """Boolean [sx, sy, tx, ty] table of the pairs s <= t."""
    sx = np.arange(nx)[:, None, None, None]
    sy = np.arange(ny)[None, :, None, None]
    tx = np.arange(nx)[None, None, :, None]
    ty = np.arange(ny)[None, None, None, :]
    return (sx <= tx) & (sy <= ty)


def slab_mask(nx: int, ny: int, sx: int) -> np.ndarray:
    """`comparable_mask(nx, ny)[sx]` without the whole mask: the
    boolean [sy, tx, ty] table of the pairs s <= t with s_x = sx."""
    sy = np.arange(ny)[:, None, None]
    tx = np.arange(nx)[None, :, None]
    ty = np.arange(ny)[None, None, :]
    return (sx <= tx) & (sy <= ty)


class GridModule:
    """Explicit grid persistence module over F_p.

    dims[x, y] is the dimension at (x, y); hmaps[(x, y)] is the matrix
    of (x,y) -> (x+1,y) with shape (dims[x+1,y], dims[x,y]); vmaps the
    vertical analogue.  Missing edges are filled with zero matrices of
    the correct shape at construction time.
    """

    def __init__(self, nx: int, ny: int, p: int, dims, hmaps=None, vmaps=None):
        if nx < 1 or ny < 1:
            raise ValueError("grid extents must be at least 1x1")
        self.nx = int(nx)
        self.ny = int(ny)
        self.p = check_modulus(p)
        self.dims = np.array(dims, dtype=np.int64).reshape(self.nx, self.ny)
        if np.any(self.dims < 0):
            raise ValueError("negative dimension")
        self.hmaps = {}
        self.vmaps = {}
        hmaps = hmaps or {}
        vmaps = vmaps or {}
        for x in range(self.nx - 1):
            for y in range(self.ny):
                self.hmaps[(x, y)] = self._edge(hmaps.get((x, y)), (x + 1, y), (x, y))
        for x in range(self.nx):
            for y in range(self.ny - 1):
                self.vmaps[(x, y)] = self._edge(vmaps.get((x, y)), (x, y + 1), (x, y))

    def _edge(self, m, tgt, src) -> np.ndarray:
        shape = (int(self.dims[tgt]), int(self.dims[src]))
        if m is None:
            return np.zeros(shape, dtype=np.int64)
        m = np.mod(np.array(m, dtype=np.int64).reshape(shape), self.p)
        return m

    def dim_at(self, t) -> int:
        return int(self.dims[t[0], t[1]])

    def points(self) -> Iterator[tuple[int, int]]:
        return iter_points(self.nx, self.ny)

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of violations; empty means the module is valid."""
        bad = []
        for (x, y), m in list(self.hmaps.items()) + list(self.vmaps.items()):
            if np.any(m < 0) or np.any(m >= self.p):
                bad.append(f"edge at ({x},{y}): entries not reduced mod {self.p}")
        for x in range(self.nx - 1):
            for y in range(self.ny - 1):
                up_right = matmul(self.vmaps[(x + 1, y)], self.hmaps[(x, y)], self.p)
                right_up = matmul(self.hmaps[(x, y + 1)], self.vmaps[(x, y)], self.p)
                if not np.array_equal(up_right, right_up):
                    bad.append(f"square at ({x},{y}) does not commute")
        return bad

    # -- constructions -------------------------------------------------

    @classmethod
    def zero(cls, nx: int, ny: int, p: int) -> "GridModule":
        return cls(nx, ny, p, np.zeros((nx, ny), dtype=np.int64))

    @classmethod
    def indicator(cls, nx: int, ny: int, support, p: int) -> "GridModule":
        """k at each point of `support`, identity maps inside the support.

        Well-defined (commutative) only when the support is convex in
        the grid order; validate() will flag anything else.
        """
        support = {tuple(t) for t in support}
        dims = np.zeros((nx, ny), dtype=np.int64)
        for t in support:
            dims[t] = 1
        hmaps = {}
        vmaps = {}
        for x in range(nx - 1):
            for y in range(ny):
                if (x, y) in support and (x + 1, y) in support:
                    hmaps[(x, y)] = np.array([[1]], dtype=np.int64)
        for x in range(nx):
            for y in range(ny - 1):
                if (x, y) in support and (x, y + 1) in support:
                    vmaps[(x, y)] = np.array([[1]], dtype=np.int64)
        return cls(nx, ny, p, dims, hmaps, vmaps)

    @classmethod
    def rectangle(cls, nx: int, ny: int, rect, p: int) -> "GridModule":
        """Indicator module of the rectangle [sx,tx] x [sy,ty] (0-based)."""
        sx, sy, tx, ty = rect
        pts = [(x, y) for x in range(sx, tx + 1) for y in range(sy, ty + 1)]
        return cls.indicator(nx, ny, pts, p)

    def direct_sum(self, other: "GridModule") -> "GridModule":
        if (self.nx, self.ny, self.p) != (other.nx, other.ny, other.p):
            raise ValueError("direct sum needs matching grids and fields")
        dims = self.dims + other.dims
        hmaps, vmaps = {}, {}
        for key in self.hmaps:
            hmaps[key] = _block_diag(self.hmaps[key], other.hmaps[key])
        for key in self.vmaps:
            vmaps[key] = _block_diag(self.vmaps[key], other.vmaps[key])
        return GridModule(self.nx, self.ny, self.p, dims, hmaps, vmaps)

    def dualize(self) -> "GridModule":
        """Linear dual: grid reversed in both coordinates, matrices transposed."""
        nx, ny = self.nx, self.ny
        dims = self.dims[::-1, ::-1].copy()
        hmaps, vmaps = {}, {}
        for x in range(nx - 1):
            for y in range(ny):
                hmaps[(x, y)] = self.hmaps[(nx - 2 - x, ny - 1 - y)].T.copy()
        for x in range(nx):
            for y in range(ny - 1):
                vmaps[(x, y)] = self.vmaps[(nx - 1 - x, ny - 2 - y)].T.copy()
        return GridModule(nx, ny, self.p, dims, hmaps, vmaps)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


# -- rank invariant -----------------------------------------------------


@cache
def _digit_groups():
    """The ASCII of 0 .. 9999 as little-endian 4-byte words, so the first
    character is the low byte: zero-padded ("0042"), and without the
    leading zeros, left-aligned and NUL-padded ("42\\0\\0"; 0 is "0")."""
    v = np.arange(10000)
    chars = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1) + ord("0")
    zero_padded = chars.astype(np.uint8).view("<u4").ravel()
    leading_zeros = 3 - (v >= 10) - (v >= 100) - (v >= 1000)
    leading = zero_padded >> (8 * leading_zeros).astype(np.uint32)
    zero_padded.flags.writeable = leading.flags.writeable = False  # shared by every caller
    return zero_padded, leading


def _rank_header(nx: int, ny: int) -> bytes:
    return f"# rank invariant on grid {nx} x {ny} (1-based coordinates)\n".encode()


_RANK_HEADER = re.compile(rb"# rank invariant on grid ([1-9][0-9]*) x ([1-9][0-9]*) \(1-based coordinates\)\n")
_RANK_DIGITS_MOST = 18  # the longest rank `from_slabs` reads; every such rank fits in int64
_RANK_LINE_MOST = 2 * len("60 60 ") + _RANK_DIGITS_MOST + 1


def _labels(nx: int, ny: int):
    """The .rank labels "x y " of the grid's points (1-based), indexed
    x * ny + y: each as a NUL-padded little-endian 8-byte word, the mask
    of its bytes in that word, and its length."""
    text = [f"{x + 1} {y + 1} " for x in range(nx) for y in range(ny)]
    words = np.frombuffer("".join(label.ljust(8, "\0") for label in text).encode(), dtype="<u8")
    sizes = np.array([len(label) for label in text], dtype=np.int64)
    masks = (np.uint64(1) << (8 * sizes).astype(np.uint64)) - np.uint64(1)
    return words, masks, sizes


def _slab_lines(nx: int, ny: int, x: int):
    """The writer's .rank lines of the pairs with s_x = x, in the C order
    of the slab's comparable pairs: (m, at), with m the [s_y, t] mask of
    those pairs in the slab table[x] (t = t_x * ny + t_y), and at(c, "s")
    and at(c, "t") the entries of `c`, an array indexed like `_labels`,
    at each line's s and at each line's t."""
    m = slab_mask(nx, ny, x).reshape(ny, nx * ny)
    runs = (nx - x) * (ny - np.arange(ny))  # the lines of each s_y

    def at(c, side: str):
        return np.repeat(c[x * ny : (x + 1) * ny], runs) if side == "s" else np.broadcast_to(c, m.shape)[m]

    return m, at


class RankInvariant:
    """r(s, t) = rank of the structure map s -> t, for all s <= t.

    Stored as a dense 4-D table indexed [sx, sy, tx, ty]; entries at
    incomparable pairs are kept at 0 so equality is plain array equality,
    whatever the two tables' entry types.  The producers store int32
    entries when their bound allows (`table_dtype`): the rank DP, the
    naive rank, and the .rank reader, which widens to int64 only when it
    reads a rank past 2**31 - 1.  With no table given, the zero table is
    int64, since a caller may set any rank in it.
    """

    def __init__(self, nx: int, ny: int, table: Optional[np.ndarray] = None):
        self.nx = int(nx)
        self.ny = int(ny)
        if table is None:
            check_table_grid(self.nx, self.ny)
            table = np.zeros((self.nx, self.ny, self.nx, self.ny), dtype=table_dtype(np.iinfo(np.int64).max))
        self.table = table

    def get(self, s, t) -> int:
        """r(s, t); 0 when either endpoint falls outside the grid."""
        sx, sy = s
        tx, ty = t
        if sx < 0 or sy < 0 or tx >= self.nx or ty >= self.ny or tx < 0 or ty < 0 or sx >= self.nx or sy >= self.ny:
            return 0
        if sx > tx or sy > ty:
            raise ValueError(f"rank queried at incomparable pair {s} -> {t}")
        return int(self.table[sx, sy, tx, ty])

    def set(self, s, t, value: int) -> None:
        self.table[s[0], s[1], t[0], t[1]] = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RankInvariant)
            and (self.nx, self.ny) == (other.nx, other.ny)
            and bool(np.array_equal(self.table, other.table))
        )

    def to_text(self) -> str:
        """The .rank text: one line per comparable pair, in
        lexicographic order of (s, t); the join of `text_slabs`."""
        return b"".join(self.text_slabs()).decode("ascii")

    def text_slabs(self) -> Iterator[bytes]:
        """The .rank file as ASCII bytes: the header line, then one chunk
        per s_x slab, made as the iterator reaches it, so a writer that
        writes each as it comes holds one slab of text at a time.  The
        grid and the ranks are checked at the call, before any slab is
        made.

        A slab is one record per line, in the C order of the comparable
        mask: the NUL-padded labels "x y " of s and of t, gathered as one
        8-byte word each from a table of labels; the rank as 4-digit
        groups, each one 4-byte word from a table of the 10,000 groups
        (the leading group without its leading zeros, the groups above it
        NUL); and a newline.  One `bytes.translate` deletes the NULs.
        """
        nx, ny = self.nx, self.ny
        check_table_grid(nx, ny)  # below 100 a label "x y " fits in 8 bytes
        if self.table.min(initial=0) < 0:
            raise ValueError("rank invariant has a negative entry")
        labels = _labels(nx, ny)[0]
        return chain([_rank_header(nx, ny)], (self._slab_bytes(x, labels) for x in range(nx)))

    def _slab_bytes(self, x: int, labels) -> bytes:
        """The .rank lines of the pairs with s_x = x; see `text_slabs`."""
        m, at = _slab_lines(self.nx, self.ny, x)
        q = self.table[x].reshape(m.shape)[m]
        groups = -(-len(str(int(q.max()))) // 4)
        line = np.empty(q.size, dtype=[("s", "<u8"), ("t", "<u8"), ("r", "<u4", (groups,)), ("nl", np.uint8)])
        line["s"] = at(labels, "s")
        line["t"] = at(labels, "t")
        zero_padded, leading = _digit_groups()
        for k in range(groups):  # the group of the places 4k .. 4k + 3
            r = q // 10 ** (4 * k) % 10000 if groups > 1 else q
            word = line["r"][:, groups - 1 - k]
            word[:] = leading[r]
            if k < groups - 1:
                np.copyto(word, zero_padded[r], where=q >= 10 ** (4 * k + 4))
            if k:
                word *= q >= 10 ** (4 * k)
        line["nl"] = 10
        return line.tobytes().translate(None, b"\0")

    @classmethod
    def from_slabs(cls, chunks) -> Optional["RankInvariant"]:
        """Read a .rank file in the layout `text_slabs` writes, given as
        an iterable of byte chunks cut anywhere; None at the first byte
        that departs from that layout.  It accepts exactly the bytes that
        `text_slabs` writes for the table it returns, up to ranks of 18
        digits, and reads them without tokenizing: any other file, valid
        or not, is left to `from_blocks`.

        The header's grid, 1 x 1 to 60 x 60, fixes every line but its
        rank: `_slab_lines` gives each s_x slab's pairs and labels in the
        writer's order.  For each slab the reader cuts the chunks at the
        slab's last LF and finds its LFs in one pass; the lines follow
        each other, so each line starts after the LF before it.  The two
        labels of each line are compared as masked little-endian 8-byte
        words, gathered at the line starts and after the first label
        from one byte-strided `uint64` view of the slab.  What is left of
        a line, before its LF, is its rank: 1 to 18 digits, with no
        leading zero unless the rank is 0.  The file must end at the
        last LF.  The entry type is `from_blocks`': int32, widened to
        int64 when a rank passes 2**31 - 1.  Beside the table only one
        slab's bytes and its per-line arrays are held.
        """
        chunks = iter(chunks)
        rest, rest_ends = b"", np.zeros(0, dtype=np.int64)

        def lines(n: int, most: int):
            """The next n lines of the file, as (a uint8 array that starts
            with them and ends in 16 zero bytes, since a word may read
            past the last line, and the positions of their LFs), or None
            when the file ends first or they are longer than `most`.
            Each chunk's LFs are found once, as it comes in."""
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

        got = lines(1, len(_rank_header(DP_GRID_CAP, DP_GRID_CAP)))
        grid = got and _RANK_HEADER.fullmatch(got[0][: got[1][0] + 1].tobytes())
        if not grid or max(nx := int(grid[1]), ny := int(grid[2])) > DP_GRID_CAP:
            return None
        words, masks, sizes = _labels(nx, ny)
        table = np.zeros((nx, ny, nx, ny), dtype=table_dtype(0))
        for x in range(nx):
            m, at = _slab_lines(nx, ny, x)
            n = np.count_nonzero(m)
            got = lines(n, n * _RANK_LINE_MOST)
            if got is None:
                return None
            data, ends = got
            word = np.ndarray((data.size - 7,), "<u8", data, strides=(1,))  # word[i]: bytes i .. i + 7
            start = np.empty_like(ends)  # the line starts, then the ends of their labels
            start[0] = 0
            np.add(ends[:-1], 1, out=start[1:])
            for side in "st":
                if not np.array_equal(word[start] & at(masks, side), at(words, side)):
                    return None
                start += at(sizes, side)
            digits = ends - start
            if digits.min() < 1 or digits.max() > _RANK_DIGITS_MOST or np.any((data[start] == 48) & (digits > 1)):
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
            if ranks.max() > INT32_MAX:
                table = table.astype(np.int64, copy=False)
            table[x].reshape(m.shape)[m] = ranks
        if rest or any(chunks):
            return None  # the file goes on past its last pair
        return cls(nx, ny, table)

    @classmethod
    def from_text(cls, text: str) -> "RankInvariant":
        """Read a .rank text; a FormatError names the first bad line.
        Text in the writer's layout is read by `from_slabs`; any other
        text, and so every error, by `from_blocks`, which reads the
        text's `ioutil.line_blocks`."""
        inv = cls.from_slabs(block.encode("utf-8", "surrogatepass") for _, block, _ in line_blocks(text))
        return inv if inv is not None else cls.from_blocks(lambda: line_blocks(text))

    @classmethod
    def from_blocks(cls, blocks) -> "RankInvariant":
        """Read a .rank file given as runs of whole lines; a FormatError
        names the first bad line.

        `blocks()` returns a fresh iterable of (number of the run's first
        line, run, newlines in the run), as `ioutil.line_blocks` yields
        them; it is called once, and once more only to name the lines of
        a repeated pair.

        A line is bad when it is malformed, when its pair is not
        comparable or not 1-based, when its rank is negative, when it
        lies past the grid cap, or when its pair repeats an earlier line.

        Each run's good rows are scattered straight into the table and
        into a bitmap of one bool per cell, marking the cells they hit.
        Both are allocated at the extents read so far and regrown, the
        old copied into the new, only when a later run names a larger t;
        the writer's files name their largest t in the first lines, so
        they are allocated once.  The table starts with int32 entries and
        is regrown to int64 the same way when a run holds a rank past
        2**31 - 1, so every rank is kept exactly.  Beside them only one
        run's text and rows are held.  A pair repeats exactly when fewer
        cells are hit than rows were read.
        """
        table = np.zeros((0, 0, 0, 0), dtype=table_dtype(0))
        seen = np.zeros(table.shape, dtype=bool)
        n_rows = 0
        error = None
        for rows, _, error in _rank_rows(blocks()):
            nx = max(table.shape[0], int(rows[:, 2].max(initial=0)))
            ny = max(table.shape[1], int(rows[:, 3].max(initial=0)))
            dtype = np.promote_types(table.dtype, table_dtype(int(rows[:, 4].max(initial=0))))
            if (nx, ny) != table.shape[:2] or dtype != table.dtype:  # a good row's t is within the grid cap
                table = _regrown(table, nx, ny, dtype)
            if (nx, ny) != seen.shape[:2]:
                seen = _regrown(seen, nx, ny, seen.dtype)
            cells = _cells(rows, nx, ny)
            seen.reshape(-1)[cells] = True
            table.reshape(-1)[cells] = rows[:, 4]
            n_rows += len(rows)
        nx, ny = table.shape[:2]
        if np.count_nonzero(seen) < n_rows:
            del table, seen  # naming the lines needs neither
            raise _repeated_pair(blocks(), nx, ny)
        if error is not None:
            raise error
        return cls(nx, ny, table)


_RANK_FIELDS = "s_x s_y t_x t_y r"


def _rank_rows(blocks):
    """Parse .rank runs of whole lines; yields (rows, lines, error) per
    run: the run's good rows and their line numbers, up to the first
    bad line of the file, and a FormatError naming that line (None
    before its run, which is the last one read).  The rows and lines
    are views into one `ioutil.Scratch`, good until the next run."""
    scratch = Scratch()
    for first_line, block, newlines in blocks:
        cap = row_capacity(len(block), newlines, 5)
        rows, lines = scratch.array("rows", 5 * cap).reshape(cap, 5), scratch.array("lines", cap)
        got, error = block_rows(block, _RANK_FIELDS, first_line, rows, lines, scratch)
        n_ok, bad = _first_bad_rank_row(rows[:got], lines[:got])
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


def _regrown(a, nx: int, ny: int, dtype):
    """A zero (nx, ny, nx, ny) array of `dtype` with `a` copied into its
    low corner."""
    out = np.zeros((nx, ny, nx, ny), dtype=dtype)
    out[tuple(slice(n) for n in a.shape)] = a
    return out


def _cells(rows, nx, ny):
    """Flat indices in the (nx, ny, nx, ny) table of the pairs of good
    .rank rows."""
    cells = rows[:, 0] - 1
    for col, n in ((1, ny), (2, nx), (3, ny)):
        cells *= n
        cells += rows[:, col] - 1
    return cells


def _repeated_pair(blocks, nx: int, ny: int) -> FormatError:
    """The FormatError of the first .rank line whose pair repeats an
    earlier line's, for a file on an nx x ny grid whose good rows are
    known to repeat one; reads the file again, keeping the first line
    of each cell."""
    first = np.zeros((nx * ny) ** 2, dtype=np.int64)  # 0: no line yet
    for rows, lines, _ in _rank_rows(blocks):
        cells = _cells(rows, nx, ny)
        _, at, back = np.unique(cells, return_index=True, return_inverse=True)
        # the first line of each row's cell, in an earlier run or in this one
        earlier = np.where(first[cells] > 0, first[cells], lines[at][back])
        again = np.flatnonzero(earlier < lines)
        if again.size:
            i = int(again[0])
            return FormatError(f"line {lines[i]}: pair repeats line {earlier[i]}")
        first[cells[at]] = lines[at]
    raise InvariantError("no .rank pair repeats")


def rank_invariant_naive(module: GridModule) -> RankInvariant:
    """Rank of every composite structure map, computed directly.

    The maps out of one source s are pushed from s one edge at a time,
    along the row s_y and then up every column; only the maps into one
    row are held.  A rank is at most the largest dimension, which sets
    the entry type.
    """
    nx, ny, p = module.nx, module.ny, module.p
    check_table_grid(nx, ny)
    inv = RankInvariant(nx, ny, np.zeros((nx, ny, nx, ny), dtype=table_dtype(int(module.dims.max()))))
    for sx, sy in iter_points(nx, ny):
        row = [np.eye(module.dim_at((sx, sy)), dtype=np.int64)]  # row[i]: s -> (s_x + i, t_y)
        for tx in range(sx + 1, nx):
            row.append(matmul(module.hmaps[(tx - 1, sy)], row[-1], p))
        for ty in range(sy, ny):
            if ty > sy:
                row = [matmul(module.vmaps[(tx, ty - 1)], m, p) for tx, m in enumerate(row, sx)]
            inv.table[sx, sy, sx:, ty] = [rank(m, p) for m in row]
    return inv
