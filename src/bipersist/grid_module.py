"""Persistence modules over a finite grid, given by explicit matrices.

A module assigns a vector space over F_p to every point of the grid
[0,nx) x [0,ny) and a matrix to every unit edge; commutativity of the
unit squares is the validation contract.  The rank invariant, the
layout of every table on the comparable pairs and of the .rank lines,
dualization and the .rank writer live here; the .rank readers are in
`rank_reader`, the .gmod format is in `gmod`, and the square-local
invariants of the explicit exactness checkers are in `squares`.

Grid points are 0-based (x, y) tuples in code; the file formats use
1-based coordinates.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .ioutil import check_bytes, check_modulus, line_blocks

# The .rank labels "x y " fit in 8 bytes only below 100; the tables
# are bounded by their bytes (`check_tables`), not by the extent.
RANK_EXTENT_MAX = 99

INT16_MAX = 2**15 - 1
INT32_MAX = 2**31 - 1

# pairs per run of .rank lines that the writer makes and the layout reader
# checks at once (`slab_runs`): about 0.4 `ioutil._BLOCK_CHARS` of text,
# so that each of a run's per-line arrays, 8 bytes a line, stays below
# glibc's 128 kB mmap threshold and is reused from the heap run after
# run.  At 2^14 each was mapped and given back to the OS every run:
# 46.3k minor faults for `decompose-rectangles` on the 50 x 50
# benchmark presentation's .rank, against 5.8k at 2^12, and its peak RSS
# 1 MB higher.
RUN_PAIRS = 1 << 12


def check_rank_layout(nx: int, ny: int) -> None:
    """Refuse a grid that the .rank layout cannot hold."""
    if max(nx, ny) > RANK_EXTENT_MAX:
        raise ValueError(f"grid {nx}x{ny} exceeds the {RANK_EXTENT_MAX}x{RANK_EXTENT_MAX} extent of the .rank layout")


def table_bytes(nx: int, ny: int, tables: int, bound: int) -> int:
    """The bytes their producer allocates for `tables` tables on the
    comparable pairs of the nx x ny grid with entries in [0, bound]."""
    return tables * pair_count(nx, ny) * np.dtype(table_dtype(bound)).itemsize


def check_tables(nx: int, ny: int, tables: int, bound: int, line: Optional[int] = None, work: int = 0) -> None:
    """Refuse `tables` tables, with `work` bytes of their producer's work
    arrays, past the byte cap before they are allocated; `line` names
    the line of a file that asks for them."""
    what = f"{tables} table(s) on the comparable pairs of the {nx}x{ny} grid"
    check_bytes(table_bytes(nx, ny, tables, bound) + work, what + (f" and {work:,} bytes of work" if work else ""), line)


def table_dtype(bound: int) -> type:
    """The entry type of a table on the comparable pairs whose entries
    lie in [0, bound]: the narrowest of int16, int32 and int64 that
    holds `bound`.

    Every entry of the rank invariant and of the kappa/iota tables is a
    rank or a dimension, so its producer knows a bound: the generator
    count for the rank DP, the largest dimension of the module for the
    naive rank and for kappa and iota.  A reader, which learns its bound
    as it goes, starts at `table_dtype(0)` and widens to
    `np.promote_types(current, table_dtype(largest entry read))`.
    """
    if bound <= INT16_MAX:
        return np.int16
    return np.int32 if bound <= INT32_MAX else np.int64


def iter_points(nx: int, ny: int) -> Iterator[tuple[int, int]]:
    for x in range(nx):
        for y in range(ny):
            yield (x, y)


# -- the layout of the tables on the comparable pairs ---------------------
#
# A table holds one entry per comparable pair s <= t, in one vector in
# lexicographic (s_x, s_y, t_x, t_y) order, the line order of the .rank
# writer.  So r(s, .) is one (nx - s_x) x (ny - s_y) block in C order of
# (t_x, t_y), the blocks follow each other in lexicographic order of s,
# and the pairs with one s_x (a slab) are one range.  Only the functions
# below and `PairTable` know the layout.


def pair_count(nx: int, ny: int) -> int:
    """The number of comparable pairs s <= t of an nx x ny grid."""
    return (nx * (nx + 1) // 2) * (ny * (ny + 1) // 2)


def _block_start(nx: int, ny: int, sx, sy):
    """The index of the pair (s, s), where the block r(s, .) starts; at
    s_y = ny, the end of the slab s_x.  Integer arrays broadcast."""
    # each slab s_x' < s_x holds (nx - s_x') blocks of ny(ny+1)/2 pairs in
    # all, and each block (s_x, s_y') with s_y' < s_y holds (nx - s_x)(ny - s_y')
    return (ny * (ny + 1) // 2) * (sx * nx - sx * (sx - 1) // 2) + (nx - sx) * (sy * ny - sy * (sy - 1) // 2)


def pair_index(nx: int, ny: int, s, t):
    """The index of the comparable pair (s, t); integer arrays broadcast."""
    (sx, sy), (tx, ty) = s, t
    return _block_start(nx, ny, sx, sy) + (tx - sx) * (ny - sy) + (ty - sy)


def pairs_into(nx: int, ny: int):
    """A function of t that gives the indices of the pairs (s, t) for
    every s <= t, as an [s_x, s_y] array."""
    sx, sy = np.arange(nx)[:, None], np.arange(ny)
    origin = pair_index(nx, ny, (sx, sy), (0, 0))  # the index is affine in t
    return lambda t: origin[: t[0] + 1, : t[1] + 1] + (t[0] * (ny - sy[: t[1] + 1]) + t[1])


def slab_targets(nx: int, ny: int, sx: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """t_x * ny + t_y of each pair with s_x = sx and lo <= s_y < hi (to
    the grid's top by default), in layout order."""
    t = np.arange(sx, nx)[:, None] * ny + np.arange(ny)
    return np.concatenate([t[:, sy:].ravel() for sy in range(lo, ny if hi is None else hi)])


class PairTable:
    """Entries on the comparable pairs s <= t of an nx x ny grid, held
    as one vector in the layout above (`values`), with accessors by
    pair, by block r(s, .) and by range of blocks within a slab."""

    def __init__(self, nx: int, ny: int, values: np.ndarray):
        self.nx = int(nx)
        self.ny = int(ny)
        if values.shape != (pair_count(self.nx, self.ny),):
            raise ValueError(f"{values.shape} entries for the comparable pairs of a {nx}x{ny} grid")
        self.values = values

    def rows(self, sx: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """The entries of the pairs with s_x = sx and lo <= s_y < hi (to
        the grid's top by default): a view of one range of `values`."""
        hi = self.ny if hi is None else hi
        return self.values[_block_start(self.nx, self.ny, sx, lo) : _block_start(self.nx, self.ny, sx, hi)]

    def block(self, s) -> np.ndarray:
        """The entries (s, t) for every t >= s, as a writable
        [t_x - s_x, t_y - s_y] view of `values`."""
        sx, sy = s
        start, shape = _block_start(self.nx, self.ny, sx, sy), (self.nx - sx, self.ny - sy)
        return self.values[start : start + shape[0] * shape[1]].reshape(shape)

    def get(self, s, t) -> int:
        """The entry at s <= t; 0 when either endpoint falls outside the
        grid, and a ValueError for an incomparable pair inside it."""
        (sx, sy), (tx, ty) = s, t
        if not (0 <= sx < self.nx and 0 <= tx < self.nx and 0 <= sy < self.ny and 0 <= ty < self.ny):
            return 0
        if sx > tx or sy > ty:
            raise ValueError(f"incomparable pair {s} -> {t}")
        return self.values.item(pair_index(self.nx, self.ny, s, t))

    @property
    def table(self) -> np.ndarray:
        """A read-only dense [s_x, s_y, t_x, t_y] copy, 0 at the
        incomparable pairs, built on each call: for oracles, which index
        the pairs themselves."""
        table = np.zeros((self.nx, self.ny, self.nx, self.ny), dtype=self.values.dtype)
        for sx, sy in iter_points(self.nx, self.ny):
            table[sx, sy, sx:, sy:] = self.block((sx, sy))
        table.flags.writeable = False
        return table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairTable)
            and (self.nx, self.ny) == (other.nx, other.ny)
            and bool(np.array_equal(self.values, other.values))
        )


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
        return np.mod(np.asarray(m, dtype=np.int64).reshape(shape), self.p)

    def dim_at(self, t) -> int:
        return int(self.dims[t[0], t[1]])

    # -- validation ----------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of violations; empty means the module is valid."""
        from .linalg import matmul

        bad = []
        for x in range(self.nx - 1):
            for y in range(self.ny - 1):
                up_right = matmul(self.vmaps[(x + 1, y)], self.hmaps[(x, y)], self.p)
                right_up = matmul(self.hmaps[(x, y + 1)], self.vmaps[(x, y)], self.p)
                if not np.array_equal(up_right, right_up):
                    bad.append(f"square at ({x},{y}) does not commute")
        return bad

    # -- duality -------------------------------------------------------

    def dualize(self) -> "GridModule":
        """Linear dual: grid reversed in both coordinates, matrices transposed."""
        nx, ny = self.nx, self.ny
        hmaps, vmaps = {}, {}
        for x in range(nx - 1):
            for y in range(ny):
                hmaps[(x, y)] = self.hmaps[(nx - 2 - x, ny - 1 - y)].T
        for x in range(nx):
            for y in range(ny - 1):
                vmaps[(x, y)] = self.vmaps[(nx - 1 - x, ny - 2 - y)].T
        return GridModule(nx, ny, self.p, self.dims[::-1, ::-1], hmaps, vmaps)  # which copies them


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


def rank_header(nx: int, ny: int) -> bytes:
    return f"# rank invariant on grid {nx} x {ny} (1-based coordinates)\n".encode()


def rank_labels(nx: int, ny: int):
    """The .rank labels "x y " of the grid's points (1-based), indexed
    x * ny + y: each as a NUL-padded little-endian 8-byte word, and its
    length."""
    text = [f"{x + 1} {y + 1} " for x in range(nx) for y in range(ny)]
    words = np.frombuffer("".join(label.ljust(8, "\0") for label in text).encode(), dtype="<u8")
    return words, np.array([len(label) for label in text], dtype=np.int64)


def slab_runs(nx: int, ny: int) -> Iterator[tuple[int, int, int]]:
    """The runs of lines that the .rank writer makes, and the layout
    reader checks, at once, in file order: (s_x, lo, hi) for each range
    lo <= s_y < hi of whole blocks r(s, .) of the slab s_x, each of at
    least `RUN_PAIRS` pairs or the slab's last."""
    for x in range(nx):
        lo = pairs = 0
        for sy in range(ny):
            pairs += (nx - x) * (ny - sy)
            if pairs >= RUN_PAIRS or sy == ny - 1:
                yield x, lo, sy + 1
                lo, pairs = sy + 1, 0


def slab_points(nx: int, ny: int, x: int, lo: int = 0, hi: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """The s and the t of each .rank line of the pairs with s_x = x and
    lo <= s_y < hi (to the grid's top by default), in layout order, as
    indices x * ny + y into `rank_labels`' arrays."""
    sy = np.arange(lo, ny if hi is None else hi)
    s = np.repeat(x * ny + sy, (nx - x) * (ny - sy))
    return s, slab_targets(nx, ny, x, lo, hi)


def run_bytes(q: np.ndarray, s: np.ndarray, t: np.ndarray, labels: np.ndarray) -> bytes:
    """The .rank lines of the nonnegative ranks `q` at the pairs (s, t)
    of a run (`slab_points`): the one definition of a .rank line, which
    the writer writes and the layout reader checks.  A run is one record
    per line, in order: the NUL-padded labels "x y " of s and of t, one
    8-byte word each from `labels` (`rank_labels`); the rank as 4-digit
    groups, each one 4-byte word from a table of the 10,000 groups (the
    leading group without its leading zeros, the groups above it NUL);
    and a newline.  One `bytes.translate` deletes the NULs."""
    groups = -(-len(str(int(q.max()))) // 4)
    line = np.empty(q.size, dtype=[("s", "<u8"), ("t", "<u8"), ("r", "<u4", (groups,)), ("nl", np.uint8)])
    line["s"] = labels[s]
    line["t"] = labels[t]
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


class RankInvariant(PairTable):
    """r(s, t) = rank of the structure map s -> t, for all s <= t, on
    the comparable pairs (`PairTable`).

    The producers store the narrowest entries their bound allows
    (`table_dtype`): int16 up to 32,767, else int32 up to 2**31 - 1.
    The rank DP and the naive rank know the bound before they start;
    the .rank readers start at int16 and widen when they read a rank
    past the current type.  With no values given, the zero invariant is
    int64, since a caller may write any rank into its blocks.
    """

    def __init__(self, nx: int, ny: int, values: Optional[np.ndarray] = None):
        if values is None:
            check_tables(nx, ny, 1, np.iinfo(np.int64).max)
            values = np.zeros(pair_count(nx, ny), dtype=table_dtype(np.iinfo(np.int64).max))
        super().__init__(nx, ny, values)

    def to_text(self) -> str:
        """The .rank text: one line per comparable pair, in
        lexicographic order of (s, t); the join of `text_slabs`."""
        return b"".join(self.text_slabs()).decode("ascii")

    def text_slabs(self) -> Iterator[bytes]:
        """The .rank file as ASCII bytes: the header line, then one chunk
        per run of lines (`slab_runs`, whole blocks r(s, .) of about
        `RUN_PAIRS` lines), made by `run_bytes` as the iterator reaches
        it, so a writer that writes each as it comes holds one run of
        text at a time.  The grid and the ranks are checked at the call,
        before any run is made.
        """
        nx, ny = self.nx, self.ny
        check_rank_layout(nx, ny)
        if self.values.min(initial=0) < 0:
            raise ValueError("rank invariant has a negative entry")
        labels = rank_labels(nx, ny)[0]
        runs = (run_bytes(self.rows(x, lo, hi), *slab_points(nx, ny, x, lo, hi), labels) for x, lo, hi in slab_runs(nx, ny))
        return chain([rank_header(nx, ny)], runs)

    @classmethod
    def from_text(cls, text: str) -> "RankInvariant":
        """Read a .rank text, as `rank_reader.read_rank` reads a file,
        from the text's `ioutil.line_blocks`; a FormatError names the
        first bad line."""
        from .rank_reader import read_rank  # compiled only where a .rank is read

        chunks = (block.encode("utf-8", "surrogatepass") for _, block in line_blocks(text))
        return read_rank(chunks, lambda read: read(lambda: line_blocks(text)))


def rank_invariant_naive(module: GridModule) -> RankInvariant:
    """Rank of every composite structure map, computed directly.

    The maps out of one source s are pushed from s one edge at a time,
    along the row s_y and then up every column; only the maps into one
    row are held, and their ranks fill the block r(s, .) one column t_y
    at a time.  A rank is at most the largest dimension, which sets the
    entry type.
    """
    from .linalg import matmul, rank

    nx, ny, p = module.nx, module.ny, module.p
    check_tables(nx, ny, 1, int(module.dims.max()))
    inv = RankInvariant(nx, ny, np.zeros(pair_count(nx, ny), dtype=table_dtype(int(module.dims.max()))))
    for sx, sy in iter_points(nx, ny):
        block = inv.block((sx, sy))
        row = [np.eye(module.dim_at((sx, sy)), dtype=np.int64)]  # row[i]: s -> (s_x + i, t_y)
        for tx in range(sx + 1, nx):
            row.append(matmul(module.hmaps[(tx - 1, sy)], row[-1], p))
        for ty in range(sy, ny):
            if ty > sy:
                row = [matmul(module.vmaps[(tx, ty - 1)], m, p) for tx, m in enumerate(row, sx)]
            block[:, ty - sy] = [rank(m, p) for m in row]
    return inv
