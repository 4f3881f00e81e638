"""Persistence modules over a finite grid, given by explicit matrices.

A module assigns a vector space over F_p to every point of the grid
[0,nx) x [0,ny) and a matrix to every unit edge; commutativity of the
unit squares is the validation contract.  Composite maps, the rank
invariant, dualization and the square-local invariants used by the
explicit-module exactness checkers all live here, together with the
.gmod/.rank file formats.  The square invariants are ranks: the
dimensions of an intersection of images and of a sum of kernels come
from the rank of the two maps side by side and stacked, so no
subspace is built.

Grid points are 0-based (x, y) tuples in code; the file formats use
1-based coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    logical_lines,
    parse_int,
    row_capacity,
)
from .linalg import check_modulus, matmul, rank

SQUARE_LABELS = ("a", "b", "c", "d", "ab", "ac", "bd", "cd", "abc", "bcd", "abcd")


# The rank invariant and the kappa/iota tables are dense 4-D int64
# tables of nx*ny*nx*ny entries; past this extent one table alone would
# outgrow desk-scale memory.
DP_GRID_CAP = 60

# `composite(s, s)` builds the d x d identity of every .gmod space, which
# the file backs with at most d entries (none for a space with no nonzero
# neighbour); the reader refuses files whose identities, summed over all
# spaces, would need more bytes than this.
GMOD_IDENTITY_BYTES_CAP = 1 << 28


class InconsistentSquareError(ValueError):
    """Square invariants admit no nonnegative interval decomposition."""


class GridTooLargeError(ValueError):
    """A grid past DP_GRID_CAP, where the dense 4-D tables are refused."""


def check_table_grid(nx: int, ny: int, tables: int = 1) -> None:
    """Refuse to allocate `tables` dense 4-D tables on a grid past the cap."""
    if max(nx, ny) > DP_GRID_CAP:
        need = tables * 8 * (nx * ny) ** 2
        raise GridTooLargeError(
            f"grid {nx}x{ny} exceeds the {DP_GRID_CAP}x{DP_GRID_CAP} cap of the "
            f"dense 4-D tables ({tables} table(s) would need {need:,} bytes)"
        )


def iter_points(nx: int, ny: int) -> Iterator[tuple[int, int]]:
    for x in range(nx):
        for y in range(ny):
            yield (x, y)


def comparable_pairs(nx: int, ny: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """All pairs s <= t in lexicographic order of (s, t)."""
    for s in iter_points(nx, ny):
        for tx in range(s[0], nx):
            for ty in range(s[1], ny):
                yield s, (tx, ty)


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
        self._composites: dict = {}

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

    # -- structure maps ------------------------------------------------

    def composite(self, s, t) -> np.ndarray:
        """Matrix of the structure map s -> t (requires s <= t)."""
        s, t = tuple(s), tuple(t)
        if not (0 <= s[0] <= t[0] < self.nx and 0 <= s[1] <= t[1] < self.ny):
            raise ValueError(f"incomparable or out-of-range pair {s} -> {t}")
        if s == t:
            return np.eye(self.dim_at(s), dtype=np.int64)
        key = (s, t)
        got = self._composites.get(key)
        if got is None:
            if t[1] > s[1]:
                prev = (t[0], t[1] - 1)
                got = matmul(self.vmaps[prev], self.composite(s, prev), self.p)
            else:
                prev = (t[0] - 1, t[1])
                got = matmul(self.hmaps[prev], self.composite(s, prev), self.p)
            self._composites[key] = got
        return got

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


class RankInvariant:
    """r(s, t) = rank of the structure map s -> t, for all s <= t.

    Stored as a dense 4-D table indexed [sx, sy, tx, ty]; entries at
    incomparable pairs are kept at 0 so equality is plain array equality.
    """

    def __init__(self, nx: int, ny: int, table: Optional[np.ndarray] = None):
        self.nx = int(nx)
        self.ny = int(ny)
        if table is None:
            check_table_grid(self.nx, self.ny)
            table = np.zeros((self.nx, self.ny, self.nx, self.ny), dtype=np.int64)
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
        `comparable_pairs` order; the join of `text_slabs`."""
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
        labels = np.frombuffer(
            "".join(f"{x + 1} {y + 1} ".ljust(8, "\0") for x in range(nx) for y in range(ny)).encode(),
            dtype=np.uint64,
        )
        header = f"# rank invariant on grid {nx} x {ny} (1-based coordinates)\n".encode()
        return chain([header], (self._slab_bytes(x, labels) for x in range(nx)))

    def _slab_bytes(self, x: int, labels) -> bytes:
        """The .rank lines of the pairs with s_x = x; see `text_slabs`."""
        nx, ny = self.nx, self.ny
        m = slab_mask(nx, ny, x).reshape(ny, nx * ny)  # [s_y, t]
        q = self.table[x].reshape(m.shape)[m]
        groups = -(-len(str(int(q.max()))) // 4)
        line = np.empty(q.size, dtype=[("s", np.uint64), ("t", np.uint64), ("r", "<u4", (groups,)), ("nl", np.uint8)])
        line["s"] = np.repeat(labels[x * ny : (x + 1) * ny], (nx - x) * (ny - np.arange(ny)))
        line["t"] = np.broadcast_to(labels, m.shape)[m]
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
    def from_text(cls, text: str) -> "RankInvariant":
        """Read a .rank text; a FormatError names the first bad line.
        See `from_blocks`, which reads the text's `ioutil.line_blocks`."""
        return cls.from_blocks(lambda: line_blocks(text))

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
        they are allocated once.  Beside them only one run's text and
        rows are held.  A pair repeats exactly when fewer cells are hit
        than rows were read.
        """
        table = np.zeros((0, 0, 0, 0), dtype=np.int64)
        seen = np.zeros(table.shape, dtype=bool)
        n_rows = 0
        error = None
        for rows, _, error in _rank_rows(blocks()):
            nx = max(table.shape[0], int(rows[:, 2].max(initial=0)))
            ny = max(table.shape[1], int(rows[:, 3].max(initial=0)))
            if (nx, ny) != table.shape[:2]:  # a good row's t is within the grid cap
                table, seen = _regrown(table, nx, ny), _regrown(seen, nx, ny)
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


def _regrown(a, nx: int, ny: int):
    """A zero (nx, ny, nx, ny) array of `a`'s dtype with `a` copied into
    its low corner."""
    out = np.zeros((nx, ny, nx, ny), dtype=a.dtype)
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
    along the row s_y and then up every column, the route that
    `GridModule.composite` takes; only the maps into one row are held,
    and the module's composite cache is left as it is.
    """
    nx, ny, p = module.nx, module.ny, module.p
    inv = RankInvariant(nx, ny)
    for sx, sy in iter_points(nx, ny):
        row = [np.eye(module.dim_at((sx, sy)), dtype=np.int64)]  # row[i]: s -> (s_x + i, t_y)
        for tx in range(sx + 1, nx):
            row.append(matmul(module.hmaps[(tx - 1, sy)], row[-1], p))
        for ty in range(sy, ny):
            if ty > sy:
                row = [matmul(module.vmaps[(tx, ty - 1)], m, p) for tx, m in enumerate(row, sx)]
            inv.table[sx, sy, sx:, ty] = [rank(m, p) for m in row]
    return inv


# -- square-local invariants and decomposition --------------------------


@dataclass
class SquareInvariants:
    """The eleven numbers attached to a square s <= t.

    Corners: a = s (bottom left), b = (t_x, s_y), c = (s_x, t_y), d = t.
    i_d is dim(Im(b->d) ∩ Im(c->d)); k_a is dim(Ker(a->b) + Ker(a->c)).
    """

    dim_a: int
    dim_b: int
    dim_c: int
    dim_d: int
    r_ab: int
    r_ac: int
    r_bd: int
    r_cd: int
    r_ad: int
    i_d: int
    k_a: int


class SquareBarcode(dict):
    """Multiplicities of the eleven interval types on a square."""

    def __init__(self, counts):
        super().__init__({lab: int(counts.get(lab, 0)) for lab in SQUARE_LABELS})

    @property
    def hooks(self) -> int:
        return self["abc"] + self["bcd"]

    def is_rectangular(self) -> bool:
        return self.hooks == 0


def _composite_ranks(module: GridModule):
    """r(u, v): the rank of the composite u -> v, taken once per pair."""
    ranks: dict = {}

    def r(u, v):
        got = ranks.get((u, v))
        if got is None:
            got = ranks[u, v] = rank(module.composite(u, v), module.p)
        return got

    return r


def _meet_ranks(module: GridModule, s, t, r) -> tuple[int, int]:
    """(i_d, k_a) of the square s <= t, from ranks; r(u, v) is the rank
    of the composite u -> v.

    Im bd + Im cd is the image of [bd | cd], so i_d = r_bd + r_cd -
    rank [bd | cd]; Ker ab ∩ Ker ac is the kernel of [ab; ac], so
    k_a = (dim_a - r_ab) + (dim_a - r_ac) - (dim_a - rank [ab; ac]).
    """
    bpt, cpt = (t[0], s[1]), (s[0], t[1])
    ab, ac = module.composite(s, bpt), module.composite(s, cpt)
    bd, cd = module.composite(bpt, t), module.composite(cpt, t)
    i_d = r(bpt, t) + r(cpt, t) - rank(np.hstack((bd, cd)), module.p)
    k_a = module.dim_at(s) - r(s, bpt) - r(s, cpt) + rank(np.vstack((ab, ac)), module.p)
    return i_d, k_a


def invariants_of_square(module: GridModule, s, t, r=None) -> SquareInvariants:
    """Compute the eleven square invariants from ranks (`_meet_ranks`).

    r(u, v) gives the rank of a single composite; the checkers pass one
    `_composite_ranks` for every square, so each rank is taken once.
    """
    s, t = tuple(s), tuple(t)
    bpt, cpt = (t[0], s[1]), (s[0], t[1])
    if r is None:
        r = _composite_ranks(module)
    i_d, k_a = _meet_ranks(module, s, t, r)
    return SquareInvariants(
        dim_a=module.dim_at(s),
        dim_b=module.dim_at(bpt),
        dim_c=module.dim_at(cpt),
        dim_d=module.dim_at(t),
        r_ab=r(s, bpt),
        r_ac=r(s, cpt),
        r_bd=r(bpt, t),
        r_cd=r(cpt, t),
        r_ad=r(s, t),
        i_d=i_d,
        k_a=k_a,
    )


def decompose_square(inv: SquareInvariants) -> SquareBarcode:
    """Interval multiplicities on a square from its eleven invariants.

    Solves the triangular system obtained by evaluating the invariants
    on the eleven interval types; raises InconsistentSquareError when
    any multiplicity comes out negative (the invariants then belong to
    no interval-decomposable square module).
    """
    m = {}
    m["abcd"] = inv.r_ad
    m["bcd"] = inv.i_d - m["abcd"]
    m["bd"] = inv.r_bd - m["bcd"] - m["abcd"]
    m["cd"] = inv.r_cd - m["bcd"] - m["abcd"]
    m["abc"] = inv.dim_a - inv.k_a - m["abcd"]
    m["ab"] = inv.r_ab - m["abc"] - m["abcd"]
    m["ac"] = inv.r_ac - m["abc"] - m["abcd"]
    m["a"] = inv.k_a - m["ab"] - m["ac"]
    m["b"] = inv.dim_b - m["ab"] - m["abc"] - m["bd"] - m["bcd"] - m["abcd"]
    m["c"] = inv.dim_c - m["ac"] - m["abc"] - m["cd"] - m["bcd"] - m["abcd"]
    m["d"] = inv.dim_d - m["bd"] - m["cd"] - m["bcd"] - m["abcd"]
    negative = [lab for lab in SQUARE_LABELS if m[lab] < 0]
    if negative:
        raise InconsistentSquareError(
            f"inconsistent invariants: negative multiplicity for {', '.join(negative)}"
        )
    return SquareBarcode(m)


# -- exactness checkers -------------------------------------------------


def is_weakly_exact_algebraic(module: GridModule):
    """Check Im rho_s^t = Im(b->t) ∩ Im(c->t) and the kernel-sum dual.

    Both conditions are one-sided inclusions by commutativity, so each
    is tested as a dimension equality on the ranks of `_meet_ranks`:
    r(s->t) = i_d and dim_a - r(s->t) = k_a.  The rank of a single
    composite is taken once, for every pair it serves.  Returns
    (True, None) or (False, (s, t)) with the lexicographically smallest
    failing pair.
    """
    r = _composite_ranks(module)
    for s, t in comparable_pairs(module.nx, module.ny):
        i_d, k_a = _meet_ranks(module, s, t, r)
        if r(s, t) != i_d or r(s, t) != module.dim_at(s) - k_a:
            return False, (s, t)
    return True, None


def is_weakly_exact_geometric(module: GridModule):
    """Check that no square's interval decomposition contains a hook.

    The rank of a single composite is taken once, for every pair it
    serves, as in `is_weakly_exact_algebraic`.
    """
    r = _composite_ranks(module)
    for s, t in comparable_pairs(module.nx, module.ny):
        barcode = decompose_square(invariants_of_square(module, s, t, r))
        if not barcode.is_rectangular():
            return False, (s, t)
    return True, None


# -- .gmod file format --------------------------------------------------


def write_gmod(module: GridModule) -> str:
    out = ["gridmodule", f"field {module.p}", f"grid {module.nx} {module.ny}"]
    for x in range(module.nx):
        for y in range(module.ny):
            d = int(module.dims[x, y])
            if d:
                out.append(f"dim {x + 1} {y + 1} {d}")
    def emit(kind, maps):
        for (x, y), m in sorted(maps.items()):
            if m.shape[0] and m.shape[1]:
                out.append(f"{kind} {x + 1} {y + 1}")
                for row in m:
                    out.append(" ".join(str(int(v)) for v in row))
    emit("hmap", module.hmaps)
    emit("vmap", module.vmaps)
    return "\n".join(out) + "\n"


def read_gmod(text: str) -> GridModule:
    lines = list(logical_lines(text))
    if not lines or lines[0][1] != "gridmodule":
        lineno = lines[0][0] if lines else 1
        raise FormatError(f"line {lineno}: expected 'gridmodule' header")
    i = 1
    p = nx = ny = None
    dims = {}
    dim_lines = {}
    hmaps, vmaps = {}, {}
    seen = set()
    identities = 0

    def need(cond, lineno, msg):
        if not cond:
            raise FormatError(f"line {lineno}: {msg}")

    while i < len(lines):
        lineno, line = lines[i]
        toks = line.split()
        key = toks[0]
        if key == "field":
            need(p is None, lineno, "duplicate field line")
            need(len(toks) == 2, lineno, "expected 'field p'")
            p = parse_int(toks[1], lineno, "modulus")
            try:
                check_modulus(p)
            except ValueError as e:
                raise FormatError(f"line {lineno}: {e}") from None
            i += 1
        elif key == "grid":
            need(nx is None, lineno, "duplicate grid line")
            need(len(toks) == 3, lineno, "expected 'grid n m'")
            nx, ny = parse_int(toks[1], lineno, "extent"), parse_int(toks[2], lineno, "extent")
            need(nx >= 1 and ny >= 1, lineno, "grid extents must be positive")
            need(max(nx, ny) <= DP_GRID_CAP, lineno,
                 f"grid {nx}x{ny} exceeds the {DP_GRID_CAP}x{DP_GRID_CAP} cap")
            i += 1
        elif key == "dim":
            need(nx is not None, lineno, "dim before grid line")
            need(len(toks) == 4, lineno, "expected 'dim x y d'")
            x, y, d = (parse_int(t, lineno, "dim entry") for t in toks[1:])
            need(1 <= x <= nx and 1 <= y <= ny, lineno, f"point ({x},{y}) outside grid")
            need((x, y) not in dims, lineno, f"duplicate dim for ({x},{y})")
            need(d >= 0, lineno, "negative dimension")
            # a space with a map in or out has at least d entries in the file
            need(d <= len(text), lineno, f"dimension {d} exceeds the file's {len(text)} characters")
            identities += 8 * d * d
            need(identities <= GMOD_IDENTITY_BYTES_CAP, lineno,
                 f"identities of the spaces would need {identities:,} bytes, "
                 f"past the {GMOD_IDENTITY_BYTES_CAP:,}-byte cap")
            dims[(x, y)] = d
            dim_lines[(x - 1, y - 1)] = lineno
            i += 1
        elif key in ("hmap", "vmap"):
            need(nx is not None and p is not None, lineno, f"{key} before grid/field lines")
            need(len(toks) == 3, lineno, f"expected '{key} x y'")
            x, y = parse_int(toks[1], lineno, "x"), parse_int(toks[2], lineno, "y")
            tgt = (x + 1, y) if key == "hmap" else (x, y + 1)
            need(1 <= x <= nx and 1 <= y <= ny, lineno, f"point ({x},{y}) outside grid")
            need(tgt[0] <= nx and tgt[1] <= ny, lineno, f"{key} at ({x},{y}) leaves the grid")
            rows_needed = dims.get(tgt, 0)
            cols_needed = dims.get((x, y), 0)
            need(rows_needed > 0 and cols_needed > 0, lineno, f"{key} touches a zero space")
            need((key, x, y) not in seen, lineno, f"duplicate {key} at ({x},{y})")
            seen.add((key, x, y))
            i += 1
            mat = []
            for _ in range(rows_needed):
                need(i < len(lines), lineno, f"{key} at ({x},{y}): missing matrix rows")
                rlineno, rline = lines[i]
                row = [parse_int(t, rlineno, "matrix entry") for t in rline.split()]
                need(len(row) == cols_needed, rlineno,
                     f"expected {cols_needed} entries, got {len(row)}")
                mat.append(row)
                i += 1
            target = hmaps if key == "hmap" else vmaps
            target[(x - 1, y - 1)] = np.array(mat, dtype=np.int64)
        else:
            raise FormatError(f"line {lineno}: unknown directive {key!r}")
    if p is None:
        raise FormatError("line 1: missing 'field p' line")
    if nx is None:
        raise FormatError("line 1: missing 'grid n m' line")
    dims_arr = np.zeros((nx, ny), dtype=np.int64)
    for (x, y), d in dims.items():
        dims_arr[x - 1, y - 1] = d
    # every edge between two nonzero spaces must have been given; the
    # error names the later of the two spaces' dim lines
    for x in range(nx - 1):
        for y in range(ny):
            if dims_arr[x, y] and dims_arr[x + 1, y] and (x, y) not in hmaps:
                lineno = max(dim_lines[(x, y)], dim_lines[(x + 1, y)])
                raise FormatError(f"line {lineno}: missing hmap between nonzero spaces at ({x + 1},{y + 1})")
    for x in range(nx):
        for y in range(ny - 1):
            if dims_arr[x, y] and dims_arr[x, y + 1] and (x, y) not in vmaps:
                lineno = max(dim_lines[(x, y)], dim_lines[(x, y + 1)])
                raise FormatError(f"line {lineno}: missing vmap between nonzero spaces at ({x + 1},{y + 1})")
    return GridModule(nx, ny, p, dims_arr, hmaps, vmaps)
