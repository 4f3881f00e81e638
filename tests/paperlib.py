"""Paper-verification machinery that only the tests use.

The package computes rank invariants, rectangle barcodes and
decomposability verdicts; the constructions here check the paper's
other claims against it: representations of finite posets, their
fully faithful grid embeddings and pointwise right Kan extensions, the
dart family and its staircase, the direct-sum algebra of rectangle
indicators (the oracle of the one-pass `random_rectangle_module`) and
writes of one pair of a table through its block, Hom spaces by
naturality equations, a
randomized isomorphism confirmer, the composite structure maps of a
module, restriction to a subgrid, the comparable pairs in
lexicographic order and as a mask of a dense table, the invariants of one square from its composites, the eleven-by-eleven square invariant matrix,
strong exactness, the rank
invariant of a sum of rectangles and zigzag spanning counts, the
Gauss-Jordan oracle (`reference_rref`, and `dense_solve_matrix` on it),
the subspace oracle on it (canonical `Subspace` bases, dense kernels, basis
completion, and images, sums and intersections of subspaces, which the
package reads off its column reducers or counts by ranks instead), and
the zigzag oracle: insert/delete event lists along the row and column
paths, and barcodes of explicit zigzag modules by pushing two nested
subspaces from every left endpoint; and `int_rows`, the readers'
integer-table parser over a whole text, the dense boundary matrix
of a bifiltration, the inhomogeneous entries
of a graded matrix, a free resolution evaluated at a grid point and
its exactness checked against the homology it resolves, and the dense
scan of the comparable pairs that `check_rectangle_decomposable` is
checked against.  None of it is on a path the CLI runs.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from bipersist.bifiltration import Bifiltration, facets, homology_basis, homology_map, homology_module
from bipersist.grid_module import GridModule, RankInvariant, iter_points, rank_invariant_naive
from bipersist.ioutil import InvariantError, block_rows, check_modulus, line_blocks
from bipersist.linalg import ColumnReducer, inv_mod, matmul, rank, solve_matrix
from bipersist.rect_decomp import RectangleBarcode, decompose
from bipersist.resolution import GradedMatrix
from bipersist.squares import SQUARE_LABELS, SquareInvariants
from bipersist.zigzag import ZigzagBarcode


# -- linear algebra -------------------------------------------------------


def reference_rref(m, p):
    """Reduced row echelon form by Gauss-Jordan elimination, one pivot row
    at a time, on entries in [0, p); returns (R, pivot column indices).
    It runs on no `ColumnReducer`, so it can be the reducer's oracle."""
    r = m.copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, pc])[0]
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        inv = inv_mod(int(r[pr, pc]), p)
        r[pr] = (r[pr] * inv) % p
        hit = np.nonzero(r[:, pc])[0]
        for j in hit:
            if j != pr:
                r[j] = (r[j] - r[j, pc] * r[pr]) % p
        pivots.append(pc)
        pr += 1
    return r, pivots


def dense_solve_matrix(m: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Oracle for `linalg.solve_matrix`: the reference RREF of [m | b],
    free variables set to 0; None if a pivot lands in b's block."""
    cols = m.shape[1]
    r, piv = reference_rref(np.hstack([m, b]) % p, p)
    if piv and piv[-1] >= cols:
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    x[piv] = r[: len(piv), cols:]
    return x


def asmatrix(a, p: int) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries reduced mod p."""
    m = np.array(a, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    return np.mod(m, p)


class Subspace:
    """A subspace of F_p^n held as a canonical column basis.

    The basis matrix has shape (ambient_dim, dim) and is the reduced
    column echelon form of any generating set, so two Subspace objects
    are equal iff their basis arrays are identical.
    """

    __slots__ = ("ambient_dim", "basis", "p")

    def __init__(self, ambient_dim: int, basis: np.ndarray, p: int):
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.p = p

    @classmethod
    def from_columns(cls, cols: np.ndarray, p: int) -> "Subspace":
        """Span of the columns of `cols`, canonicalized."""
        cols = asmatrix(cols, p)
        r, piv = reference_rref(cols.T, p)
        return cls(cols.shape[0], r[: len(piv)].T.copy(), p)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.p == other.p
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


def kernel_basis(m: np.ndarray, p: int) -> Subspace:
    """Null space {v : m v = 0} as a canonical Subspace of F_p^cols: the
    vector e_j - sum_i R[i, j] e_(pivot i) for every free column j of
    R = reference_rref(m), canonicalized."""
    cols = m.shape[1]
    r, piv = reference_rref(m % p, p)
    free = np.setdiff1d(np.arange(cols), piv)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[piv] = -r[: len(piv), free] % p
    return Subspace.from_columns(basis, p)


def extend_basis(base: np.ndarray, candidates: np.ndarray, p: int) -> list[int]:
    """Indices of candidate columns completing span(base) to span(base|candidates).

    The base columns go through one ColumnReducer first, then the
    candidates in order, and a candidate is chosen when the reducer
    admits it: when it is independent of span(base) and of the
    candidates chosen before it.
    """
    reducer = ColumnReducer(base.shape[0], p)
    for v in ColumnReducer.columns(base, p):
        reducer.add(v)
    return [j for j, v in enumerate(ColumnReducer.columns(candidates, p)) if reducer.add(v) is not None]


def solve(m: np.ndarray, b, p: int) -> Optional[np.ndarray]:
    """One solution x of m x = b, or None if the system is inconsistent."""
    s = solve_matrix(m, asmatrix(b, p), p)
    return None if s is None else s[:, 0]


def invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]


def contains(space: Subspace, vec) -> bool:
    v = asmatrix(vec, space.p)
    return rank(np.hstack([space.basis, v]), space.p) == space.dim


# -- subspace oracle: the arithmetic that the package replaces by ranks ----


def image_basis(m: np.ndarray, p: int) -> Subspace:
    """Column space of m as a canonical Subspace of F_p^rows."""
    return Subspace.from_columns(m, p)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim or a.p != b.p:
        raise ValueError("subspace sum needs a common ambient space")
    return Subspace.from_columns(np.hstack([a.basis, b.basis]), a.p)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of [A | -B]."""
    if a.ambient_dim != b.ambient_dim or a.p != b.p:
        raise ValueError("subspace intersection needs a common ambient space")
    p = a.p
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient_dim, np.zeros((a.ambient_dim, 0), dtype=np.int64), p)
    stacked = np.hstack([a.basis, (-b.basis) % p])
    ker = kernel_basis(stacked, p)
    vecs = matmul(a.basis, ker.basis[: a.dim], p)
    return Subspace.from_columns(vecs, p)


# -- grid modules ----------------------------------------------------------


def comparable_pairs(nx: int, ny: int):
    """All pairs s <= t in lexicographic order of (s, t)."""
    for sx in range(nx):
        for sy in range(ny):
            for tx in range(sx, nx):
                for ty in range(sy, ny):
                    yield (sx, sy), (tx, ty)


def comparable_mask(nx: int, ny: int) -> np.ndarray:
    """Boolean [s_x, s_y, t_x, t_y] table of the pairs s <= t.  Masking a
    dense table with it gives its entries in the package's layout of the
    comparable pairs, the lexicographic order of `comparable_pairs`."""
    sx = np.arange(nx)[:, None, None, None]
    sy = np.arange(ny)[None, :, None, None]
    tx = np.arange(nx)[None, None, :, None]
    ty = np.arange(ny)[None, None, None, :]
    return (sx <= tx) & (sy <= ty)


_COMPOSITES = weakref.WeakKeyDictionary()  # module -> {(s, t): matrix of s -> t}


def composite(module: GridModule, s, t) -> np.ndarray:
    """Matrix of the structure map s -> t of `module` (requires s <= t):
    along the row s_y, then up the column t_x.  Every composite is kept,
    per module, for the later calls."""
    s, t = tuple(s), tuple(t)
    if not (0 <= s[0] <= t[0] < module.nx and 0 <= s[1] <= t[1] < module.ny):
        raise ValueError(f"incomparable or out-of-range pair {s} -> {t}")
    if s == t:
        return np.eye(module.dim_at(s), dtype=np.int64)
    cache = _COMPOSITES.setdefault(module, {})
    got = cache.get((s, t))
    if got is None:
        if t[1] > s[1]:
            prev = (t[0], t[1] - 1)
            got = matmul(module.vmaps[prev], composite(module, s, prev), module.p)
        else:
            prev = (t[0] - 1, t[1])
            got = matmul(module.hmaps[prev], composite(module, s, prev), module.p)
        cache[(s, t)] = got
    return got


def restrict(module: GridModule, xs, ys) -> GridModule:
    """Restriction to the subgrid xs x ys (sorted 0-based indices)."""
    xs, ys = sorted(set(xs)), sorted(set(ys))
    if not xs or not ys:
        raise ValueError("restriction needs a nonempty subgrid")
    if xs[0] < 0 or xs[-1] >= module.nx or ys[0] < 0 or ys[-1] >= module.ny:
        raise ValueError("subgrid indices out of range")
    dims = module.dims[np.ix_(xs, ys)]
    hmaps, vmaps = {}, {}
    for i in range(len(xs) - 1):
        for j in range(len(ys)):
            hmaps[(i, j)] = composite(module, (xs[i], ys[j]), (xs[i + 1], ys[j]))
    for i in range(len(xs)):
        for j in range(len(ys) - 1):
            vmaps[(i, j)] = composite(module, (xs[i], ys[j]), (xs[i], ys[j + 1]))
    return GridModule(len(xs), len(ys), module.p, dims, hmaps, vmaps)


# -- rectangle sums ---------------------------------------------------------
#
# The direct-sum algebra below is the oracle of the one-pass builder
# `constructions.random_rectangle_module`: its sum of rectangle
# indicators in draw order, one block-diagonal sum at a time.


def zero_module(nx: int, ny: int, p: int) -> GridModule:
    return GridModule(nx, ny, p, np.zeros((nx, ny), dtype=np.int64))


def indicator_module(nx: int, ny: int, support, p: int) -> GridModule:
    """k at each point of `support`, identity maps inside the support.

    Well-defined (commutative) only when the support is convex in the
    grid order; validate() will flag anything else.
    """
    support = {tuple(t) for t in support}
    dims = np.zeros((nx, ny), dtype=np.int64)
    for t in support:
        dims[t] = 1
    one = np.array([[1]], dtype=np.int64)
    hmaps = {(x, y): one for x, y in support if (x + 1, y) in support}
    vmaps = {(x, y): one for x, y in support if (x, y + 1) in support}
    return GridModule(nx, ny, p, dims, hmaps, vmaps)


def rectangle_module(nx: int, ny: int, rect, p: int) -> GridModule:
    """Indicator module of the rectangle [sx,tx] x [sy,ty] (0-based)."""
    sx, sy, tx, ty = rect
    return indicator_module(nx, ny, [(x, y) for x in range(sx, tx + 1) for y in range(sy, ty + 1)], p)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def direct_sum(a: GridModule, b: GridModule) -> GridModule:
    """a + b, each map block-diagonal with a's block first."""
    if (a.nx, a.ny, a.p) != (b.nx, b.ny, b.p):
        raise ValueError("direct sum needs matching grids and fields")
    hmaps = {key: _block_diag(a.hmaps[key], b.hmaps[key]) for key in a.hmaps}
    vmaps = {key: _block_diag(a.vmaps[key], b.vmaps[key]) for key in a.vmaps}
    return GridModule(a.nx, a.ny, a.p, a.dims + b.dims, hmaps, vmaps)


def rectangle_sum(nx: int, ny: int, rects, p: int) -> GridModule:
    """The direct sum of the rectangles' indicators, in the given order."""
    total = zero_module(nx, ny, p)
    for rect in rects:
        total = direct_sum(total, rectangle_module(nx, ny, rect, p))
    return total


def set_pair(table, s, t, value: int) -> None:
    """Write the entry of the pair s <= t of a `PairTable`, through its
    block r(s, .)."""
    if not (s[0] <= t[0] and s[1] <= t[1]):
        raise ValueError(f"incomparable pair {s} -> {t}")
    table.block(s)[t[0] - s[0], t[1] - s[1]] = value



def rectangle_rank_invariant(barcode: RectangleBarcode, nx: int, ny: int) -> RankInvariant:
    """The rank invariant of the direct sum of the barcode's rectangles
    on an nx x ny grid.

    r(s, t) counts the rectangles with lower corner <= s and upper
    corner >= t: the rectangles go into a 4-D histogram, which is
    summed forward along the s axes and backward along the t axes.
    """
    table = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    for (sx, sy, tx, ty), m in barcode.items():
        if sx < nx and sy < ny:  # a rectangle may run past the grid
            table[sx, sy, min(tx, nx - 1), min(ty, ny - 1)] += m
    for axis in (0, 1):
        np.cumsum(table, axis=axis, out=table)
    for axis in (2, 3):
        rev = np.flip(table, axis=axis)
        np.cumsum(rev, axis=axis, out=rev)
    return RankInvariant(nx, ny, table[comparable_mask(nx, ny)])


def barcode_dim_at(barcode: RectangleBarcode, t) -> int:
    """Pointwise dimension at t of the direct sum of the rectangles."""
    x, y = t
    return sum(m for (sx, sy, tx, ty), m in barcode.items() if sx <= x <= tx and sy <= y <= ty)


# -- Hom computations ---------------------------------------------------


def naturality_hom_basis(points, dim_a, dim_b, edges, p) -> list[dict]:
    """Basis of natural families {phi_t} for two diagrams on shared points.

    dim_a/dim_b map each point to a dimension; edges is a list of
    (src, tgt, a_mat, b_mat) with a_mat the source diagram's map and
    b_mat the target diagram's.  Unknowns are the entries of every
    component phi_t (shape dim_b x dim_a, column-stacked) and each edge
    contributes the constraint phi_tgt . a_mat = b_mat . phi_src.
    Returns a list of dicts point -> matrix, zero-size points omitted.
    """
    offset = {}
    blocks = []
    total = 0
    for t in points:
        da, db = dim_a[t], dim_b[t]
        if da > 0 and db > 0:
            offset[t] = total
            blocks.append((t, db, da))
            total += da * db
    if total == 0:
        return []
    rows = []
    for src, tgt, a_mat, b_mat in edges:
        n_rows = dim_b[tgt] * dim_a[src]
        if n_rows == 0:
            continue
        block = np.zeros((n_rows, total), dtype=np.int64)
        if tgt in offset:  # phi_tgt . a_mat, vec'd as (a^T kron I)
            block[:, offset[tgt] : offset[tgt] + dim_a[tgt] * dim_b[tgt]] = np.kron(
                a_mat.T, np.eye(dim_b[tgt], dtype=np.int64)
            )
        if src in offset:  # - b_mat . phi_src, vec'd as (I kron b)
            block[:, offset[src] : offset[src] + dim_a[src] * dim_b[src]] -= np.kron(
                np.eye(dim_a[src], dtype=np.int64), b_mat
            )
        rows.append(np.mod(block, p))
    system = np.vstack(rows) if rows else np.zeros((0, total), dtype=np.int64)
    ker = kernel_basis(system, p)
    basis = []
    for j in range(ker.dim):
        vec = ker.basis[:, j]
        comp = {}
        for t, db, da in blocks:
            o = offset[t]
            comp[t] = vec[o : o + da * db].reshape(db, da, order="F").copy()
        basis.append(comp)
    return basis


def hom_basis(a: GridModule, b: GridModule) -> list[dict]:
    """Basis of the space of module morphisms a -> b.

    Each basis element is a dict mapping grid points to matrices of
    shape (dim_b, dim_a); points where either module vanishes are
    omitted.
    """
    if (a.nx, a.ny, a.p) != (b.nx, b.ny, b.p):
        raise ValueError("hom needs matching grids and fields")
    points = list(iter_points(a.nx, a.ny))
    dim_a = {t: a.dim_at(t) for t in points}
    dim_b = {t: b.dim_at(t) for t in points}
    edges = []
    for t, mat in a.hmaps.items():
        edges.append((t, (t[0] + 1, t[1]), mat, b.hmaps[t]))
    for t, mat in a.vmaps.items():
        edges.append((t, (t[0], t[1] + 1), mat, b.vmaps[t]))
    return naturality_hom_basis(points, dim_a, dim_b, edges, a.p)


def hom_dim(a: GridModule, b: GridModule) -> int:
    """Dimension of Hom(a, b) as an F_p vector space."""
    return len(hom_basis(a, b))


# -- square-local invariants and exactness --------------------------------


def invariants_of_square(module: GridModule, s, t) -> SquareInvariants:
    """The eleven invariants of the square s <= t, one composite at a
    time: with corners b = (t_x, s_y) and c = (s_x, t_y), i_d = r_bd +
    r_cd - rank [bd | cd] and k_a = dim_a - r_ab - r_ac + rank [ab; ac]."""
    s, t = tuple(s), tuple(t)
    b, c = (t[0], s[1]), (s[0], t[1])
    ab, ac, bd, cd = (composite(module, u, v) for u, v in ((s, b), (s, c), (b, t), (c, t)))
    r_ab, r_ac, r_bd, r_cd = (rank(m, module.p) for m in (ab, ac, bd, cd))
    return SquareInvariants(
        dim_a=module.dim_at(s),
        dim_b=module.dim_at(b),
        dim_c=module.dim_at(c),
        dim_d=module.dim_at(t),
        r_ab=r_ab,
        r_ac=r_ac,
        r_bd=r_bd,
        r_cd=r_cd,
        r_ad=rank(composite(module, s, t), module.p),
        i_d=r_bd + r_cd - rank(np.hstack((bd, cd)), module.p),
        k_a=module.dim_at(s) - r_ab - r_ac + rank(np.vstack((ab, ac)), module.p),
    )


def square_vector(inv: SquareInvariants) -> np.ndarray:
    """The eleven square invariants in field order."""
    return np.array((inv.dim_a, inv.dim_b, inv.dim_c, inv.dim_d, inv.r_ab, inv.r_ac, inv.r_bd, inv.r_cd, inv.r_ad,
                     inv.i_d, inv.k_a), dtype=np.int64)


def square_invariant_matrix() -> np.ndarray:
    """11x11 integer matrix: column j = invariants of interval type j.

    Row order matches `square_vector`, column order SQUARE_LABELS.
    Used to certify that decompose_square inverts it.
    """
    cols = []
    for lab in SQUARE_LABELS:
        has = {c: (c in lab) for c in "abcd"}
        dim_a, dim_b, dim_c, dim_d = (int(has[c]) for c in "abcd")
        r_ab = int(has["a"] and has["b"])
        r_ac = int(has["a"] and has["c"])
        r_bd = int(has["b"] and has["d"])
        r_cd = int(has["c"] and has["d"])
        r_ad = int(has["a"] and has["d"])
        i_d = int(has["d"] and has["b"] and has["c"])
        # Ker(a->b) + Ker(a->c) is all of the 1-dim corner space unless
        # both legs are injective, i.e. unless b and c both lie in the type
        k_a = int(has["a"] and not (has["b"] and has["c"]))
        cols.append([dim_a, dim_b, dim_c, dim_d, r_ab, r_ac, r_bd, r_cd, r_ad, i_d, k_a])
    return np.array(cols, dtype=np.int64).T


def is_strongly_exact(module: GridModule):
    """Middle exactness of M_s -> M_b (+) M_c -> M_t on every square.

    The image of the pairing map always sits inside the kernel of the
    difference map, so exactness is a dimension equality.  Returns
    (True, None) or (False, (s, t)) with the lexicographically smallest
    failing pair.
    """
    p = module.p
    for s, t in comparable_pairs(module.nx, module.ny):
        bpt, cpt = (t[0], s[1]), (s[0], t[1])
        pairing = np.vstack([composite(module, s, bpt), composite(module, s, cpt)])
        difference = np.hstack(
            [composite(module, bpt, t), (-composite(module, cpt, t)) % p]
        )
        if kernel_basis(difference, p).dim != rank(pairing, p):
            return False, (s, t)
    return True, None


# -- one-parameter and zigzag counts ----------------------------------------


def count_spanning(barcode: ZigzagBarcode, i: int, j: int) -> int:
    """Number of bars whose closed range contains [i, j]."""
    if i > j:
        raise ValueError("need i <= j")
    return sum(1 for b, d in barcode.intervals if b <= i and j <= d)


def interval_multiplicities(module: GridModule) -> dict:
    """{(s, t): multiplicity} of the intervals of a module on an n x 1
    grid: its rectangle barcode, read off the naive rank invariant."""
    if module.ny != 1:
        raise ValueError("interval_multiplicities expects a module on an n x 1 grid")
    barcode, clean = decompose(rank_invariant_naive(module))
    if not clean:
        raise InvariantError("a one-parameter rank invariant gave a negative multiplicity")
    return {(sx, tx): m for (sx, _, tx, _), m in barcode.items()}


# -- zigzag oracle: event lists and subspace pushes -------------------------


def image_of_subspace(a: np.ndarray, s: Subspace) -> Subspace:
    """a(S) for a linear map a and subspace S of its source."""
    return Subspace.from_columns(matmul(a, s.basis, s.p), s.p)


def preimage_of_subspace(a: np.ndarray, s: Subspace) -> Subspace:
    """{v : a v in S}, a subspace of the source of a."""
    p = s.p
    rows, cols = a.shape
    if rows != s.ambient_dim:
        raise ValueError("preimage needs map target = subspace ambient")
    if s.dim == 0:
        return kernel_basis(a, p)
    stacked = np.hstack([a, (-s.basis) % p])
    ker = kernel_basis(stacked, p)
    return Subspace.from_columns(ker.basis[:cols], p)


def module_barcode(dims, arrows, p: int) -> list:
    """Interval multiset of an explicitly given zigzag module.

    dims gives the dimension at each station; arrows holds one
    (direction, matrix) per consecutive pair, direction "fwd" meaning
    V_m -> V_{m+1} (matrix has dims[m+1] rows) and "bwd" the reverse.

    From each left endpoint i two nested subspaces travel right: L
    starts full, N starts zero; forward arrows push both through the
    matrix, backward arrows pull both back.  Every bar born strictly
    after station i on a backward arrow enters L and N together, and a
    bar through station i survives in L exactly while it is alive, so
    the spanning count is r(i, j) = dim L_j - dim N_j.  The push from i
    stops at the first r(i, j) = 0: N lies inside L, so equal dimensions
    mean equal subspaces, which stay equal under every later push or
    pull, and the rest of the row is 0.
    """
    k = len(dims)
    if len(arrows) != max(k - 1, 0):
        raise ValueError("need exactly one arrow between consecutive stations")
    mats = []
    for m, (direction, mat) in enumerate(arrows):
        mat = asmatrix(mat, p)
        want = (dims[m + 1], dims[m]) if direction == "fwd" else (dims[m], dims[m + 1])
        if direction not in ("fwd", "bwd"):
            raise ValueError(f"unknown arrow direction {direction!r}")
        if mat.shape != want:
            raise ValueError(f"arrow {m} has shape {mat.shape}, expected {want}")
        mats.append((direction, mat))
    r = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        live = Subspace(dims[i], np.eye(dims[i], dtype=np.int64), p)
        newborn = Subspace(dims[i], np.zeros((dims[i], 0), dtype=np.int64), p)
        r[i, i] = dims[i]
        for j in range(i + 1, k):
            direction, mat = mats[j - 1]
            if direction == "fwd":
                live = image_of_subspace(mat, live)
                newborn = image_of_subspace(mat, newborn)
            else:
                live = preimage_of_subspace(mat, live)
                newborn = preimage_of_subspace(mat, newborn)
            r[i, j] = live.dim - newborn.dim
            if r[i, j] == 0:
                break
    bars = []
    for i in range(k):
        for j in range(i, k):
            m = int(r[i, j])
            m -= int(r[i - 1, j]) if i > 0 else 0
            m -= int(r[i, j + 1]) if j + 1 < k else 0
            m += int(r[i - 1, j + 1]) if i > 0 and j + 1 < k else 0
            if m < 0:
                raise InvariantError("zigzag interval multiplicities must be nonnegative")
            bars.extend([(i, j)] * m)
    bars.sort()
    return bars


def _batch_key(s: tuple):
    return (len(s), s)


@dataclass
class ZigzagComplex:
    """Complexes along a path, consecutive ones related by inclusion.

    `initial` builds station 0 from the empty complex; step m turns
    station m into station m+1 by inserting a batch (forward arrow,
    station m included in station m+1) or deleting one (backward arrow).
    """

    initial: list
    steps: list  # (kind, [simplices]) with kind "insert" or "delete"

    def stations(self) -> list[set]:
        cur = set(self.initial)
        out = [set(cur)]
        for kind, batch in self.steps:
            cur = set(cur)
            if kind == "insert":
                cur.update(batch)
            else:
                cur.difference_update(batch)
            out.append(cur)
        return out

    def validate(self) -> list[str]:
        problems = []
        cur: set = set()
        for s in self.initial:
            if s in cur:
                problems.append(f"station 0: duplicate simplex {s}")
            cur.add(s)
        problems += _closure_problems(cur, "station 0")
        for m, (kind, batch) in enumerate(self.steps):
            if kind not in ("insert", "delete"):
                problems.append(f"step {m}: unknown kind {kind!r}")
                continue
            for s in batch:
                if kind == "insert":
                    if s in cur:
                        problems.append(f"step {m}: inserting already present {s}")
                    cur.add(s)
                else:
                    if s not in cur:
                        problems.append(f"step {m}: deleting absent {s}")
                    cur.discard(s)
            # a closed result after a delete batch means no simplex lost a face,
            # i.e. only coface-free simplices were removed
            problems += _closure_problems(cur, f"station {m + 1}")
        return problems


def _closure_problems(station: set, where: str) -> list[str]:
    out = []
    for s in station:
        if len(s) > 1:
            for f in facets(s):
                if f not in station:
                    out.append(f"{where}: face {f} of {s} missing")
    return out


def _zigzag_from_stations(stations: list, kinds: list) -> ZigzagComplex:
    steps = []
    for m, kind in enumerate(kinds):
        prev, cur = stations[m], stations[m + 1]
        if kind == "insert":
            if not prev <= cur:
                raise InvariantError("insert step must grow the complex")
            steps.append(("insert", sorted(cur - prev, key=_batch_key)))
        else:
            if not cur <= prev:
                raise InvariantError("delete step must shrink the complex")
            steps.append(("delete", sorted(prev - cur, key=_batch_key, reverse=True)))
    return ZigzagComplex(sorted(stations[0], key=_batch_key), steps)


def row_zigzag(bif: Bifiltration, t) -> ZigzagComplex:
    """Grow along the row of t, then shrink down its column.

    Stations F_(0,ty), ..., F_(tx,ty) = F_t, F_(tx,ty-1), ..., F_(tx,0);
    the first tx arrows are insertions, the remaining ty deletions.
    """
    tx, ty = t
    stations = [bif.complex_at((x, ty)) for x in range(tx + 1)]
    stations += [bif.complex_at((tx, y)) for y in range(ty - 1, -1, -1)]
    return _zigzag_from_stations(stations, ["insert"] * tx + ["delete"] * ty)


def col_zigzag(bif: Bifiltration, s) -> ZigzagComplex:
    """Shrink down the column of s from the top row, then grow along its row.

    Stations F_(sx,ny-1), ..., F_(sx,sy) = F_s, F_(sx+1,sy), ..., F_(nx-1,sy);
    the first ny-1-sy arrows are deletions (the later station is the
    smaller complex), the remaining nx-1-sx insertions.
    """
    sx, sy = s
    stations = [bif.complex_at((sx, y)) for y in range(bif.ny - 1, sy - 1, -1)]
    stations += [bif.complex_at((x, sy)) for x in range(sx + 1, bif.nx)]
    kinds = ["delete"] * (bif.ny - 1 - sy) + ["insert"] * (bif.nx - 1 - sx)
    return _zigzag_from_stations(stations, kinds)


def zigzag_barcode(zz: ZigzagComplex, degree: int, p: int = 2) -> ZigzagBarcode:
    """Barcode of the degree-q homology zigzag of an event list.

    Station homologies are computed inside one ambient complex (the
    union of all stations, necessarily closed under faces), inclusions
    induce the arrows, and the interval multiset comes out of
    `module_barcode`.  The result is checked to reconstruct the
    pointwise homology dimensions.
    """
    problems = zz.validate()
    if problems:
        raise ValueError(f"invalid zigzag complex: {problems[0]}")
    stations = zz.stations()
    universe = set()
    for st in stations:
        universe |= st
    ambient = Bifiltration({s: (0, 0) for s in universe}, 1, 1, p)
    data = [homology_basis(ambient, st, degree) for st in stations]
    dims = [hb.dim for hb in data]
    arrows = []
    for m, (kind, _) in enumerate(zz.steps):
        if kind == "insert":
            arrows.append(("fwd", homology_map(data[m], data[m + 1], p)))
        else:
            arrows.append(("bwd", homology_map(data[m + 1], data[m], p)))
    bc = ZigzagBarcode(len(dims), module_barcode(dims, arrows, p), degree)
    if any(bc.dim_at(i) != dims[i] for i in range(len(dims))):
        raise InvariantError("zigzag barcode does not reconstruct the station dimensions")
    return bc


# -- finite posets and their representations ----------------------------


class FinitePoset:
    """A finite poset given by its elements and covering relations."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        index = {u: i for i, u in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self.covers = [(u, v) for u, v in covers]
        for u, v in self.covers:
            if u not in index or v not in index:
                raise ValueError(f"cover ({u}, {v}) uses unknown elements")
        n = len(self.elements)
        leq = np.eye(n, dtype=bool)
        for u, v in self.covers:
            leq[index[u], index[v]] = True
        # transitive closure (Floyd-Warshall on the boolean matrix)
        for k in range(n):
            leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise ValueError("covers contain a cycle")
        self._index = index
        self._leq = leq

    def leq(self, u, v) -> bool:
        return bool(self._leq[self._index[u], self._index[v]])

    def restrict(self, keep) -> "FinitePoset":
        """Induced subposet, with covers recomputed inside the subset."""
        keep = [u for u in self.elements if u in set(keep)]
        covers = []
        for u in keep:
            for v in keep:
                if u != v and self.leq(u, v):
                    between = [w for w in keep if w not in (u, v) and self.leq(u, w) and self.leq(w, v)]
                    if not between:
                        covers.append((u, v))
        return FinitePoset(keep, covers)


class PosetModule:
    """A functor from a finite poset to F_p vector spaces.

    maps[(u, v)] is the matrix of the cover u < v; composites along
    different cover paths must agree (checked by validate).
    """

    def __init__(self, poset: FinitePoset, p: int, dims: dict, maps: dict):
        self.poset = poset
        self.p = check_modulus(p)
        self.dims = {u: int(dims.get(u, 0)) for u in poset.elements}
        self.maps = {}
        for (u, v) in poset.covers:
            m = maps.get((u, v))
            shape = (self.dims[v], self.dims[u])
            if m is None:
                m = np.zeros(shape, dtype=np.int64)
            m = np.mod(np.array(m, dtype=np.int64).reshape(shape), self.p)
            self.maps[(u, v)] = m

    def validate(self) -> list[str]:
        bad = []
        for u in self.poset.elements:
            for v in self.poset.elements:
                if u != v and self.poset.leq(u, v):
                    comps = self._path_composites(u, v)
                    for m in comps[1:]:
                        if not np.array_equal(m, comps[0]):
                            bad.append(f"path composites {u} -> {v} disagree")
                            break
        return bad

    def _path_composites(self, u, v) -> list[np.ndarray]:
        if u == v:
            return [np.eye(self.dims[u], dtype=np.int64)]
        out = []
        for (w, x) in self.poset.covers:
            if x == v and self.poset.leq(u, w):
                for m in self._path_composites(u, w):
                    out.append(matmul(self.maps[(w, x)], m, self.p))
        return out

    def restrict(self, keep) -> "PosetModule":
        sub = self.poset.restrict(keep)
        maps = {}
        for (u, v) in sub.covers:
            # a cover of the subposet is a comparable pair upstairs;
            # its matrix is any cover-path composite there
            maps[(u, v)] = self._composite(u, v)
        return PosetModule(sub, self.p, {u: self.dims[u] for u in sub.elements}, maps)

    def _composite(self, u, v) -> np.ndarray:
        comps = self._path_composites(u, v)
        if not comps:
            raise ValueError(f"{u} and {v} are not comparable")
        return comps[0]


def indicator_poset_module(poset: FinitePoset, support, p: int) -> PosetModule:
    """k at each point of `support` with identity maps inside it."""
    support = set(support)
    dims = {u: 1 if u in support else 0 for u in poset.elements}
    maps = {}
    for (u, v) in poset.covers:
        if u in support and v in support:
            maps[(u, v)] = np.array([[1]], dtype=np.int64)
    return PosetModule(poset, p, dims, maps)


class GridEmbedding:
    """A fully faithful poset map into a finite grid.

    mapping[u] is a 0-based grid point; full faithfulness means
    u <= v in the poset iff mapping[u] <= mapping[v] in the grid order.
    """

    def __init__(self, poset: FinitePoset, mapping: dict):
        self.poset = poset
        self.mapping = {u: tuple(mapping[u]) for u in poset.elements}
        if len(set(self.mapping.values())) != len(poset.elements):
            raise ValueError("embedding is not injective")
        for u in poset.elements:
            for v in poset.elements:
                grid_leq = (
                    self.mapping[u][0] <= self.mapping[v][0]
                    and self.mapping[u][1] <= self.mapping[v][1]
                )
                if poset.leq(u, v) != grid_leq:
                    raise ValueError(f"embedding not fully faithful at ({u}, {v})")


def hom_basis_poset(a: PosetModule, b: PosetModule) -> list[dict]:
    """Basis of natural transformations a -> b over a shared poset."""
    if a.poset is not b.poset and a.poset.elements != b.poset.elements:
        raise ValueError("hom needs a shared poset")
    edges = [(u, v, a.maps[(u, v)], b.maps[(u, v)]) for (u, v) in a.poset.covers]
    return naturality_hom_basis(a.poset.elements, a.dims, b.dims, edges, a.p)


def hom_dim_poset(a: PosetModule, b: PosetModule) -> int:
    return len(hom_basis_poset(a, b))


# -- the dart poset and its grid embedding -------------------------------


def dart(n: int, p: int = 2) -> PosetModule:
    """The (n+2)-element poset 1..n+1 < n+2 carrying k -> k^n maps.

    Elements 1..n map in by the coordinate inclusions, element n+1 by
    the diagonal; every pointwise dimension is at most n while the
    poset width is n+1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    elements = list(range(1, n + 3))
    top = n + 2
    covers = [(i, top) for i in range(1, n + 2)]
    poset = FinitePoset(elements, covers)
    dims = {i: 1 for i in range(1, n + 2)}
    dims[top] = n
    maps = {}
    for i in range(1, n + 1):
        col = np.zeros((n, 1), dtype=np.int64)
        col[i - 1, 0] = 1
        maps[(i, top)] = col
    maps[(n + 1, top)] = np.ones((n, 1), dtype=np.int64)
    return PosetModule(poset, p, dims, maps)


def dart_embedding(n: int) -> GridEmbedding:
    """The standard embedding into the (n+1) x (n+1) grid (0-based).

    Element i goes to the antidiagonal point (i-1, n+1-i); the top
    element goes to the upper-right corner.
    """
    module_poset = dart(n).poset
    mapping = {i: (i - 1, n + 1 - i) for i in range(1, n + 2)}
    mapping[n + 2] = (n, n)
    return GridEmbedding(module_poset, mapping)


# -- right Kan extension --------------------------------------------------


def ran_extension(module: PosetModule, embedding: GridEmbedding, nx: int, ny: int) -> GridModule:
    """Right Kan extension along a grid embedding, computed pointwise.

    At a grid point t the value is the limit of the module over the
    upset {u : e(u) >= t}, realized as the kernel of the difference map
    prod_u N_u -> prod_{covers u < u' inside the upset} N_u'; the limit
    of the empty diagram is the zero space.  Edge maps drop the
    coordinates that leave the upset.
    """
    p = module.p
    poset = module.poset
    elems = poset.elements
    emb = embedding.mapping

    def upset(t):
        return [u for u in elems if emb[u][0] >= t[0] and emb[u][1] >= t[1]]

    limits = {}
    for x in range(nx):
        for y in range(ny):
            t = (x, y)
            us = upset(t)
            offs = {}
            total = 0
            for u in us:
                offs[u] = total
                total += module.dims[u]
            rows = []
            for (u, v) in poset.covers:
                if u in offs and v in offs:
                    dv = module.dims[v]
                    if dv == 0:
                        continue
                    row = np.zeros((dv, total), dtype=np.int64)
                    row[:, offs[u] : offs[u] + module.dims[u]] = module.maps[(u, v)]
                    row[:, offs[v] : offs[v] + dv] -= np.eye(dv, dtype=np.int64)
                    rows.append(np.mod(row, p))
            system = np.vstack(rows) if rows else np.zeros((0, total), dtype=np.int64)
            limits[t] = (us, offs, total, kernel_basis(system, p))

    dims = np.zeros((nx, ny), dtype=np.int64)
    for t, (_, _, _, ker) in limits.items():
        dims[t] = ker.dim

    def edge(t, t2):
        us, offs, total, ker = limits[t]
        us2, offs2, total2, ker2 = limits[t2]
        proj = np.zeros((total2, total), dtype=np.int64)
        for u in us2:
            d = module.dims[u]
            proj[offs2[u] : offs2[u] + d, offs[u] : offs[u] + d] = np.eye(d, dtype=np.int64)
        projected = matmul(proj, ker.basis, p)
        sol = solve_matrix(ker2.basis, projected, p)
        if sol is None:
            raise InvariantError("restricted limit family is not a limit family")
        return sol

    hmaps, vmaps = {}, {}
    for x in range(nx - 1):
        for y in range(ny):
            hmaps[(x, y)] = edge((x, y), (x + 1, y))
    for x in range(nx):
        for y in range(ny - 1):
            vmaps[(x, y)] = edge((x, y), (x, y + 1))
    return GridModule(nx, ny, p, dims, hmaps, vmaps)


def pad(module: GridModule, nx: int, ny: int) -> GridModule:
    """Copy-paste into the bottom-left of a larger grid, zero elsewhere."""
    if nx < module.nx or ny < module.ny:
        raise ValueError("target grid must contain the module's grid")
    dims = np.zeros((nx, ny), dtype=np.int64)
    dims[: module.nx, : module.ny] = module.dims
    hmaps = {k: v for k, v in module.hmaps.items()}
    vmaps = {k: v for k, v in module.vmaps.items()}
    return GridModule(nx, ny, module.p, dims, hmaps, vmaps)


# -- randomized isomorphism confirmation ----------------------------------


def iso_test(a: GridModule, b: GridModule, trials: int = 64, seed: int = 0):
    """One-sided randomized isomorphism check.

    Samples random F_p combinations of a Hom basis and tests pointwise
    invertibility; returns ("confirmed", None) on success and
    ("undetermined", reason) otherwise.  Never asserts non-isomorphism;
    p >= 101 keeps the failure probability of a true isomorphism low.
    """
    if (a.nx, a.ny) != (b.nx, b.ny) or a.p != b.p:
        return "undetermined", "grids or fields differ"
    for t in iter_points(a.nx, a.ny):
        if a.dim_at(t) != b.dim_at(t):
            return "undetermined", f"pointwise dimensions differ at {t}"
    if int(a.dims.sum()) == 0:
        return "confirmed", None  # both zero modules
    basis = hom_basis(a, b)
    if not basis:
        return "undetermined", "Hom space is zero"
    p = a.p
    support = [t for t in iter_points(a.nx, a.ny) if a.dim_at(t) > 0]
    # Deterministic first try: a combination that is the identity at
    # every point (one linear solve) is immediately an isomorphism.
    blocks, targets = [], []
    for t in support:
        d = a.dim_at(t)
        block = np.zeros((d * d, len(basis)), dtype=np.int64)
        for i, h in enumerate(basis):
            if t in h:
                block[:, i] = h[t].reshape(-1)
        blocks.append(block)
        targets.append(np.eye(d, dtype=np.int64).reshape(-1))
    if solve(np.vstack(blocks), np.concatenate(targets), p) is not None:
        return "confirmed", None
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randrange(p) for _ in basis]
        ok = True
        for t in support:
            phi = np.zeros((b.dim_at(t), a.dim_at(t)), dtype=np.int64)
            for c, h in zip(coeffs, basis):
                if c and t in h:
                    phi = (phi + c * h[t]) % p
            if not invertible(phi, p):
                ok = False
                break
        if ok:
            return "confirmed", None
    return "undetermined", f"no invertible combination found in {trials} trials"


def int_rows(text: str, fields: str, first_line: int = 1):
    """`ioutil.block_rows` over a whole text whose first line is line
    `first_line`, one `ioutil.line_blocks` run at a time, each run's
    rows copied into one array allocated for as many rows as the text
    can hold (a row takes a line, and at least one character and one
    separator per field): (rows, lines, error), the rows of the lines
    before the first malformed one, their line numbers, and the
    FormatError naming that line or None.
    """
    width = len(fields.split())
    cap = min(text.count("\n") + 1, (len(text) + 1) // (2 * width))
    rows = np.empty((cap, width), dtype=np.int64)
    lines = np.empty(cap, dtype=np.int64)
    n = 0
    for first, block in line_blocks(text):
        got, got_lines, error = block_rows(block, fields, first + first_line - 1)
        rows[n : n + len(got)], lines[n : n + len(got)] = got, got_lines
        n += len(got)
        if error is not None:
            return rows[:n], lines[:n], error
    return rows[:n], lines[:n], None


def boundary_matrix(bif: Bifiltration, q: int) -> np.ndarray:
    """The dense boundary of q-chains over the full simplex universe, mod
    p, entry by entry: the oracle of `Bifiltration.boundary_columns`."""
    cols, rows = bif.by_dim.get(q, []), bif.by_dim.get(q - 1, [])
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    ridx = {s: i for i, s in enumerate(rows)}
    for j, s in enumerate(cols):
        for i, f in enumerate(facets(s)):
            if f not in ridx:
                raise ValueError(f"face {f} of {s} is missing")
            mat[ridx[f], j] = (-1) ** i % bif.p
    return mat


def graded_matrix(target, source, entries, p: int) -> GradedMatrix:
    """The graded matrix of a dense matrix of any int entries, reduced mod
    p, held as `GradedMatrix` holds its columns."""
    entries = np.asarray(entries, dtype=np.int64).reshape(len(target), len(source)) % p
    return GradedMatrix(target, source, ColumnReducer.columns(entries, p), p)


def dense(gm) -> np.ndarray:
    """The int64 matrix of the graded matrix `gm`."""
    return ColumnReducer.dense(gm.columns, len(gm.target), gm.p)


def inhomogeneous_entries(gm) -> list:
    """(i, j) for each nonzero entry of the graded matrix `gm` whose row
    grade is not below its column grade, in row-major order."""
    rows, cols = np.nonzero(dense(gm))
    target = np.array(gm.target.grades, dtype=np.int64).reshape(-1, 2)
    source = np.array(gm.source.grades, dtype=np.int64).reshape(-1, 2)
    bad = (target[rows] > source[cols]).any(axis=1)
    return list(zip(rows[bad].tolist(), cols[bad].tolist()))


def _leq(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def evaluate(res, t):
    """Dimensions and matrices of the evaluated resolution at grid point t.

    Returns ((k, l, m), phi_t, psi_t) where k/l/m count basis elements
    of grade <= t and the matrices are the corresponding submatrices.
    """
    gsel = [i for i, g in enumerate(res.gens.grades) if _leq(g, t)]
    rsel = [j for j, g in enumerate(res.rels.grades) if _leq(g, t)]
    zsel = [r for r, g in enumerate(res.relrels.grades) if _leq(g, t)]
    phi_t = dense(res.phi)[np.ix_(gsel, rsel)]
    psi_t = dense(res.psi)[np.ix_(rsel, zsel)]
    return (len(gsel), len(rsel), len(zsel)), phi_t, psi_t


def validate_resolution(res, bif: Bifiltration, degree: int) -> Optional[str]:
    """Check exactness of 0 -> relrels -> rels -> gens -> H_q -> 0 pointwise.

    Returns None when the evaluated sequence is exact at every grid
    point, else a message naming the first failing point (y-major
    order) and the failing slot.  The homology dimensions come from the
    brute-force oracle module.
    """
    p = res.p
    if matmul(dense(res.phi), dense(res.psi), p).any():
        return "phi . psi is not zero"
    oracle = homology_module(bif, degree)
    if (oracle.nx, oracle.ny) != (res.nx, res.ny):
        return "resolution grid does not match the bifiltration grid"
    for y in range(res.ny):
        for x in range(res.nx):
            t = (x, y)
            (k, l, m), phi_t, psi_t = evaluate(res, t)
            r_phi = rank(phi_t, p)
            if rank(psi_t, p) != m:
                return f"psi not injective at {t}"
            if l - r_phi != m:
                return f"Ker phi != Im psi at {t}"
            if k - r_phi != oracle.dim_at(t):
                return (
                    f"coker phi has dimension {k - r_phi} at {t} "
                    f"but homology has {oracle.dim_at(t)}"
                )
    return None


def reference_check(r: RankInvariant, ki):
    """Oracle for `weakexact.check_rectangle_decomposable`: the dense
    tables scanned in `comparable_pairs` order, once for a broken bound
    (r(s, t) > iota(s, t) or kappa(s, t) > r(s, s) - r(s, t)), which
    raises the same InvariantError, then for the first pair where an
    equality fails, with the same witness and reason."""
    if (r.nx, r.ny) != (ki.nx, ki.ny):
        raise ValueError("rank invariant and kappa/iota tables use different grids")
    rank_t, iota_t, kappa_t = (table.table.astype(np.int64) for table in (r, ki.iota, ki.kappa))
    pairs = list(comparable_pairs(r.nx, r.ny))
    for s, t in pairs:
        if rank_t[s + t] > iota_t[s + t] or kappa_t[s + t] > rank_t[s + s] - rank_t[s + t]:
            raise InvariantError(f"kernel/image tables out of bounds at [s, t] = {[*s, *t]}")
    for s, t in pairs:
        rank_st, iota, corank, kappa = rank_t[s + t], iota_t[s + t], rank_t[s + s] - rank_t[s + t], kappa_t[s + t]
        if rank_st != iota:
            return False, (s, t, f"rank {rank_st} != image intersection {iota}")
        if corank != kappa:
            return False, (s, t, f"corank {corank} != kernel sum {kappa}")
    return True, None
