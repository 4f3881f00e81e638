"""Rectangle-decomposability via kernel and image invariants.

A module is rectangle-decomposable exactly when, over every comparable
pair s <= t with corner points b = (t_x, s_y) and c = (s_x, t_y),

    rank(s -> t) = dim(Im(b -> t)  intersect  Im(c -> t))      (iota)
    dim V_s - rank(s -> t) = dim(Ker(s -> b) + Ker(s -> c))    (kappa)

For a fixed t the images into M_t along its row, A_x = Im M((x, t_y) -> t),
and along its column, B_y = Im M((t_x, y) -> t), are two flags, and
iota(s, t) = dim(A_{s_x} cap B_{s_y}).  This is the zigzag through t,
(0, t_y) -> ... -> t <- ... <- (t_x, 0), read off at once: one column
reduction pairs the two flags, and a 2-D cumulative sum of the pairs
(`linalg.pair_counts`, shared with the rank DP) gives iota(s, t) for
every s <= t.  kappa is the same routine on the dual module.  That is
O(n_x n_y) eliminations per table, against one per comparable pair.

`kappa_iota` fills both tables this way from an explicit module; the
tests check it against direct subspace arithmetic at every pair.  Both
tables are isomorphism invariants, so any model of the module serves:
for a bifiltration, `check_bifiltration` (the default `zigzag` route of
`check-rectangle`) builds one presentation, runs the rank DP on it and
reads the module off it with `resolution.presented_module`, so no
homology is solved per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bifiltration import Bifiltration
from .grid_module import (
    GridModule,
    RankInvariant,
    check_table_grid,
    comparable_mask,
    is_strongly_exact,
    is_weakly_exact_algebraic,
    is_weakly_exact_geometric,
)
from .ioutil import InvariantError
from .linalg import matmul, pair_counts, rref, solve_matrix
from .rank_dp import rank_from_resolution
from .resolution import presentation, presented_module


@dataclass
class KappaIota:
    """4-D tables indexed [s_x, s_y, t_x, t_y]; zero off comparable pairs."""

    nx: int
    ny: int
    kappa: np.ndarray
    iota: np.ndarray


def _flag_basis(pushed: np.ndarray, births: np.ndarray, here: int, p: int):
    """A basis of F_p^d adapted to a flag, with the birth of each vector.

    `pushed` holds a spanning set of the earlier flag spaces, sorted by
    birth; each column independent of those before it is kept, and unit
    vectors born at `here` complete the basis.  Every flag space is then
    the span of the basis vectors born at or before its index.
    """
    d = pushed.shape[0]
    cand = np.hstack((pushed, np.eye(d, dtype=np.int64)))
    born = np.concatenate((births, np.full(d, here, dtype=np.int64)))
    keep = rref(cand, p)[1]  # echelon pivots: each column independent of those before it
    return cand[:, keep], born[keep]


def _image_intersections(module: GridModule) -> np.ndarray:
    """The iota table, from one two-flag pairing per grid point t.

    A_x = Im M((x, t_y) -> t) and B_y = Im M((t_x, y) -> t) are flags in
    M_t.  Adapted bases come from the neighbours' bases pushed one edge
    forward.  Let X be the B-basis in coordinates of the A-basis, rows
    ordered by falling A-birth.  Then dim B_y - dim(A_x cap B_y) is the
    rank of the rows of A-birth > x in the columns of B-birth <= y, a
    lower-left submatrix.  One left-to-right reduction of X pairs every
    column with a lead row (X is invertible), so by the pairing lemma
    iota(s, t) counts the pairs with A-birth <= s_x and B-birth <= s_y.
    """
    nx, ny, p = module.nx, module.ny, module.p
    iota = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    no_births = np.zeros(0, dtype=np.int64)
    below = [None] * nx  # the B-adapted bases at (x, t_y - 1)
    for ty in range(ny):
        left = None  # the A-adapted basis at (t_x - 1, t_y)
        for tx in range(nx):
            d = module.dim_at((tx, ty))
            if d == 0:
                left = below[tx] = (np.zeros((0, 0), dtype=np.int64), no_births)
                continue
            empty = (np.zeros((d, 0), dtype=np.int64), no_births)
            into = (matmul(module.hmaps[(tx - 1, ty)], left[0], p), left[1]) if tx else empty
            left = a, a_birth = _flag_basis(*into, tx, p)
            into = (matmul(module.vmaps[(tx, ty - 1)], below[tx][0], p), below[tx][1]) if ty else empty
            below[tx] = b, b_birth = _flag_basis(*into, ty, p)
            coords = solve_matrix(a, b, p)[::-1]
            iota[: tx + 1, : ty + 1, tx, ty] = pair_counts(coords, a_birth[::-1], b_birth, (tx + 1, ty + 1), p)
    return iota


def kappa_iota(module: GridModule) -> KappaIota:
    """Both tables of an explicit module, from one pairing per grid point.

    Ker(s -> b) + Ker(s -> c) is the annihilator of the intersection of
    the row spaces of M(s -> b) and M(s -> c).  Those row spaces are the
    images into s' of the dual module, on the grid reversed by
    u' = (n_x-1-u_x, n_y-1-u_y), so kappa(s, t) = dim M_s - iota*(t', s'):
    the dual's walks into s' are the walks out of s, transposed.
    """
    nx, ny = module.nx, module.ny
    check_table_grid(nx, ny, 2)
    # one expression, so the dual's table is freed before iota's is built
    kappa = module.dims[:, :, None, None] - (
        _image_intersections(module.dualize())[::-1, ::-1, ::-1, ::-1].transpose(2, 3, 0, 1)
    )
    kappa[~comparable_mask(nx, ny)] = 0
    return KappaIota(nx, ny, kappa, _image_intersections(module))


def kappa_iota_from_zigzags(bif: Bifiltration, degree: int, jobs=None) -> KappaIota:
    """`kappa_iota` of the module presented by `presentation(bif, degree)`,
    refusing grids past the cap first; the same tables `check_bifiltration`
    builds, from a presentation of its own.  Name and `jobs` (None only)
    are kept for perfbench/traced.py."""
    if jobs is not None:
        raise ValueError("kappa_iota_from_zigzags runs serially; pass None for jobs")
    check_table_grid(bif.nx, bif.ny, 2)
    return kappa_iota(presented_module(presentation(bif, degree)))


def check_rectangle_decomposable(r: RankInvariant, ki: KappaIota):
    """Decide decomposability from the rank invariant and the two tables.

    Returns (True, None) or (False, (s, t, reason)) with the
    lexicographically first failing comparable pair.  Every module has
    r(s, t) <= iota(s, t) and kappa(s, t) <= r(s, s) - r(s, t), since
    Im(s -> t) lies in both corner images and both corner kernels lie in
    Ker(s -> t); tables that break either bound raise InvariantError.
    """
    if (r.nx, r.ny) != (ki.nx, ki.ny):
        raise ValueError("rank invariant and kappa/iota tables use different grids")
    x, y = np.arange(r.nx)[:, None], np.arange(r.ny)[None, :]
    corank = r.table[x, y, x, y][:, :, None, None] - r.table
    mask = comparable_mask(r.nx, r.ny)
    broken = mask & ((r.table > ki.iota) | (ki.kappa > corank))
    if broken.any():
        at = np.argwhere(broken)[0].tolist()
        raise InvariantError(f"kernel/image tables out of bounds at [s, t] = {at}")
    fails = mask & ((r.table != ki.iota) | (corank != ki.kappa))
    if not fails.any():
        return True, None
    at = tuple(int(v) for v in np.unravel_index(np.argmax(fails), fails.shape))  # C order: lexicographic
    s, t = at[:2], at[2:]
    if r.table[at] != ki.iota[at]:
        return False, (s, t, f"rank {r.table[at]} != image intersection {ki.iota[at]}")
    return False, (s, t, f"corank {corank[at]} != kernel sum {ki.kappa[at]}")


def check_bifiltration(bif: Bifiltration, degree: int):
    """End-to-end decision for degree-q homology of a bifiltration.

    One presentation feeds both sides: the rank invariant comes from the
    DP on it, and kappa/iota from one two-flag pairing per grid point of
    the module it presents (`presented_module`); then the pointwise
    comparison, with the same return shape as the checker.  No homology
    is solved per grid point.  A grid past the dense-table cap is
    refused before any work.
    """
    check_table_grid(bif.nx, bif.ny, 3)
    pres = presentation(bif, degree)
    return check_rectangle_decomposable(rank_from_resolution(pres), kappa_iota(presented_module(pres)))


def check_module(module: GridModule, method: str = "algebraic"):
    """Uniform front end over the explicit-module checkers.

    "algebraic" tests the kernel/image equalities directly,
    "geometric" looks for hooks in square barcodes, and "strong"
    tests the strong exactness equality; all agree on their verdict
    for the weak checkers and return the same first witness.
    """
    checkers = {
        "algebraic": (is_weakly_exact_algebraic, "kernel/image equalities fail"),
        "geometric": (is_weakly_exact_geometric, "square barcode contains a hook"),
        "strong": (is_strongly_exact, "strong exactness equality fails"),
    }
    if method not in checkers:
        raise ValueError(f"unknown method {method!r}")
    checker, reason = checkers[method]
    ok, witness = checker(module)
    if ok:
        return True, None
    return False, (witness[0], witness[1], reason)
