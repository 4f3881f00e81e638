"""Rectangle-decomposability via kernel and image invariants.

A module is rectangle-decomposable exactly when, over every comparable
pair s <= t with corner points b = (t_x, s_y) and c = (s_x, t_y),

    rank(s -> t) = dim(Im(b -> t)  intersect  Im(c -> t))      (iota)
    dim V_s - rank(s -> t) = dim(Ker(s -> b) + Ker(s -> c))    (kappa)

Each right-hand side is one joint rank:

    iota(s, t)  = r(b, t) + r(c, t) - rank [M(b -> t) | M(c -> t)]
    kappa(s, t) = dim M_s - r(s, b) - r(s, c) + rank [M(s -> b) ; M(s -> c)]

`kappa_iota` fills both tables this way from an explicit module; the
tests check it against direct subspace arithmetic at every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bifiltration import Bifiltration, homology_module
from .grid_module import (
    GridModule,
    RankInvariant,
    check_table_grid,
    comparable_mask,
    is_strongly_exact,
    is_weakly_exact_algebraic,
    is_weakly_exact_geometric,
    iter_points,
)
from .ioutil import InvariantError
from .linalg import matmul, rank
from .rank_dp import rank_from_resolution
from .resolution import free_resolution


@dataclass
class KappaIota:
    """4-D tables indexed [s_x, s_y, t_x, t_y]; zero off comparable pairs."""

    nx: int
    ny: int
    kappa: np.ndarray
    iota: np.ndarray


def _image_intersections(module: GridModule) -> np.ndarray:
    """The iota table: for each t, walk the maps into t along its row and
    column, one product per unit edge, then one joint rank per s <= t."""
    nx, ny, p = module.nx, module.ny, module.p
    iota = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    for tx, ty in iter_points(nx, ny):
        # row[x] is M((x, t_y) -> t) = M(c -> t), col[y] is M((t_x, y) -> t) = M(b -> t)
        row = col = [np.eye(module.dim_at((tx, ty)), dtype=np.int64)]
        for x in range(tx - 1, -1, -1):
            row = [matmul(row[0], module.hmaps[(x, ty)], p)] + row
        for y in range(ty - 1, -1, -1):
            col = [matmul(col[0], module.vmaps[(tx, y)], p)] + col
        r_row, r_col = [rank(m, p) for m in row], [rank(m, p) for m in col]
        for sx, sy in iter_points(tx + 1, ty + 1):
            if r_row[sx] and r_col[sy]:  # else one image is zero, and so is iota
                joint = rank(np.hstack((col[sy], row[sx])), p)
                iota[sx, sy, tx, ty] = r_row[sx] + r_col[sy] - joint
    return iota


def kappa_iota(module: GridModule) -> KappaIota:
    """Both tables of an explicit module, from one joint rank per pair.

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
    """`kappa_iota` of a bifiltration's degree-q homology, refusing grids past
    the cap first.  Name and `jobs` (None only) are kept for perfbench/traced.py."""
    if jobs is not None:
        raise ValueError("kappa_iota_from_zigzags runs serially; pass None for jobs")
    check_table_grid(bif.nx, bif.ny, 2)
    return kappa_iota(homology_module(bif, degree))


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

    Rank invariant via the resolution DP, kappa/iota from the joint
    ranks of the homology module, then the pointwise comparison; same
    return shape as the checker.  A grid past the dense-table cap is
    refused before any work.
    """
    check_table_grid(bif.nx, bif.ny, 3)
    r = rank_from_resolution(free_resolution(bif, degree))
    return check_rectangle_decomposable(r, kappa_iota(homology_module(bif, degree)))


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
