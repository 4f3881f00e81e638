"""Rectangle-decomposability via kernel and image invariants.

A module is rectangle-decomposable exactly when, over every comparable
pair s <= t with corner points b = (t_x, s_y) and c = (s_x, t_y),

    rank(s -> t) = dim(Im(b -> t)  intersect  Im(c -> t))      (iota)
    dim V_s - rank(s -> t) = dim(Ker(s -> b) + Ker(s -> c))    (kappa)

Both right-hand sides are readable off zigzag barcodes of one row and
one column path per grid point, and all paths share one computation of
the station homology; a direct subspace-arithmetic oracle is provided
for cross-checking on explicit modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bifiltration import Bifiltration, homology_module
from .grid_module import (
    GridModule,
    RankInvariant,
    check_table_grid,
    comparable_pairs,
    is_strongly_exact,
    is_weakly_exact_algebraic,
    is_weakly_exact_geometric,
    iter_points,
)
from .linalg import image_basis, kernel_basis, subspace_intersect, subspace_sum
from .rank_dp import rank_from_resolution
from .resolution import free_resolution
from .zigzag import checked_barcode, count_spanning


@dataclass
class KappaIota:
    """4-D tables indexed [s_x, s_y, t_x, t_y]; zero off comparable pairs."""

    nx: int
    ny: int
    kappa: np.ndarray
    iota: np.ndarray


def kappa_iota_from_zigzags(bif: Bifiltration, degree: int, jobs=None) -> KappaIota:
    """Fill both tables from zigzag barcodes of row and column paths.

    Every station of a row or column path is a grid-point complex
    F_(x,y) and every arrow a unit-edge inclusion, so the station
    homology is built once, as `homology_module`, and each path reads
    its dimensions and edge maps from it.  One row path per t serves
    iota for every s <= t, one column path per s serves kappa for every
    t >= s.  The barcode is an isomorphism invariant, so the homology
    bases of the full complex give the same tables as those of each
    path's own ambient complex.  The paths run one after another;
    `jobs` must be None (any other value raises ValueError).
    """
    if jobs is not None:
        raise ValueError("kappa_iota_from_zigzags runs serially; pass None for jobs")
    nx, ny, p = bif.nx, bif.ny, bif.p
    check_table_grid(nx, ny, 2)
    module = homology_module(bif, degree)
    kappa = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    iota = np.zeros((nx, ny, nx, ny), dtype=np.int64)

    def path_barcode(stations, arrows):
        dims = [module.dim_at(st) for st in stations]
        return checked_barcode(dims, arrows, p, degree)

    for tx, ty in iter_points(nx, ny):
        # stations walk (x, t_y) for x = 0..t_x, then (t_x, y) downwards,
        # so F_(s_x, t_y) sits at s_x and F_(t_x, s_y) at t_x + (t_y - s_y)
        down = range(ty - 1, -1, -1)
        bc = path_barcode(
            [(x, ty) for x in range(tx + 1)] + [(tx, y) for y in down],
            [("fwd", module.hmaps[(x, ty)]) for x in range(tx)]
            + [("bwd", module.vmaps[(tx, y)]) for y in down],
        )
        for sx in range(tx + 1):
            for sy in range(ty + 1):
                iota[sx, sy, tx, ty] = count_spanning(bc, sx, tx + ty - sy)
    for sx, sy in iter_points(nx, ny):
        # stations walk (s_x, y) for y = n_y-1..s_y, then (x, s_y) rightwards,
        # so F_(s_x, t_y) sits at n_y-1-t_y and F_(t_x, s_y) at n_y-1-s_y + t_x-s_x
        down = range(ny - 2, sy - 1, -1)
        bc = path_barcode(
            [(sx, ny - 1)] + [(sx, y) for y in down] + [(x, sy) for x in range(sx + 1, nx)],
            [("bwd", module.vmaps[(sx, y)]) for y in down]
            + [("fwd", module.hmaps[(x, sy)]) for x in range(sx, nx - 1)],
        )
        s_station = ny - 1 - sy
        dim_s = count_spanning(bc, s_station, s_station)
        for tx in range(sx, nx):
            for ty in range(sy, ny):
                kappa[sx, sy, tx, ty] = dim_s - count_spanning(
                    bc, ny - 1 - ty, s_station + tx - sx
                )
    return KappaIota(nx, ny, kappa, iota)


def kappa_iota_naive(module: GridModule) -> KappaIota:
    """Direct subspace arithmetic on an explicit module; the oracle path."""
    nx, ny, p = module.nx, module.ny, module.p
    check_table_grid(nx, ny, 2)
    kappa = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    iota = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    for s, t in comparable_pairs(nx, ny):
        b, c = (t[0], s[1]), (s[0], t[1])
        iota[s[0], s[1], t[0], t[1]] = subspace_intersect(
            image_basis(module.composite(b, t), p),
            image_basis(module.composite(c, t), p),
        ).dim
        kappa[s[0], s[1], t[0], t[1]] = subspace_sum(
            kernel_basis(module.composite(s, b), p),
            kernel_basis(module.composite(s, c), p),
        ).dim
    return KappaIota(nx, ny, kappa, iota)


def check_rectangle_decomposable(r: RankInvariant, ki: KappaIota):
    """Decide decomposability from the rank invariant and the two tables.

    Returns (True, None) or (False, (s, t, reason)) with the
    lexicographically first failing comparable pair.
    """
    if (r.nx, r.ny) != (ki.nx, ki.ny):
        raise ValueError("rank invariant and kappa/iota tables use different grids")
    for s, t in comparable_pairs(r.nx, r.ny):
        r_st = r.get(s, t)
        i_st = int(ki.iota[s[0], s[1], t[0], t[1]])
        if r_st != i_st:
            return False, (s, t, f"rank {r_st} != image intersection {i_st}")
        k_st = int(ki.kappa[s[0], s[1], t[0], t[1]])
        corank = r.get(s, s) - r_st
        if corank != k_st:
            return False, (s, t, f"corank {corank} != kernel sum {k_st}")
    return True, None


def check_bifiltration(bif: Bifiltration, degree: int):
    """End-to-end decision for degree-q homology of a bifiltration.

    Rank invariant via the resolution DP, kappa/iota via the zigzag
    paths of one serial sweep, then the pointwise comparison; same
    return shape as the checker.  A grid past the dense-table cap is
    refused before any work.
    """
    check_table_grid(bif.nx, bif.ny, 3)
    r = rank_from_resolution(free_resolution(bif, degree))
    return check_rectangle_decomposable(r, kappa_iota_from_zigzags(bif, degree))


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
