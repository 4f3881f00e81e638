"""Rectangle-decomposability via kernel and image invariants.

A module is rectangle-decomposable exactly when, over every comparable
pair s <= t with corner points b = (t_x, s_y) and c = (s_x, t_y),

    rank(s -> t) = dim(Im(b -> t)  intersect  Im(c -> t))      (iota)
    dim V_s - rank(s -> t) = dim(Ker(s -> b) + Ker(s -> c))    (kappa)

For a fixed t the images into M_t along its row, A_x = Im M((x, t_y) -> t),
and along its column, B_y = Im M((t_x, y) -> t), are two flags, and
iota(s, t) = dim(A_{s_x} cap B_{s_y}).  This is the zigzag through t,
(0, t_y) -> ... -> t <- ... <- (t_x, 0), read off at once: adapted
bases of the flags come from the neighbours' pushed one edge forward
(`linalg.flag_step`), and one column reduction pairs them, whose 2-D
cumulative pair counts give iota(s, t) for every s <= t
(`linalg.pair_flags`, on the `pair_counts` of the rank DP).  The
`zigzag-barcode` subcommand walks the same flags along one path.
kappa is the same routine on the dual module.  That is O(n_x n_y)
eliminations per table, against one per comparable pair.

`kappa_iota` fills both tables this way from an explicit module; the
tests check it against direct subspace arithmetic at every pair.  The
default `zigzag` route of `check-rectangle` compares them with the rank
invariant.  For a module, `check_module` takes the naive rank
invariant.  Both tables are isomorphism invariants, so any model of the
module serves: for a bifiltration, `check_bifiltration` builds one
presentation, runs the rank DP on it and reads the module off it with
`resolution.presented_module`, so no homology is solved per grid point.
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
    rank_invariant_naive,
    table_dtype,
)
from .ioutil import InvariantError
from .linalg import flag_step, pair_flags
from .rank_dp import rank_from_resolution
from .resolution import presentation, presented_module


@dataclass
class KappaIota:
    """4-D tables indexed [s_x, s_y, t_x, t_y]; zero off comparable pairs.

    Every entry is at most the largest dimension of the module, so
    `kappa_iota` stores int32 entries when that fits (`table_dtype`).
    """

    nx: int
    ny: int
    kappa: np.ndarray
    iota: np.ndarray


def _image_intersections(module: GridModule) -> np.ndarray:
    """The iota table, from one two-flag pairing per grid point t.

    A_x = Im M((x, t_y) -> t) and B_y = Im M((t_x, y) -> t) are flags in
    M_t.  Their adapted bases come from the neighbours' bases pushed one
    edge forward (`linalg.flag_step`), and one pairing of the two
    (`linalg.pair_flags`) gives iota(s, t) = dim(A_{s_x} cap B_{s_y})
    for every s <= t.
    """
    nx, ny, p = module.nx, module.ny, module.p
    iota = np.zeros((nx, ny, nx, ny), dtype=table_dtype(int(module.dims.max())))
    zero = (np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))  # the flag of the zero space
    below = [zero] * nx  # the B-adapted bases at (x, t_y - 1)
    for ty in range(ny):
        left = zero  # the A-adapted basis at (t_x - 1, t_y)
        for tx in range(nx):
            d = module.dim_at((tx, ty))
            if d == 0:
                left = below[tx] = zero
                continue
            start = np.zeros((d, 0), dtype=np.int64)
            left = flag_step(module.hmaps[(tx - 1, ty)] if tx else start, left, tx, p)
            below[tx] = flag_step(module.vmaps[(tx, ty - 1)] if ty else start, below[tx], ty, p)
            iota[: tx + 1, : ty + 1, tx, ty] = pair_flags(left, below[tx], (tx + 1, ty + 1), p)
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
    dims = module.dims.astype(table_dtype(int(module.dims.max())))  # so kappa keeps iota's entry type
    # one expression, so the dual's table is freed before iota's is built
    kappa = dims[:, :, None, None] - (
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


def check_module(module: GridModule, method: str = "zigzag"):
    """Decide decomposability of an explicit module.

    "zigzag" compares the naive rank invariant with the kappa/iota
    tables of `kappa_iota`, one two-flag pairing per grid point, and
    gives the reasons of `check_rectangle_decomposable`; a grid past the
    dense-table cap is refused before any work.  "algebraic" tests the
    kernel/image equalities pair by pair on ranks, and "geometric"
    looks for hooks in square barcodes.  The three give the same
    verdict and the same first witness pair.
    """
    if method == "zigzag":
        check_table_grid(module.nx, module.ny, 3)
        return check_rectangle_decomposable(rank_invariant_naive(module), kappa_iota(module))
    from .squares import is_weakly_exact_algebraic, is_weakly_exact_geometric  # compiled only for these methods

    checkers = {
        "algebraic": (is_weakly_exact_algebraic, "kernel/image equalities fail"),
        "geometric": (is_weakly_exact_geometric, "square barcode contains a hook"),
    }
    if method not in checkers:
        raise ValueError(f"unknown method {method!r}")
    checker, reason = checkers[method]
    ok, witness = checker(module)
    if ok:
        return True, None
    return False, (witness[0], witness[1], reason)
