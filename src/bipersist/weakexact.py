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
from typing import TYPE_CHECKING

import numpy as np

from .grid_module import (
    GridModule,
    PairTable,
    RankInvariant,
    check_tables,
    iter_points,
    pair_count,
    pairs_into,
    rank_invariant_naive,
    table_dtype,
)
from .ioutil import InvariantError
from .linalg import flag_step, pair_flags
from .rank_dp import rank_from_resolution
from .resolution import presentation, presented_module

if TYPE_CHECKING:  # annotations only, so checking a .gmod compiles no bifiltration code
    from .bifiltration import Bifiltration


@dataclass
class KappaIota:
    """The two tables on the comparable pairs of an nx x ny grid.

    Every entry is at most the largest dimension of the module, so
    `kappa_iota` stores the narrowest entries that hold it
    (`table_dtype`): int16 up to 32,767, else int32.
    """

    nx: int
    ny: int
    kappa: PairTable
    iota: PairTable


def _image_intersections(module: GridModule, put) -> None:
    """iota(., t) for every grid point t, from one two-flag pairing per t.

    A_x = Im M((x, t_y) -> t) and B_y = Im M((t_x, y) -> t) are flags in
    M_t.  Their adapted bases come from the neighbours' bases pushed one
    edge forward (`linalg.flag_step`), and one pairing of the two
    (`linalg.pair_flags`) gives iota(s, t) = dim(A_{s_x} cap B_{s_y})
    for every s <= t: `put(t, a)` gets them as a[s_x, s_y], for every t
    with M_t != 0 (elsewhere iota(., t) is 0).
    """
    nx, ny, p = module.nx, module.ny, module.p
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
            put((tx, ty), pair_flags(left, below[tx], (tx + 1, ty + 1), p))


def kappa_iota(module: GridModule) -> KappaIota:
    """Both tables of an explicit module, from one pairing per grid point.

    Ker(s -> b) + Ker(s -> c) is the annihilator of the intersection of
    the row spaces of M(s -> b) and M(s -> c).  Those row spaces are the
    images into s' of the dual module, on the grid reversed by
    u' = (n_x-1-u_x, n_y-1-u_y), so kappa(s, t) = dim M_s - iota*(t', s'):
    the dual's walks into s' are the walks out of s, transposed.  So
    the dual's pairing at s' is the block kappa(s, .), reversed in both
    axes, and iota(., t) is one entry in each block iota(s, .) with s <= t.
    """
    nx, ny = module.nx, module.ny
    check_tables(nx, ny, 2, int(module.dims.max()))
    dtype = table_dtype(int(module.dims.max()))
    kappa = PairTable(nx, ny, np.zeros(pair_count(nx, ny), dtype=dtype))

    def put_kappa(u, a):  # a[t'_x, t'_y] = iota*(t', s') at s' = u
        s = (nx - 1 - u[0], ny - 1 - u[1])
        kappa.block(s)[...] = module.dim_at(s) - a[::-1, ::-1]

    _image_intersections(module.dualize(), put_kappa)  # the dual is freed before iota is made
    iota = PairTable(nx, ny, np.zeros(pair_count(nx, ny), dtype=dtype))
    into = pairs_into(nx, ny)

    def put_iota(t, a):
        iota.values[into(t)] = a

    _image_intersections(module, put_iota)
    return KappaIota(nx, ny, kappa, iota)


def kappa_iota_from_zigzags(bif: Bifiltration, degree: int, jobs=None) -> KappaIota:
    """`kappa_iota` of the module presented by `presentation(bif, degree)`,
    whose byte rule counts the two tables; the same tables
    `check_bifiltration` builds, from a presentation of its own.  Name
    and `jobs` (None only) are kept for perfbench/traced.py."""
    if jobs is not None:
        raise ValueError("kappa_iota_from_zigzags runs serially; pass None for jobs")
    return kappa_iota(presented_module(presentation(bif, degree, tables=2)))


def check_rectangle_decomposable(r: RankInvariant, ki: KappaIota):
    """Decide decomposability from the rank invariant and the two tables.

    Returns (True, None) or (False, (s, t, reason)) with the
    lexicographically first failing comparable pair.  Every module has
    r(s, t) <= iota(s, t) and kappa(s, t) <= r(s, s) - r(s, t), since
    Im(s -> t) lies in both corner images and both corner kernels lie in
    Ker(s -> t); tables that break either bound raise InvariantError.

    The blocks r(s, .), iota(s, .) and kappa(s, .) are compared one
    source s at a time, in lexicographic order, with the corank
    r(s, s) - r(s, t) read off the block's first entry: the first
    failure is the first in C order of the first block that has one,
    and every block is checked for broken bounds before the verdict.
    """
    if (r.nx, r.ny) != (ki.nx, ki.ny):
        raise ValueError("rank invariant and kappa/iota tables use different grids")
    first = None
    for s in iter_points(r.nx, r.ny):
        rank, iota, kappa = r.block(s), ki.iota.block(s), ki.kappa.block(s)
        corank = rank[0, 0] - rank  # r(s, s) - r(s, t) at each t >= s
        broken = (rank > iota) | (kappa > corank)
        if broken.any():
            dx, dy = divmod(int(np.argmax(broken)), rank.shape[1])
            raise InvariantError(f"kernel/image tables out of bounds at [s, t] = {[*s, s[0] + dx, s[1] + dy]}")
        if first is None:
            fails = (rank != iota) | (corank != kappa)
            if fails.any():
                d = divmod(int(np.argmax(fails)), rank.shape[1])  # t - s
                first = (s, (s[0] + d[0], s[1] + d[1]), rank[d], iota[d], corank[d], kappa[d])
    if first is None:
        return True, None
    s, t, rank, iota, corank, kappa = first
    if rank != iota:
        return False, (s, t, f"rank {rank} != image intersection {iota}")
    return False, (s, t, f"corank {corank} != kernel sum {kappa}")


def check_bifiltration(bif: Bifiltration, degree: int):
    """End-to-end decision for degree-q homology of a bifiltration.

    One presentation feeds both sides: the rank invariant comes from the
    DP on it, and kappa/iota from one two-flag pairing per grid point of
    the module it presents (`presented_module`); then the pointwise
    comparison, with the same return shape as the checker.  No homology
    is solved per grid point.  The presentation's byte rule counts the
    three tables, so an input past the cap is refused before any work.
    """
    pres = presentation(bif, degree, tables=3)
    return check_rectangle_decomposable(rank_from_resolution(pres), kappa_iota(presented_module(pres)))


def check_module(module: GridModule, method: str = "zigzag"):
    """Decide decomposability of an explicit module.

    "zigzag" compares the naive rank invariant with the kappa/iota
    tables of `kappa_iota`, one two-flag pairing per grid point, and
    gives the reasons of `check_rectangle_decomposable`; three tables
    past the byte cap are refused before any work.  "algebraic" tests the
    kernel/image equalities pair by pair on ranks, and "geometric"
    looks for hooks in square barcodes.  The three give the same
    verdict and the same first witness pair.
    """
    if method == "zigzag":
        check_tables(module.nx, module.ny, 3, int(module.dims.max()))
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
