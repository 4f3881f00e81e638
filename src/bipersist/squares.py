"""Square-local invariants and the explicit exactness checkers.

For a comparable pair s <= t of a `GridModule`, the square with corners
a = s, b = (t_x, s_y), c = (s_x, t_y) and d = t carries eleven numbers:
the four dimensions, the five ranks of its maps, the dimension i_d of
the intersection of the images into d and the dimension k_a of the sum
of the kernels out of a.  All are ranks: an intersection of images and
a sum of kernels come from the rank of the two maps side by side and
stacked, so no subspace is built.  `is_weakly_exact_algebraic` compares
them with the rank invariant, and `is_weakly_exact_geometric` looks for
hooks in the squares' interval decompositions; `check_module` runs
them for the "algebraic" and "geometric" methods.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .grid_module import GridModule, RankInvariant, iter_points, rank_invariant_naive
from .linalg import matmul, rank

SQUARE_LABELS = ("a", "b", "c", "d", "ab", "ac", "bd", "cd", "abc", "bcd", "abcd")


class InconsistentSquareError(ValueError):
    """Square invariants admit no nonnegative interval decomposition."""


class SquareInvariants:
    """The eleven numbers attached to a square s <= t.

    Corners: a = s (bottom left), b = (t_x, s_y), c = (s_x, t_y), d = t.
    i_d is dim(Im(b->d) ∩ Im(c->d)); k_a is dim(Ker(a->b) + Ker(a->c)).
    """

    def __init__(self, dim_a: int, dim_b: int, dim_c: int, dim_d: int, r_ab: int, r_ac: int, r_bd: int, r_cd: int,
                 r_ad: int, i_d: int, k_a: int):
        self.dim_a, self.dim_b, self.dim_c, self.dim_d = dim_a, dim_b, dim_c, dim_d
        self.r_ab, self.r_ac, self.r_bd, self.r_cd, self.r_ad = r_ab, r_ac, r_bd, r_cd, r_ad
        self.i_d, self.k_a = i_d, k_a


class SquareBarcode(dict):
    """Multiplicities of the eleven interval types on a square."""

    def __init__(self, counts):
        super().__init__({lab: int(counts.get(lab, 0)) for lab in SQUARE_LABELS})

    @property
    def hooks(self) -> int:
        return self["abc"] + self["bcd"]

    def is_rectangular(self) -> bool:
        return self.hooks == 0


def _square_meets(module: GridModule, inv: RankInvariant) -> Iterator[tuple]:
    """(s, r_bd, r_cd, i_d, k_a) for every source s in lexicographic
    order, where `inv` is the module's rank invariant and each array is
    indexed [t_x - s_x, t_y - s_y] by the square s <= t with corners
    b = (t_x, s_y) and c = (s_x, t_y): r_bd and r_cd are the ranks of
    b -> t and c -> t, read off the blocks r(b, .) along the row s_y and
    r(c, .) up the column s_x, and i_d and k_a are the square's.  With
    the block r(s, .), which gives r_ab, r_ac and r_ad, a checker reads
    every rank of the squares out of s off arrays.

    Im bd + Im cd is the image of [bd | cd], so i_d = r_bd + r_cd -
    rank [bd | cd]; Ker ab ∩ Ker ac is the kernel of [ab; ac], so k_a =
    (dim_a - r_ab) + (dim_a - r_ac) - (dim_a - rank [ab; ac]).

    The sides of the squares out of s are pushed one edge at a time:
    ab along the row s_y, ac and every bd up the columns as t_y rises,
    and cd along each row t_y.  Each stacked rank is taken while its maps
    are in hand, so only O(n_x) maps are held.
    """
    nx, ny, p = module.nx, module.ny, module.p

    def eye(u):
        return np.eye(module.dim_at(u), dtype=np.int64)

    for s in iter_points(nx, ny):
        sx, sy = s
        r_s = inv.block(s).astype(np.int64)
        r_bd = np.array([inv.block((tx, sy))[0] for tx in range(sx, nx)], dtype=np.int64)
        r_cd = np.array([inv.block((sx, ty))[:, 0] for ty in range(sy, ny)], dtype=np.int64).T
        ab = [eye(s)]  # ab[i]: s -> (s_x + i, s_y)
        for tx in range(sx + 1, nx):
            ab.append(matmul(module.hmaps[(tx - 1, sy)], ab[-1], p))
        ac, bd = ab[0], [eye((tx, sy)) for tx in range(sx, nx)]  # bd[i]: (s_x + i, s_y) -> (s_x + i, t_y)
        beside = np.empty_like(r_s)  # rank [bd | cd]
        stacked = np.empty_like(r_s)  # rank [ab; ac]
        for ty in range(sy, ny):
            if ty > sy:
                ac = matmul(module.vmaps[(sx, ty - 1)], ac, p)
                bd = [matmul(module.vmaps[(tx, ty - 1)], m, p) for tx, m in enumerate(bd, sx)]
            cd = eye((sx, ty))
            for tx in range(sx, nx):
                if tx > sx:
                    cd = matmul(module.hmaps[(tx - 1, ty)], cd, p)
                beside[tx - sx, ty - sy] = rank(np.hstack((bd[tx - sx], cd)), p)
                stacked[tx - sx, ty - sy] = rank(np.vstack((ab[tx - sx], ac)), p)
        i_d = r_bd + r_cd - beside
        k_a = module.dim_at(s) - r_s[:, :1] - r_s[:1, :] + stacked
        yield s, r_bd, r_cd, i_d, k_a


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


def is_weakly_exact_algebraic(module: GridModule):
    """Check Im rho_s^t = Im(b->t) ∩ Im(c->t) and the kernel-sum dual.

    Both conditions are one-sided inclusions by commutativity, so each
    is tested as a dimension equality on the ranks of `_square_meets`:
    r(s->t) = i_d and dim_a - r(s->t) = k_a.  Returns (True, None) or
    (False, (s, t)) with the lexicographically smallest failing pair.
    """
    inv = rank_invariant_naive(module)
    for s, _, _, i_d, k_a in _square_meets(module, inv):
        r_st = inv.block(s)
        fails = (r_st != i_d) | (r_st != module.dim_at(s) - k_a)
        if fails.any():
            dx, dy = np.argwhere(fails)[0].tolist()  # C order: lexicographic in t
            return False, (s, (s[0] + dx, s[1] + dy))
    return True, None


def is_weakly_exact_geometric(module: GridModule):
    """Check that no square's interval decomposition contains a hook.

    The squares' invariants are ranks: the naive rank invariant's and
    the stacked ones of `_square_meets`, as in `is_weakly_exact_algebraic`,
    all read off arrays.
    """
    inv = rank_invariant_naive(module)
    for s, r_bd, r_cd, i_d, k_a in _square_meets(module, inv):
        r_s = inv.block(s)
        for (dx, dy), i in np.ndenumerate(i_d):
            t = (s[0] + dx, s[1] + dy)
            b, c = (t[0], s[1]), (s[0], t[1])
            square = SquareInvariants(
                dim_a=module.dim_at(s),
                dim_b=module.dim_at(b),
                dim_c=module.dim_at(c),
                dim_d=module.dim_at(t),
                r_ab=int(r_s[dx, 0]),
                r_ac=int(r_s[0, dy]),
                r_bd=int(r_bd[dx, dy]),
                r_cd=int(r_cd[dx, dy]),
                r_ad=int(r_s[dx, dy]),
                i_d=int(i),
                k_a=int(k_a[dx, dy]),
            )
            if not decompose_square(square).is_rectangular():
                return False, (s, t)
    return True, None
