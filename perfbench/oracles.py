"""Reference answers the CLI outputs are checked against.

Each oracle takes a route independent of the one under test:

- `presentation_rank_table`: r(s, t) of a presentation whose generators
  all sit at the origin is #gens - rank phi[:, cols <= t]; the ranks come
  from an XOR elimination over Python-int bitsets written here.
- `decompose_expected`: a zero-padded numpy 4-D finite difference of the
  rank table that `decompose-rectangles` was given.
- `check_expected`: the explicit-module checker on the brute-force
  homology module, instead of the resolution + zigzag route.
- `naive_rank_rows`: `rank_invariant_naive` on the brute-force homology
  module, instead of the resolution + DP route.
"""

from __future__ import annotations

import numpy as np

import inputs


def comparable_rows(nx: int, ny: int, table: np.ndarray) -> np.ndarray:
    """(pairs, 5) rows `s_x s_y t_x t_y r`, 1-based, in `.rank` file order.

    The order is lexicographic in (s, t), which is C order of the 4-D
    index grid restricted to s <= t.
    """
    idx = np.indices((nx, ny, nx, ny), dtype=np.int64).reshape(4, -1)
    keep = (idx[0] <= idx[2]) & (idx[1] <= idx[3])
    rows = np.empty((int(keep.sum()), 5), dtype=np.int64)
    rows[:, :4] = idx[:, keep].T + 1
    rows[:, 4] = table.reshape(-1)[keep]
    return rows


def read_rank_rows(path) -> np.ndarray:
    """Rows of a `.rank` file as an int64 array of shape (pairs, 5)."""
    return np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2).reshape(-1, 5)


def rows_to_table(rows: np.ndarray, nx: int, ny: int) -> np.ndarray:
    table = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    c = rows[:, :4] - 1
    table[c[:, 0], c[:, 1], c[:, 2], c[:, 3]] = rows[:, 4]
    return table


def gf2_prefix_ranks(rel_grades, columns, nx: int, ny: int) -> np.ndarray:
    """T[x, y] = GF(2) rank of the columns of grade <= (x, y)."""
    out = np.zeros((nx, ny), dtype=np.int64)
    for ty in range(ny):
        basis: dict[int, int] = {}  # leading bit -> reduced vector
        gained = [0] * nx
        for j in sorted((j for j, g in enumerate(rel_grades) if g[1] <= ty),
                        key=lambda j: rel_grades[j][0]):
            v = columns[j]
            while v:
                lead = v.bit_length() - 1
                if lead not in basis:
                    basis[lead] = v
                    gained[rel_grades[j][0]] += 1
                    break
                v ^= basis[lead]
        out[:, ty] = np.cumsum(gained)
    return out


def presentation_rank_table(rel_grades, columns, gens: int, n: int) -> np.ndarray:
    """Full 4-D rank table of the origin-generated presentation."""
    prefix = gf2_prefix_ranks(rel_grades, columns, n, n)
    table = np.broadcast_to(gens - prefix, (n, n, n, n)).copy()
    idx = np.indices((n, n, n, n), dtype=np.int16)
    table[~((idx[0] <= idx[2]) & (idx[1] <= idx[3]))] = 0
    return table


def multiplicities(table: np.ndarray) -> np.ndarray:
    """Rectangle multiplicities m(s, t) by 4-D finite differencing.

    m(s, t) = sum over a, b in {0, 1}^2 of (-1)^|a|+|b| r(s - a, t + b),
    with r = 0 outside the grid.  Entries off comparable pairs are 0.
    """
    nx, ny = table.shape[0], table.shape[1]
    pad = np.zeros((nx + 1, ny + 1, nx + 1, ny + 1), dtype=np.int64)
    pad[1:, 1:, :nx, :ny] = table  # pad[sx + 1, sy + 1, tx, ty] = r(s, t)
    m = np.zeros_like(table)
    for ax in (0, 1):
        for ay in (0, 1):
            for bx in (0, 1):
                for by in (0, 1):
                    sign = -1 if (ax + ay + bx + by) % 2 else 1
                    m += sign * pad[1 - ax:nx + 1 - ax, 1 - ay:ny + 1 - ay,
                                    bx:nx + bx, by:ny + by]
    idx = np.indices(table.shape, dtype=np.int16)
    m[~((idx[0] <= idx[2]) & (idx[1] <= idx[3]))] = 0
    return m


def decompose_expected(rank_rows: np.ndarray):
    """(positive barcode as {(sx, sy, tx, ty) 1-based: m}, any negative?)."""
    nx, ny = int(rank_rows[:, 2].max()), int(rank_rows[:, 3].max())
    m = multiplicities(rows_to_table(rank_rows, nx, ny))
    pos = np.argwhere(m > 0)
    barcode = {tuple(int(v) + 1 for v in c): int(m[tuple(c)]) for c in pos}
    return barcode, bool((m < 0).any())


def read_barcode(path) -> dict:
    rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2).reshape(-1, 5)
    return {tuple(int(v) for v in r[:4]): int(r[4]) for r in rows}


def _homology(bp, grades: dict, p: int, degree: int):
    norm, nx, ny = inputs.normalized(grades)
    return bp.homology_module(bp.Bifiltration(norm, nx, ny, p), degree)


def check_expected(bp, grades: dict, p: int, degree: int):
    """(decomposable?, witness (s, t) 1-based or None) from the module checker."""
    ok, witness = bp.check_module(_homology(bp, grades, p, degree), "algebraic")
    if ok:
        return True, None
    s, t = witness[0], witness[1]
    return False, ((s[0] + 1, s[1] + 1), (t[0] + 1, t[1] + 1))


def naive_rank_rows(bp, grades: dict, p: int, degree: int) -> np.ndarray:
    module = _homology(bp, grades, p, degree)
    inv = bp.rank_invariant_naive(module)
    return comparable_rows(module.nx, module.ny, inv.table)
