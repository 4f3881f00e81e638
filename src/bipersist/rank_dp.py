"""Rank invariants from free resolutions, without evaluating the module.

The rank of the structure map s -> t of the presented module is

    r(s,t) = #{generators with grade <= s}
           - dim( span{relation columns with grade <= t} cap <rows <= s> )

and the intersection dimension unfolds into two rank tables of the
relation matrix:

    r(s,t) = #{gens <= s} - rank(phi[:, cols <= t]) + rank(phi[rows not <= s, cols <= t])

which needs one echelon sweep per grid row for the middle term and one
per class of row-support for the last.  `rank_from_resolution` computes
this; it is exact for every resolution of the module.  Every sweep
admits its columns one at a time into a `linalg.ColumnReducer`, the
package's one incremental reducer, which reduces packed uint64 words
by XOR at p = 2 and int64 rows in place at any other p.
"""

from __future__ import annotations

import numpy as np

from .grid_module import GridModule, RankInvariant, comparable_mask
from .ioutil import InvariantError
from .linalg import ColumnReducer, rank
from .resolution import FreeResolution


def _gen_count_table(res: FreeResolution) -> np.ndarray:
    hist = np.zeros((res.nx, res.ny), dtype=np.int64)
    for g in res.gens.grades:
        hist[g] += 1
    np.cumsum(hist, axis=0, out=hist)
    np.cumsum(hist, axis=1, out=hist)
    return hist


def _prefix_rank_table(mat: np.ndarray, col_grades: np.ndarray, nx: int, ny: int, p: int) -> np.ndarray:
    """T[x, y] = rank of the columns of grade <= (x, y), mod p.

    One reduced-echelon sweep per grid row: for fixed y the admitted
    column set only grows with x, so a single incremental reduction
    records the rank at every x threshold.
    """
    k, l = mat.shape
    out = np.zeros((nx, ny), dtype=np.int64)
    if k == 0 or l == 0:
        return out
    gx, gy = col_grades[:, 0], col_grades[:, 1]
    for ty in range(ny):
        sel = np.nonzero(gy <= ty)[0]
        if sel.size == 0:
            continue
        sel = sel[np.argsort(gx[sel], kind="stable")]
        reducer = ColumnReducer(k, p)
        gained = np.zeros(nx, dtype=np.int64)
        for j in sel:
            if reducer.add(mat[:, j]):
                gained[gx[j]] += 1
        out[:, ty] = np.cumsum(gained)
    return out


def rank_from_resolution(res: FreeResolution) -> RankInvariant:
    """The full rank invariant of the presented module, table-exact.

    Three passes over one signed accumulator: generator prefix counts,
    minus the column-prefix rank table of the relation matrix, plus the
    correction ranks on the rows not below s (grouped by row support,
    so grids sharing the same live generators share one sweep).
    """
    nx, ny, p = res.nx, res.ny, res.p
    inv = RankInvariant(nx, ny)
    table = inv.table
    table += _gen_count_table(res)[:, :, None, None]
    if len(res.rels):
        col_g = np.array(res.rels.grades, dtype=np.int64).reshape(-1, 2)
        table -= _prefix_rank_table(res.phi.entries, col_g, nx, ny, p)[None, None, :, :]
        gg = np.array(res.gens.grades, dtype=np.int64).reshape(-1, 2)
        sx = np.arange(nx)[:, None, None]
        sy = np.arange(ny)[None, :, None]
        low = (gg[None, None, :, 0] <= sx) & (gg[None, None, :, 1] <= sy)
        # eight generators to a byte, as np.unique's row sort costs per byte
        packed = np.packbits(low.reshape(nx * ny, -1), axis=1)
        classes, inverse = np.unique(packed, axis=0, return_inverse=True)
        for c in range(classes.shape[0]):
            high = ~np.unpackbits(classes[c], count=len(res.gens)).astype(bool)
            if not high.any():
                continue  # all generators alive below s: nothing above to correct
            sub = _prefix_rank_table(res.phi.entries[high], col_g, nx, ny, p)
            for f in np.nonzero(inverse == c)[0]:
                table[f // ny, f % ny] += sub
    mask = comparable_mask(nx, ny)
    if (table[mask] < 0).any():
        raise InvariantError("rank table went negative")
    table[~mask] = 0
    return inv


def rank_1d(module: GridModule) -> dict:
    """Interval multiplicities of a one-parameter module (single row).

    m([s,t]) = r(s,t) - r(s-1,t) - r(s,t+1) + r(s-1,t+1), out-of-range
    ranks zero; a negative value cannot come from an actual module.
    """
    if module.ny != 1:
        raise ValueError("rank_1d expects a module on an n x 1 grid")
    n = module.nx
    r = np.zeros((n + 2, n + 2), dtype=np.int64)  # shifted by +1, zero-padded
    for s in range(n):
        for t in range(s, n):
            r[s + 1, t + 1] = rank(module.composite((s, 0), (t, 0)), module.p)
    out = {}
    for s in range(n):
        for t in range(s, n):
            m = int(r[s + 1, t + 1] - r[s, t + 1] - r[s + 1, t + 2] + r[s, t + 2])
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for interval [{s}, {t}]")
            if m:
                out[(s, t)] = m
    return out
