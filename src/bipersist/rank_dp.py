"""Rank invariants from free resolutions, without evaluating the module.

The rank of the structure map s -> t of the presented module is

    r(s,t) = #{gens <= s} - dim( span{relation columns <= t} cap <rows <= s> )
           = #{gens <= s} - rank(phi[:, cols <= t]) + rank(phi[rows not <= s, cols <= t]).

One pairing reduction gives both ranks for every (s_x, t_x) at once.
Fix t_y and add the relation columns with g_y <= t_y, in rising g_x, to
a `linalg.ColumnReducer`; the columns <= t are then a prefix.  Fix s_y
and put first the generators with g_y > s_y, then those with g_y <= s_y
in falling g_x; the rows not <= s are then a prefix.  By the pairing
lemma

    r(s,t) = #{gens <= s} - #{lead pairs (i, j): row i <= s, column j <= t},

and `linalg.pair_counts` returns the 2-D cumulative sum of the pairs.
Values of s_y with the same generators g_y <= s_y share one row order,
so `rank_from_resolution` runs at most (distinct generator y-grades) x
n_y reductions, only those with t_y >= s_y.  It is exact for every
presentation of the module and every prime.

Within one row order the reductions are warm-started: each relation
column enters the sweep at t_y in the reduced form the sweep at t_y - 1
left it in.  That form is the column plus a combination of columns
before it, and the columns live at t_y - 1 keep their order at t_y
(only row t_y's columns are inserted among them), so the span of every
prefix, and with it every lead pair, is the same as from the raw
columns.  A sweep then costs one lookup per live column plus the
collisions that the inserted columns cause, not a full reduction.
"""

from __future__ import annotations

import numpy as np

from .grid_module import RankInvariant, check_table_grid, pair_count, table_dtype
from .ioutil import InvariantError
from .linalg import ColumnReducer, pair_counts
from .resolution import Presentation


def _gen_count_table(res: Presentation, dtype) -> np.ndarray:
    hist = np.zeros((res.nx, res.ny), dtype=dtype)
    for g in res.gens.grades:
        hist[g] += 1
    np.cumsum(hist, axis=0, out=hist)
    np.cumsum(hist, axis=1, out=hist)
    return hist


def rank_from_resolution(res: Presentation) -> RankInvariant:
    """The full rank invariant of the presented module, table-exact.

    Reads gens, rels and phi only, so a `FreeResolution` serves as well
    as a `Presentation`.  One `pair_counts` per (generator class, t_y),
    where a class is the run of s_y from one generator y-grade to the
    next.  In a class a generator is born at its g_x if g_y <= s_y and
    never (nx) otherwise, and the rows go in falling birth; phi's
    columns are converted to the reducer's form once per class, with
    the rows gathered in that order a chunk at a time
    (`ColumnReducer.columns`), so no reordered copy of phi is made at
    p = 2.  Each t_y pairs the reduced forms that t_y - 1 left (module
    docstring), so a class costs one lookup per live column per t_y
    plus the collisions of the columns each row adds.

    The invariant is written once, each (s_x, class) range of its
    vector a block r(s, .) at a time: generator counts minus the pair
    counts at t, checked for negative entries while the range is in
    cache.  The rows below the lowest generator stay 0.  A rank is at
    most the generator count, which sets the entry type of the
    invariant and of the pair counts (`table_dtype`: int16 up to 32,767
    generators).  Beside the invariant and phi, a class holds its
    (nx, nx, ny) pair counts and the reducer's columns.
    """
    nx, ny, p = res.nx, res.ny, res.p
    check_table_grid(nx, ny)
    dtype = table_dtype(len(res.gens.grades))
    inv = RankInvariant(nx, ny, np.zeros(pair_count(nx, ny), dtype=dtype))
    counts = _gen_count_table(res, dtype)
    gg = np.array(res.gens.grades, dtype=np.int64).reshape(-1, 2)
    rg = np.array(res.rels.grades, dtype=np.int64).reshape(-1, 2)
    by_x = np.argsort(rg[:, 0], kind="stable")
    ys = sorted({y for _, y in res.gens.grades})
    pairs = np.empty((nx, nx, ny), dtype=dtype)  # [s_x, t_x, t_y]; a class reads only the t_y it writes
    for lo, hi in zip(ys, ys[1:] + [ny]):
        birth = np.where(gg[:, 1] <= lo, gg[:, 0], nx)
        order = np.argsort(-birth, kind="stable")
        reduced, birth = ColumnReducer.columns(res.phi.entries, p, rows=order), birth[order]
        for ty in range(lo, ny):
            cols = by_x[rg[by_x, 1] <= ty].tolist()
            live = [reduced[j] for j in cols]
            pairs[:, :, ty] = pair_counts(live, len(gg), birth, rg[cols, 0], (nx, nx), p)
            for j, v in zip(cols, live):
                reduced[j] = v  # the warm start of row ty + 1
        for sx in range(nx):
            for sy in range(lo, hi):
                np.subtract(counts[sx, sy], pairs[sx, sx:, sy:], out=inv.block((sx, sy)))
            if inv.rows(sx, lo, hi).min() < 0:
                raise InvariantError("rank table went negative")
    return inv
