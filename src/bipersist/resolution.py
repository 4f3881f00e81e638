"""Free bigraded modules, graded matrices, presentations and free resolutions.

A free resolution of the graded homology of a 1-critical bifiltration
comes out of one primitive: a graded kernel basis of a column-graded
matrix, found by sweeping the grid and completing the kernel at each
point against the generators already recorded.  Generators are a graded
kernel basis of the boundary matrix, relations are boundary columns of
one dimension up rewritten in generator coordinates, and relations-on-
relations are a graded kernel basis of the relation matrix.

`presentation` stops after the relations: gens, rels and phi are all
the rank invariant needs, so the rank and check paths skip the second
kernel sweep.  `free_resolution` adds psi on top of it, for `.fres`
output: a `FreeResolution` is a `Presentation` with relrels and psi, so
whatever reads a presentation reads a resolution.  `presented_module`
turns gens, rels and phi into explicit matrices, M_t = F_t / Im phi_t,
with one column reduction per grid row; the check path reads
kappa/iota off it.  The .fres format of a resolution is in `fres`, and
the tests check a resolution's exactness against the homology of the
bifiltration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .grid_module import GridModule, table_bytes
from .ioutil import InvariantError, check_bytes
from .linalg import ColumnReducer, solve_matrix

if TYPE_CHECKING:  # an annotation only, so reading a .fres compiles no bifiltration code
    from .bifiltration import Bifiltration


class FreeModule:
    """A free bigraded module given by the grades of its basis."""

    def __init__(self, grades: list):
        self.grades = [(int(g[0]), int(g[1])) for g in grades]

    def __len__(self) -> int:
        return len(self.grades)

    def __eq__(self, other):
        return vars(self) == vars(other) if isinstance(other, FreeModule) else NotImplemented


class GradedMatrix:
    """Matrix of a map of free bigraded modules (rows: target basis)."""

    def __init__(self, target: FreeModule, source: FreeModule, entries, p: int):
        # entries already in [0, p) as an int64 array are kept as given, so
        # the .fres reader's matrices are not copied; any others are
        # reduced into a new array.  The caller's array is never written.
        entries = np.asarray(entries, dtype=np.int64)
        if entries.size and (entries.min() < 0 or entries.max() >= p):
            entries = entries % p
        if entries.shape != (len(target), len(source)):
            raise ValueError(
                f"entries shape {entries.shape} does not match "
                f"{len(target)} rows x {len(source)} cols"
            )
        self.target, self.source, self.entries, self.p = target, source, entries, p


class Presentation:
    """rels -> gens -> M -> 0: the module is the cokernel of phi."""

    def __init__(self, gens: FreeModule, rels: FreeModule, phi: GradedMatrix, nx: int, ny: int, p: int):
        self.gens, self.rels, self.phi, self.nx, self.ny, self.p = gens, rels, phi, nx, ny, p


class FreeResolution(Presentation):
    """0 -> relrels -> rels -> gens -> M -> 0: a `Presentation` with psi."""

    def __init__(self, gens: FreeModule, rels: FreeModule, relrels: FreeModule, phi: GradedMatrix,
                 psi: GradedMatrix, nx: int, ny: int, p: int):
        super().__init__(gens, rels, phi, nx, ny, p)
        self.relrels, self.psi = relrels, psi


def graded_kernel_basis(mat: np.ndarray, col_grades, nx: int, ny: int, p: int):
    """Basis of the graded kernel module of a column-graded matrix.

    Sweeps the grid in y-major order; at each point the kernel of the
    columns present so far is completed against the generators already
    found, and each genuinely new kernel vector is recorded with the
    current point as its grade.  Kernels of graded matrices over two
    parameters are free modules, so the union over the sweep restricts
    to a basis of the kernel at every single grid point.

    The kernel comes from the reduction that already runs, R = D V
    (Edelsbrunner & Harer, Computational Topology, VII.1): one
    `ColumnReducer` per row y admits the columns of [mat; I]
    (`ColumnReducer.stacked`) with g_y <= y in rising g_x.  With
    k = mat.shape[0], dim ker at every (x, y) of the row is the number
    of leads at or past row k, and `ColumnReducer.kernel` reads the
    kernel's reduced echelon basis off the reducer, in full column
    coordinates.  The generators found <= t are independent (those
    <= (x-1, y) and those <= (x, y-1) are bases of two kernels that meet
    in the kernel at (x-1, y-1), of which they share a basis), so where
    dim ker equals their number the completion would add nothing and
    the point is skipped.

    The completion runs on a second reducer per row, over F_p^cols,
    that holds the generators <= (x, y) found so far: the earlier rows'
    join it in rising g_x when a point of the row first needs them, and
    the row's own when it admits them.  A kernel vector is a new
    generator when that reducer admits it, which depends only on the
    span of what it holds.

    Returns (basis, grades), the basis as columns in the form
    `ColumnReducer.add` takes, each vanishing outside the columns of
    grade <= its own.
    """
    k, cols = mat.shape
    cg = np.array([(int(g[0]), int(g[1])) for g in col_grades], dtype=np.int64).reshape(-1, 2)
    if len(cg) != cols:
        raise ValueError("one grade per column required")
    vectors = ColumnReducer.stacked(ColumnReducer.columns(mat, p), k, p)
    by_x = np.argsort(cg[:, 0], kind="stable")
    basis: list = []
    grades: list[tuple[int, int]] = []
    for y in range(ny):
        reducer = ColumnReducer(k + cols, p)
        span = ColumnReducer(cols, p)
        row = by_x[cg[by_x, 1] <= y]
        present = np.searchsorted(cg[row, 0], np.arange(nx), side="right")  # columns <= (x, y)
        gx = np.array([g[0] for g in grades], dtype=np.int64)
        earlier = np.argsort(gx, kind="stable")  # the earlier rows' generators
        upto = np.searchsorted(gx[earlier], np.arange(nx), side="right")  # those <= (x, y)
        kernel_dim = 0
        joined = 0  # earlier generators in span
        for x in range(nx):
            for j in row[present[x - 1] if x else 0 : present[x]]:
                kernel_dim += reducer.add(vectors[j]) >= k
            if kernel_dim == span.rank + upto[x] - joined:  # generators found <= (x, y)
                continue
            for g in earlier[joined : upto[x]]:
                span.add(basis[g])
            joined = upto[x]
            born = reducer.kernel(k, span)
            basis += born
            grades += [(x, y)] * len(born)
    return basis, grades


def presentation(bif: Bifiltration, degree: int, tables: int = 1) -> Presentation:
    """A presentation of the degree-q homology of the bifiltration.

    Generators are a graded kernel basis of the boundary matrix in the
    given degree.  Relations are the boundary columns of one dimension
    up rewritten in generator coordinates, keeping the simplex grades;
    none rewrites to zero, since no boundary column is zero and the
    generators are independent.

    One `solve_matrix` on the generators as the kernel sweep left them,
    in the reducer's form, rewrites every boundary column.  They are a
    basis of the kernel at the top point, so each solution is unique and
    must lie on the generators <= its column's grade (boundaries are
    cycles, which they span gradewise); an InvariantError reports one
    that does not.

    Before any matrix is built, its arrays are stated from the simplex
    counts S_(q-1), S_q, S_(q+1) and refused past the cap, with the
    `tables` tables its caller builds at `table_dtype(S_q)` (no rank or
    dimension passes the generator count, at most S_q): the cached
    boundaries, 8 bytes an entry, the larger of the kernel sweep's and
    the solve's work, and 2^18 bytes of fixed work.  The sweep holds up
    to six copies of [d_q; I], the solve the basis, [basis; I] twice and
    the relations, at most S_q x S_(q+1), as columns and as the matrix
    with its grade masks.  At p = 2 the columns are bitsets, 4 bytes per
    30 bits and about 40 an int with its slot: 1 byte an entry of
    [d_q; I] or S_q x S_q, 256 a column, 12 an entry of the relations.
    Otherwise they are int64: the sweep's 16 an entry of [d_q; I] and 26
    of S_q x S_q (the kernel's rows and mask, span and basis), the
    solve's 48 of S_q x S_q and 19 of the relations, and 512 a column.
    """
    if degree < 0:
        raise ValueError(f"homology degree {degree} is negative")
    s_down, s_q, s_up = (len(bif.by_dim.get(d, ())) for d in (degree - 1, degree, degree + 1))
    if bif.p == 2:
        sweep = s_q * (s_down + s_q) + 256 * s_q
        solve = s_q * (s_q + 12 * s_up) + 256 * (s_q + s_up)
    else:
        sweep = s_q * (16 * (s_down + s_q) + 26 * s_q) + 512 * s_q
        solve = s_q * (48 * s_q + 19 * s_up) + 512 * (s_q + s_up)
    need = 8 * s_q * (s_down + s_up) + max(sweep, solve) + (1 << 18) + table_bytes(bif.nx, bif.ny, tables, s_q)
    check_bytes(need, f"the degree-{degree} presentation ({s_down:,}, {s_q:,} and {s_up:,} simplices of dimension "
                f"q-1, q and q+1) and {tables} table(s) on the comparable pairs of the {bif.nx}x{bif.ny} grid")
    p, q_list, up_list = bif.p, bif.by_dim.get(degree, []), bif.by_dim.get(degree + 1, [])
    gen_basis, gen_grades = graded_kernel_basis(bif.boundary_matrix(degree), [bif.grades[s] for s in q_list], bif.nx, bif.ny, p)
    gens = FreeModule(gen_grades)
    up_grades = np.array([bif.grades[s] for s in up_list], dtype=np.int64).reshape(-1, 2)
    x = solve_matrix(gen_basis, bif.boundary_matrix(degree + 1), p)
    gg = np.array(gen_grades, dtype=np.int64).reshape(-1, 2)
    outside = (gg[:, None, :] > up_grades[None, :, :]).any(axis=2)
    if x is None or (x.astype(bool) & outside).any():
        raise InvariantError("boundary column outside the generator span")
    rels = FreeModule(up_grades.tolist())
    return Presentation(gens, rels, GradedMatrix(gens, rels, x, p), bif.nx, bif.ny, p)


def free_resolution(bif: Bifiltration, degree: int) -> FreeResolution:
    """A free resolution of the degree-q homology of the bifiltration.

    The `presentation`, plus relations-on-relations: a graded kernel
    basis of the relation matrix, by the same sweep as the generators.
    """
    pres = presentation(bif, degree)
    psi_basis, rr_grades = graded_kernel_basis(pres.phi.entries, pres.rels.grades, bif.nx, bif.ny, bif.p)
    relrels = FreeModule(rr_grades)
    psi = GradedMatrix(pres.rels, relrels, ColumnReducer.dense(psi_basis, len(pres.rels), bif.p), bif.p)
    return FreeResolution(pres.gens, pres.rels, relrels, pres.phi, psi, bif.nx, bif.ny, bif.p)


def presented_module(pres: Presentation, tables: int = 1) -> GridModule:
    """The module presented by `pres` as explicit matrices: M_t = F_t / Im phi_t.

    Reads gens, rels and phi only, so a `FreeResolution` serves as well.
    One `ColumnReducer` per grid row y takes the generators as rows, in
    index order, and the relation columns with g_y <= y in rising g_x.
    Once the columns with g_x <= x are in, its block is a fully reduced
    basis of Im phi_(x,y), since homogeneity keeps every such column on
    the generators <= (x, y).  The leads of the block are the pivot
    generators, and the other generators <= t are the basis of M_t.  The
    class of a pivot generator is e_g minus its block row, which lies on
    the basis generators, so the map of an edge into t selects the
    normal-form rows of the source's basis generators.

    Before the maps into a point are stored, the bytes so far are
    refused past the cap, with the `tables` tables of the caller at
    `table_dtype(k)`, k generators: 16 an entry of each map (it and
    `GridModule`'s copy) and 640 a map (at most 620 measured, 1 x 1
    maps), phi, one point's block and normal forms, 8 an entry of k x k
    each, 8 more for the int64 columns at p != 2, and 2^18 fixed.
    """
    nx, ny, p = pres.nx, pres.ny, pres.p
    k = len(pres.gens)
    need = table_bytes(nx, ny, tables, k) + pres.phi.entries.nbytes + (16 if p == 2 else 24) * k * k
    need += 640 * (2 * nx * ny - nx - ny) + (1 << 18)
    columns = ColumnReducer.columns(pres.phi.entries, p)
    gg = np.array(pres.gens.grades, dtype=np.int64).reshape(-1, 2)
    rg = np.array(pres.rels.grades, dtype=np.int64).reshape(-1, 2)
    dims = np.zeros((nx, ny), dtype=np.int64)
    hmaps, vmaps = {}, {}
    below = [None] * nx  # the basis generators at (x, y - 1)
    for y in range(ny):
        reducer = ColumnReducer(k, p)
        for x in range(nx):
            for j in np.flatnonzero((rg[:, 0] == x) & (rg[:, 1] <= y)):
                reducer.add(columns[j])
            rows, leads = reducer.block()
            alive = (gg[:, 0] <= x) & (gg[:, 1] <= y)
            alive[leads] = False
            basis = np.flatnonzero(alive)
            need += 16 * basis.size * ((left.size if x else 0) + (below[x].size if y else 0))
            check_bytes(need, f"the maps into the points up to ({x + 1},{y + 1}) of the module presented on the "
                        f"{nx}x{ny} grid and {tables} table(s) on its comparable pairs")
            nf = np.zeros((k, basis.size), dtype=np.int64)  # row g: the class of e_g in the basis
            nf[basis, np.arange(basis.size)] = 1
            nf[leads] = -rows[:, basis] % p
            dims[x, y] = basis.size
            if x:
                hmaps[(x - 1, y)] = nf[left].T
            if y:
                vmaps[(x, y - 1)] = nf[below[x]].T
            left = below[x] = basis
    reducer = rows = nf = None  # so that the last point's work is not held while the maps are copied
    return GridModule(nx, ny, p, dims, hmaps, vmaps)
