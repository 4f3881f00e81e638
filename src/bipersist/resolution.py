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
output and `validate_resolution`.  `presented_module` turns gens, rels
and phi into explicit matrices, M_t = F_t / Im phi_t, with one column
reduction per grid row; the check path reads kappa/iota off it.

`.fres` files share the `.rank` field rule (`ioutil.int_rows`): fields
are separated by spaces or tabs, a CR reads as a space, and every
integer is an optional sign and ASCII digits within int64.  Any other
character, other Unicode whitespace included, belongs to a field.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bifiltration import Bifiltration, homology_module
from .grid_module import GridModule
from .ioutil import FormatError, InvariantError, int_rows, parse_int
from .linalg import (
    ColumnReducer,
    check_modulus,
    extend_basis,
    kernel_basis,
    matmul,
    rank,
    solve_matrix,
)


def _leq(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


@dataclass
class FreeModule:
    """A free bigraded module given by the grades of its basis."""

    grades: list

    def __post_init__(self):
        self.grades = [(int(g[0]), int(g[1])) for g in self.grades]

    def __len__(self) -> int:
        return len(self.grades)


@dataclass
class GradedMatrix:
    """Matrix of a map of free bigraded modules (rows: target basis)."""

    target: FreeModule
    source: FreeModule
    entries: np.ndarray
    p: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.int64) % self.p
        if self.entries.shape != (len(self.target), len(self.source)):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match "
                f"{len(self.target)} rows x {len(self.source)} cols"
            )

    def validate_homogeneous(self) -> list[str]:
        return [problem for _, problem in self.inhomogeneous_entries()]

    def inhomogeneous_entries(self) -> list:
        """((i, j), message) for each nonzero entry whose row grade is not
        below its column grade, in row-major order."""
        rows, cols = np.nonzero(self.entries)
        target = np.array(self.target.grades, dtype=np.int64).reshape(-1, 2)
        source = np.array(self.source.grades, dtype=np.int64).reshape(-1, 2)
        bad = (target[rows] > source[cols]).any(axis=1)
        return [
            ((i, j), f"entry ({i + 1},{j + 1}) nonzero but row grade "
                     f"{self.target.grades[i]} is not below column grade {self.source.grades[j]}")
            for i, j in zip(rows[bad].tolist(), cols[bad].tolist())
        ]


@dataclass
class Presentation:
    """rels -> gens -> M -> 0: the module is the cokernel of phi."""

    gens: FreeModule
    rels: FreeModule
    phi: GradedMatrix
    nx: int
    ny: int
    p: int


@dataclass
class FreeResolution:
    """0 -> relrels -> rels -> gens -> M -> 0 with graded matrices phi, psi."""

    gens: FreeModule
    rels: FreeModule
    relrels: FreeModule
    phi: GradedMatrix
    psi: GradedMatrix
    nx: int
    ny: int
    p: int


def evaluate(res: FreeResolution, t):
    """Dimensions and matrices of the evaluated resolution at grid point t.

    Returns ((k, l, m), phi_t, psi_t) where k/l/m count basis elements
    of grade <= t and the matrices are the corresponding submatrices.
    """
    gsel = [i for i, g in enumerate(res.gens.grades) if _leq(g, t)]
    rsel = [j for j, g in enumerate(res.rels.grades) if _leq(g, t)]
    zsel = [r for r, g in enumerate(res.relrels.grades) if _leq(g, t)]
    phi_t = res.phi.entries[np.ix_(gsel, rsel)]
    psi_t = res.psi.entries[np.ix_(rsel, zsel)]
    return (len(gsel), len(rsel), len(zsel)), phi_t, psi_t


def graded_kernel_basis(mat: np.ndarray, col_grades, nx: int, ny: int, p: int):
    """Basis of the graded kernel module of a column-graded matrix.

    Sweeps the grid in y-major order; at each point the kernel of the
    columns present so far is completed against the generators already
    found, and each genuinely new kernel vector is recorded with the
    current point as its grade.  Kernels of graded matrices over two
    parameters are free modules, so the union over the sweep restricts
    to a basis of the kernel at every single grid point.

    Returns (basis, grades): basis columns live in full column
    coordinates and vanish outside columns of grade <= their own.
    """
    cols = mat.shape[1]
    col_g = [(int(g[0]), int(g[1])) for g in col_grades]
    if len(col_g) != cols:
        raise ValueError("one grade per column required")
    found: list[np.ndarray] = []
    grades: list[tuple[int, int]] = []
    for y in range(ny):
        for x in range(nx):
            t = (x, y)
            mask = np.fromiter((_leq(g, t) for g in col_g), dtype=bool, count=cols)
            if not mask.any():
                continue
            ker = kernel_basis(mat[:, mask], p)
            if ker.dim == 0:
                continue
            emb = np.zeros((cols, ker.dim), dtype=np.int64)
            emb[mask] = ker.basis
            old = [v for v, g in zip(found, grades) if _leq(g, t)]
            base = np.column_stack(old) if old else np.zeros((cols, 0), dtype=np.int64)
            for j in extend_basis(base, emb, p):
                found.append(emb[:, j])
                grades.append(t)
    basis = np.column_stack(found) if found else np.zeros((cols, 0), dtype=np.int64)
    return basis, grades


def presentation(bif: Bifiltration, degree: int) -> Presentation:
    """A presentation of the degree-q homology of the bifiltration.

    Generators are a graded kernel basis of the boundary matrix in the
    given degree.  Relations are the boundary columns of one dimension
    up rewritten in generator coordinates, keeping the simplex grades;
    columns that rewrite to zero are dropped (they would only feed a
    spurious cancellation into the next layer).
    """
    p = bif.p
    q_list = bif.by_dim.get(degree, [])
    up_list = bif.by_dim.get(degree + 1, [])
    gen_basis, gen_grades = graded_kernel_basis(
        bif.boundary_matrix(degree), [bif.grades[s] for s in q_list], bif.nx, bif.ny, p
    )
    gens = FreeModule(gen_grades)
    d_up = bif.boundary_matrix(degree + 1)
    up_grades = [bif.grades[s] for s in up_list]
    phi_cols = []
    rel_grades = []
    for j in range(len(up_list)):
        sel = [i for i, gg in enumerate(gen_grades) if _leq(gg, up_grades[j])]
        x = solve_matrix(gen_basis[:, sel], d_up[:, j : j + 1], p)
        if x is None:  # boundaries are cycles, which the generators span gradewise
            raise InvariantError("boundary column outside the generator span")
        col = np.zeros(len(gens), dtype=np.int64)
        col[sel] = x[:, 0]
        if not col.any():
            continue
        phi_cols.append(col)
        rel_grades.append(up_grades[j])
    phi_entries = (
        np.column_stack(phi_cols)
        if phi_cols
        else np.zeros((len(gens), 0), dtype=np.int64)
    )
    rels = FreeModule(rel_grades)
    return Presentation(gens, rels, GradedMatrix(gens, rels, phi_entries, p), bif.nx, bif.ny, p)


def free_resolution(bif: Bifiltration, degree: int) -> FreeResolution:
    """A free resolution of the degree-q homology of the bifiltration.

    The `presentation`, plus relations-on-relations: a graded kernel
    basis of the relation matrix, by the same sweep as the generators.
    """
    pres = presentation(bif, degree)
    psi_entries, rr_grades = graded_kernel_basis(
        pres.phi.entries, pres.rels.grades, bif.nx, bif.ny, bif.p
    )
    relrels = FreeModule(rr_grades)
    psi = GradedMatrix(pres.rels, relrels, psi_entries, bif.p)
    return FreeResolution(pres.gens, pres.rels, relrels, pres.phi, psi, bif.nx, bif.ny, bif.p)


def presented_module(pres: Presentation) -> GridModule:
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
    """
    nx, ny, p = pres.nx, pres.ny, pres.p
    k = len(pres.gens)
    columns = pres.phi.entries.T
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
            nf = np.zeros((k, basis.size), dtype=np.int64)  # row g: the class of e_g in the basis
            nf[basis, np.arange(basis.size)] = 1
            nf[leads] = -rows[:, basis] % p
            dims[x, y] = basis.size
            if x:
                hmaps[(x - 1, y)] = nf[left].T
            if y:
                vmaps[(x, y - 1)] = nf[below[x]].T
            left = below[x] = basis
    return GridModule(nx, ny, p, dims, hmaps, vmaps)


def validate_resolution(res: FreeResolution, bif: Bifiltration, degree: int) -> Optional[str]:
    """Check exactness of 0 -> relrels -> rels -> gens -> H_q -> 0 pointwise.

    Returns None when the evaluated sequence is exact at every grid
    point, else a message naming the first failing point (y-major
    order) and the failing slot.  The homology dimensions come from the
    brute-force oracle module.
    """
    p = res.p
    if matmul(res.phi.entries, res.psi.entries, p).any():
        return "phi . psi is not zero"
    oracle = homology_module(bif, degree)
    if (oracle.nx, oracle.ny) != (res.nx, res.ny):
        return "resolution grid does not match the bifiltration grid"
    for y in range(res.ny):
        for x in range(res.nx):
            t = (x, y)
            (k, l, m), phi_t, psi_t = evaluate(res, t)
            r_phi = rank(phi_t, p)
            if rank(psi_t, p) != m:
                return f"psi not injective at {t}"
            if l - r_phi != m:
                return f"Ker phi != Im psi at {t}"
            if k - r_phi != oracle.dim_at(t):
                return (
                    f"coker phi has dimension {k - r_phi} at {t} "
                    f"but homology has {oracle.dim_at(t)}"
                )
    return None


# -- .fres file format -----------------------------------------------------


def write_fres(res: FreeResolution) -> str:
    out = ["resolution", f"field {res.p}", f"grid {res.nx} {res.ny}"]
    for name, fm in (("gens", res.gens), ("rels", res.rels), ("relrels", res.relrels)):
        out.append(name)
        for g in fm.grades:
            out.append(f"{g[0] + 1} {g[1] + 1}")
    for name, gm in (("phi", res.phi), ("psi", res.psi)):
        out.append(name)
        for i, j in zip(*np.nonzero(gm.entries)):
            out.append(f"{i + 1} {j + 1} {int(gm.entries[i, j])}")
    return "\n".join(out) + "\n"


# a logical line (one with a field once its comment is cut), and a line
# whose first field is a section name (group 2: the rest, up to the comment)
_LINE = re.compile(r"^[ \t\r]*([^ \t\r\n#][^\n#]*)", re.M)
_SECTION = re.compile(r"^[ \t\r]*(gens|rels|relrels|phi|psi)(?=[ \t\r#]|$)([^\n#]*)", re.M)
_BLANKS = re.compile(r"[ \t\r]+")


def read_fres(text: str) -> FreeResolution:
    """Read a .fres file; a FormatError names the first bad line.

    The header is the first four logical lines: `resolution`,
    `field p`, `grid nx ny` and `gens`.  The section lines (`gens`,
    `rels`, `relrels`, `phi`, `psi`) are found by one scan of the text,
    and each block between them is parsed by one `int_rows` call whose
    rows are then checked as whole arrays: grades within the grid,
    triplet indices within the matrix.  A grade block ends at the next
    line that opens with a section name, a triplet block at the next
    `phi` or `psi` line, and the `psi` block must run to the end of the
    text.  A triplet's value is reduced mod p, and the last triplet
    naming an entry sets it.
    """
    header = [
        (text.count("\n", 0, m.start()) + 1, _BLANKS.split(m[1].strip(" \t\r")))
        for m in itertools.islice(_LINE.finditer(text), 4)
    ]
    if not header or header[0][1] != ["resolution"]:
        raise FormatError(f"line {header[0][0] if header else 1}: expected 'resolution' header")

    def take(at, prefix, parts):
        if at >= len(header):
            raise FormatError(f"line {header[-1][0]}: missing '{prefix}' section")
        lineno, toks = header[at]
        if toks[0] != prefix or len(toks) != parts + 1:
            raise FormatError(f"line {lineno}: expected '{prefix}'" + " with arguments" * bool(parts))
        return lineno, toks[1:]

    lineno, toks = take(1, "field", 1)
    p = parse_int(toks[0], lineno, "modulus")
    try:
        check_modulus(p)
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None
    lineno, toks = take(2, "grid", 2)
    nx, ny = (parse_int(v, lineno, "extent") for v in toks)
    if nx < 1 or ny < 1:
        raise FormatError(f"line {lineno}: grid extents must be positive")
    take(3, "gens", 0)

    # (line number, name, whether the line holds nothing else, start, end) of each section line
    sections, lineno, at = [], 1, 0
    for m in _SECTION.finditer(text):
        lineno += text.count("\n", at, m.start())
        at = m.start()
        sections.append((lineno, m[1], not m[2].strip(" \t\r"), m.start(), m.end()))

    def section(k, ends, fields, bad, why, then):
        """Rows and line numbers of the block after section line k, which
        runs to the next section line named in `ends`; that line must be
        `then` alone, and is returned as the next k.  With `then` None
        there must be no such line: the block runs to the end of the
        text.  A FormatError names the first line that is malformed or
        whose row is `bad`."""
        nxt = next((i for i in range(k + 1, len(sections)) if sections[i][1] in ends), None)
        eol = text.find("\n", sections[k][4])
        a = len(text) if eol < 0 else eol + 1
        b = len(text) if nxt is None else sections[nxt][3]
        rows, lines, error = int_rows(text[a:b], fields, first_line=sections[k][0] + 1)
        wrong = bad(*rows.T)
        if wrong.any():
            i = int(np.argmax(wrong))
            raise FormatError(f"line {lines[i]}: " + why(*rows[i].tolist()))
        if error is not None:
            raise error
        if then is None and nxt is not None:
            raise FormatError(f"line {sections[nxt][0]}: expected the end of the file after the '{sections[k][1]}' block")
        if then is not None and nxt is None:
            raise FormatError(f"line {lines[-1] if len(lines) else sections[k][0]}: missing '{then}' section")
        if then is not None and sections[nxt][1:3] != (then, True):
            raise FormatError(f"line {sections[nxt][0]}: expected '{then}'")
        return rows, lines, nxt

    modules, k = [], 0
    for then in ("rels", "relrels", "phi"):
        rows, lines, k = section(
            k, ("gens", "rels", "relrels", "phi", "psi"), "g_x g_y",
            lambda x, y: (x < 1) | (x > nx) | (y < 1) | (y > ny),
            lambda x, y: f"grade ({x},{y}) outside the grid", then,
        )
        modules.append(FreeModule((rows - 1).tolist()))
    gens, rels, relrels = modules

    matrices = []  # psi's block runs to the end of the file
    for n_rows, n_cols, then in ((len(gens), len(rels), "psi"), (len(rels), len(relrels), None)):
        rows, lines, k = section(
            k, ("phi", "psi"), "row col value",
            lambda i, j, v: (i < 1) | (i > n_rows) | (j < 1) | (j > n_cols),
            lambda i, j, v: f"index ({i},{j}) outside {n_rows}x{n_cols}", then,
        )
        flat = (rows[:, 0] - 1) * n_cols + rows[:, 1] - 1
        order = np.argsort(flat, kind="stable")
        last = order[np.diff(flat[order], append=-1) != 0]  # the last triplet of each entry
        entries = np.zeros((n_rows, n_cols), dtype=np.int64)
        entries.reshape(-1)[flat[last]] = rows[last, 2]  # GradedMatrix reduces mod p
        matrices.append((entries, flat[last], lines[last]))

    phi = GradedMatrix(gens, rels, matrices[0][0], p)
    psi = GradedMatrix(rels, relrels, matrices[1][0], p)
    for name, gm, (_, entry, setter) in (("phi", phi, matrices[0]), ("psi", psi, matrices[1])):
        problems = gm.inhomogeneous_entries()
        if problems:
            (i, j), problem = problems[0]
            lineno = setter[np.searchsorted(entry, i * len(gm.source) + j)]
            raise FormatError(f"line {lineno}: {name} not homogeneous: {problem}")
    return FreeResolution(gens, rels, relrels, phi, psi, nx, ny, p)
