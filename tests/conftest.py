import random
import re

import numpy as np
import pytest

from bipersist.bifiltration import Bifiltration, facets
from bipersist import ioutil
from bipersist.grid_module import PairTable, RankInvariant, pair_count
from bipersist.ioutil import FormatError, check_modulus, logical_lines, parse_int
from bipersist.resolution import FreeModule, FreeResolution, Presentation
from bipersist.weakexact import KappaIota
from paperlib import (
    Subspace,
    boundary_matrix,
    comparable_pairs,
    composite,
    dense_solve_matrix,
    extend_basis,
    graded_matrix,
    image_basis,
    kernel_basis,
    reference_rref,
    set_pair,
    subspace_intersect,
    subspace_sum,
)


def reference_rank(m, p):
    return len(reference_rref(m, p)[1])


def reference_kernel_basis(m, p):
    """Oracle for `paperlib.kernel_basis`: e_j - sum_i R[i, j] e_(pivot i) for
    every free column j of R = reference_rref(m), built entry by entry,
    then canonicalized as the reduced row echelon form of its span."""
    cols = m.shape[1]
    r, piv = reference_rref(m % p, p)
    free = [j for j in range(cols) if j not in piv]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(piv):
            basis[pc, k] = (-r[i, j]) % p
    r, piv = reference_rref(basis.T.copy(), p)
    return Subspace(cols, r[: len(piv)].T.copy(), p)


def random_bifiltration(seed, max_simplices=40, nx=8, ny=8, p=2):
    """Random 1-critical bifiltration of a small simplicial complex.

    Vertices get uniform grades; every higher simplex sits at or just
    above the join of its facets, so monotonicity holds by construction.
    """
    rng = random.Random(seed)
    n_vert = rng.randint(3, 8)
    present = [tuple([v]) for v in range(n_vert)]
    edges = [(i, j) for i in range(n_vert) for j in range(i + 1, n_vert)]
    rng.shuffle(edges)
    chosen = set()
    for e in edges:
        if len(present) >= max_simplices:
            break
        if rng.random() < 0.6:
            chosen.add(e)
            present.append(e)
    for i, j in list(chosen):
        for k in range(n_vert):
            if len(present) >= max_simplices:
                break
            tri = tuple(sorted({i, j, k}))
            if len(tri) == 3 and tri not in present:
                if all(f in chosen for f in facets(tri)) and rng.random() < 0.5:
                    present.append(tri)
    grades = {}
    for s in sorted(present, key=len):
        if len(s) == 1:
            grades[s] = (rng.randrange(nx), rng.randrange(ny))
        else:
            fx = max(grades[f][0] for f in facets(s))
            fy = max(grades[f][1] for f in facets(s))
            grades[s] = (
                min(nx - 1, fx + rng.randint(0, 1)),
                min(ny - 1, fy + rng.randint(0, 1)),
            )
    return Bifiltration(grades, nx, ny, p)


def clique_bifiltration(seed, n_vert, q, nx, ny, p=2):
    """Random clique-style bifiltration without the caps above.

    Each edge is present with probability q, a triangle on present
    edges with probability 1/2; grades follow the same join-plus-delay
    rule.
    """
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n_vert) for j in range(i + 1, n_vert) if rng.random() < q]
    edge_set = set(edges)
    tris = [
        (i, j, k)
        for i, j in edges
        for k in range(j + 1, n_vert)
        if (i, k) in edge_set and (j, k) in edge_set and rng.random() < 0.5
    ]
    grades = {(v,): (rng.randrange(nx), rng.randrange(ny)) for v in range(n_vert)}
    for s in edges + tris:
        fx = max(grades[f][0] for f in facets(s))
        fy = max(grades[f][1] for f in facets(s))
        grades[s] = (min(nx - 1, fx + rng.randint(0, 1)), min(ny - 1, fy + rng.randint(0, 1)))
    return Bifiltration(grades, nx, ny, p)


def kappa_iota_naive(module):
    """The kernel/image tables by direct subspace arithmetic at every
    comparable pair: the oracle for `weakexact.kappa_iota`."""
    nx, ny, p = module.nx, module.ny, module.p
    kappa = PairTable(nx, ny, np.zeros(pair_count(nx, ny), dtype=np.int64))
    iota = PairTable(nx, ny, np.zeros(pair_count(nx, ny), dtype=np.int64))
    for s, t in comparable_pairs(nx, ny):
        b, c = (t[0], s[1]), (s[0], t[1])
        set_pair(iota, s, t, subspace_intersect(
            image_basis(composite(module, b, t), p),
            image_basis(composite(module, c, t), p),
        ).dim)
        set_pair(kappa, s, t, subspace_sum(
            kernel_basis(composite(module, s, b), p),
            kernel_basis(composite(module, s, c), p),
        ).dim)
    return KappaIota(nx, ny, kappa, iota)


def _leq(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def reference_graded_kernel_basis(mat, col_grades, nx, ny, p):
    """Oracle for `resolution.graded_kernel_basis`: a dense kernel and its
    completion against the generators found so far at every grid point
    of the y-major sweep, whether or not the point gains a generator."""
    cols = mat.shape[1]
    col_g = [(int(g[0]), int(g[1])) for g in col_grades]
    found, grades = [], []
    for y in range(ny):
        for x in range(nx):
            t = (x, y)
            mask = np.array([_leq(g, t) for g in col_g], dtype=bool).reshape(cols)
            if not mask.any():
                continue
            ker = reference_kernel_basis(mat[:, mask], p)
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


def reference_homology_basis(bif, present, degree):
    """Oracle for `bifiltration.homology_basis`, as (reps, boundaries, dim):
    a dense kernel of the present boundary columns, embedded in the
    q-chains, and the cycles that complete the canonical basis of the
    boundaries."""
    p = bif.p
    present = set(present)
    q_list = bif.by_dim.get(degree, [])
    up_list = bif.by_dim.get(degree + 1, [])
    n_q = len(q_list)
    cycles = np.zeros((n_q, 0), dtype=np.int64)
    if n_q:
        mask = np.array([s in present for s in q_list], dtype=bool)
        ker = kernel_basis(boundary_matrix(bif, degree)[:, mask], p)
        cycles = np.zeros((n_q, ker.dim), dtype=np.int64)
        cycles[mask] = ker.basis
    umask = np.array([s in present for s in up_list], dtype=bool).reshape(len(up_list))
    bnd = Subspace.from_columns(boundary_matrix(bif, degree + 1)[:, umask], p).basis
    sel = extend_basis(bnd, cycles, p)
    return cycles[:, sel], bnd, len(sel)


def reference_presentation(bif, degree):
    """Oracle for `resolution.presentation`: each boundary column solved on
    its own, against the generators <= its grade only."""
    p = bif.p
    q_list = bif.by_dim.get(degree, [])
    up_list = bif.by_dim.get(degree + 1, [])
    gen_basis, gen_grades = reference_graded_kernel_basis(
        boundary_matrix(bif, degree), [bif.grades[s] for s in q_list], bif.nx, bif.ny, p
    )
    gens = FreeModule(gen_grades)
    d_up = boundary_matrix(bif, degree + 1)
    phi_cols, rel_grades = [], []
    for j, s in enumerate(up_list):
        sel = [i for i, g in enumerate(gen_grades) if _leq(g, bif.grades[s])]
        x = dense_solve_matrix(gen_basis[:, sel], d_up[:, j : j + 1], p)
        assert x is not None, "boundary column outside the generator span"
        col = np.zeros(len(gens), dtype=np.int64)
        col[sel] = x[:, 0]
        if col.any():
            phi_cols.append(col)
            rel_grades.append(bif.grades[s])
    phi = np.column_stack(phi_cols) if phi_cols else np.zeros((len(gens), 0), dtype=np.int64)
    rels = FreeModule(rel_grades)
    return Presentation(gens, rels, graded_matrix(gens, rels, phi, p), bif.nx, bif.ny, p)


INTEGER = re.compile(r"[+-]?[0-9]+")
INT64 = np.iinfo(np.int64)


def reference_rank_from_text(text):
    """Oracle: the per-line .rank reader, one check after another per line."""
    entries = {}
    nx = ny = top = 0
    for lineno, line in logical_lines(text):
        toks = re.findall(r"[^ \t\r]+", line)  # the fields: runs of characters other than space, tab and CR
        if len(toks) != 5 or not all(INTEGER.fullmatch(t) for t in toks):
            raise FormatError(f"line {lineno}: malformed")
        vals = [int(t) for t in toks]
        if not all(INT64.min <= v <= INT64.max for v in vals):
            raise FormatError(f"line {lineno}: outside int64")
        sx, sy, tx, ty, r = vals
        if not (1 <= sx <= tx and 1 <= sy <= ty):
            raise FormatError(f"line {lineno}: pair not comparable or not 1-based")
        if r < 0:
            raise FormatError(f"line {lineno}: negative rank")
        nx, ny, top = max(nx, tx), max(ny, ty), max(top, r)
        entry = 2 if top < 2**15 else 4 if top < 2**31 else 8  # the narrowest type that holds every rank so far
        if pair_count(nx, ny) * entry > ioutil.BYTES_CAP:
            raise FormatError(f"line {lineno}: the table of the grid so far passes the byte cap")
        key = (sx - 1, sy - 1, tx - 1, ty - 1)
        if key in entries:
            raise FormatError(f"line {lineno}: repeated pair")
        entries[key] = r
    inv = RankInvariant(nx, ny, np.zeros(pair_count(nx, ny), dtype=np.int64))
    for (sx, sy, tx, ty), r in entries.items():
        set_pair(inv, (sx, sy), (tx, ty), r)
    return inv


def reference_read_fres(text):
    """Oracle: the per-line .fres reader, one check after another per line.

    Fields are separated by spaces or tabs, and a CR reads as a space:
    the field rule of `ioutil.block_rows`.
    """
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = re.split(r"[ \t\r]+", raw.split("#", 1)[0].strip(" \t\r"))
        if toks != [""]:
            lines.append((lineno, toks))
    if not lines or lines[0][1] != ["resolution"]:
        raise FormatError(f"line {lines[0][0] if lines else 1}: expected 'resolution' header")
    pos = 1

    def take(prefix, parts):
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"line {lines[-1][0]}: missing '{prefix}' section")
        lineno, toks = lines[pos]
        if toks[0] != prefix or len(toks) != parts + 1:
            raise FormatError(f"line {lineno}: expected '{prefix}'")
        pos += 1
        return lineno, toks[1:]

    lineno, toks = take("field", 1)
    p = parse_int(toks[0], lineno, "modulus")
    try:
        check_modulus(p)
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None
    lineno, toks = take("grid", 2)
    nx, ny = (parse_int(v, lineno, "extent") for v in toks)
    if nx < 1 or ny < 1:
        raise FormatError(f"line {lineno}: grid extents must be positive")

    def grade_block(name):
        nonlocal pos
        take(name, 0)
        grades = []
        while pos < len(lines) and lines[pos][1][0] not in ("gens", "rels", "relrels", "phi", "psi"):
            lineno, toks = lines[pos]
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: expected 'g_x g_y'")
            gx, gy = (parse_int(v, lineno, "grade") for v in toks)
            if not (1 <= gx <= nx and 1 <= gy <= ny):
                raise FormatError(f"line {lineno}: grade ({gx},{gy}) outside the grid")
            grades.append((gx - 1, gy - 1))
            pos += 1
        return grades

    gens = FreeModule(grade_block("gens"))
    rels = FreeModule(grade_block("rels"))
    relrels = FreeModule(grade_block("relrels"))

    def matrix_block(name, n_rows, n_cols):
        """The block's matrix, and the line of the last triplet naming each entry."""
        nonlocal pos
        take(name, 0)
        mat = np.zeros((n_rows, n_cols), dtype=np.int64)
        setter = {}
        while pos < len(lines) and lines[pos][1][0] not in ("phi", "psi"):
            lineno, toks = lines[pos]
            if len(toks) != 3:
                raise FormatError(f"line {lineno}: expected 'row col value'")
            i, j, v = (parse_int(tok, lineno, "triplet entry") for tok in toks)
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise FormatError(f"line {lineno}: index ({i},{j}) outside {n_rows}x{n_cols}")
            mat[i - 1, j - 1] = v % p
            setter[i - 1, j - 1] = lineno
            pos += 1
        return mat, setter

    phi_entries, phi_setter = matrix_block("phi", len(gens), len(rels))
    psi_entries, psi_setter = matrix_block("psi", len(rels), len(relrels))
    if pos < len(lines):
        raise FormatError(f"line {lines[pos][0]}: expected the end of the file after the 'psi' block")
    for name, mat, setter, rows, cols in (
        ("phi", phi_entries, phi_setter, gens, rels),
        ("psi", psi_entries, psi_setter, rels, relrels),
    ):
        for i, j in zip(*np.nonzero(mat)):
            (a, b), (c, d) = rows.grades[i], cols.grades[j]
            if a > c or b > d:
                raise FormatError(f"line {setter[i, j]}: {name} not homogeneous")
    return FreeResolution(gens, rels, relrels, graded_matrix(gens, rels, phi_entries, p),
                          graded_matrix(rels, relrels, psi_entries, p), nx, ny, p)


@pytest.fixture
def random_bif():
    return random_bifiltration


@pytest.fixture
def clique_bif():
    return clique_bifiltration
