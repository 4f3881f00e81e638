import random
import re

import numpy as np
import pytest

from bipersist.bifiltration import Bifiltration, facets
from bipersist.grid_module import comparable_pairs
from bipersist.ioutil import FormatError, parse_int
from bipersist.linalg import check_modulus, image_basis, kernel_basis, subspace_intersect, subspace_sum
from bipersist.resolution import FreeModule, FreeResolution, GradedMatrix
from bipersist.weakexact import KappaIota


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
    kappa = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    iota = np.zeros((nx, ny, nx, ny), dtype=np.int64)
    for s, t in comparable_pairs(nx, ny):
        b, c = (t[0], s[1]), (s[0], t[1])
        iota[s + t] = subspace_intersect(
            image_basis(module.composite(b, t), p),
            image_basis(module.composite(c, t), p),
        ).dim
        kappa[s + t] = subspace_sum(
            kernel_basis(module.composite(s, b), p),
            kernel_basis(module.composite(s, c), p),
        ).dim
    return KappaIota(nx, ny, kappa, iota)


def reference_read_fres(text):
    """Oracle: the per-line .fres reader, one check after another per line.

    Fields are separated by spaces or tabs, and a CR reads as a space:
    the field rule of `ioutil.int_rows`.
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
    return FreeResolution(gens, rels, relrels, GradedMatrix(gens, rels, phi_entries, p),
                          GradedMatrix(rels, relrels, psi_entries, p), nx, ny, p)


@pytest.fixture
def random_bif():
    return random_bifiltration


@pytest.fixture
def clique_bif():
    return clique_bifiltration
