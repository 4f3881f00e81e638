"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
the same bytes.  The files are written in the package's own text
formats, so the CLI under test receives nothing but the generated files.
"""

from __future__ import annotations

import random

PRESENTATION_SEED = 808  # the seed of the 50x50 fixture in tests/test_acceptance.py


def presentation(seed: int = PRESENTATION_SEED, n: int = 50, gens: int = 500,
                 rels: int = 500, p: int = 2):
    """A `.fres` presentation on an n x n grid, all generators at the origin.

    Relations sit at seeded grades and each phi entry is 1 with
    probability 1/2.  With the default arguments the text is byte for
    byte the acceptance suite's 50x50 timing fixture
    (`_perf_fixture_text`).  Returns (text, rel_grades, columns) where
    rel_grades are 0-based and columns[j] is the support of phi's column
    j as a Python-int bitset over generators.
    """
    rng = random.Random(seed)
    lines = ["resolution", f"field {p}", f"grid {n} {n}", "gens"]
    lines += ["1 1"] * gens
    lines.append("rels")
    rel_grades = []
    for _ in range(rels):
        g = (rng.randrange(n), rng.randrange(n))
        rel_grades.append(g)
        lines.append(f"{g[0] + 1} {g[1] + 1}")
    lines.append("relrels")
    lines.append("phi")
    columns = []
    for j in range(rels):
        col = 0
        for i in range(gens):
            if rng.random() < 0.5:
                lines.append(f"{i + 1} {j + 1} 1")
                col |= 1 << i
        columns.append(col)
    lines.append("psi")
    return "\n".join(lines) + "\n", rel_grades, columns


def _facets(s):
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def clique_grades(seed: int, n_vert: int, nx: int, ny: int, q: float) -> dict:
    """Random 1-critical bifiltration of a clique-style complex.

    The rule of the test suite's `random_bifiltration`, without its
    8-vertex / 40-simplex cap: each edge is present with probability q,
    a triangle whose three edges are present is kept with probability
    1/2, vertices get uniform grades, and every higher simplex enters at
    the join of its facets plus a seeded 0/1 delay per coordinate
    (clamped to the grid).  Returns {simplex: (x, y)}, 0-based.
    """
    rng = random.Random(seed)
    verts = [(v,) for v in range(n_vert)]
    edges = [(i, j) for i in range(n_vert) for j in range(i + 1, n_vert) if rng.random() < q]
    edge_set = set(edges)
    tris = [
        (i, j, k)
        for i, j in edges
        for k in range(j + 1, n_vert)
        if (i, k) in edge_set and (j, k) in edge_set and rng.random() < 0.5
    ]
    grades = {}
    for v in verts:
        grades[v] = (rng.randrange(nx), rng.randrange(ny))
    for s in edges + tris:
        fx = max(grades[f][0] for f in _facets(s))
        fy = max(grades[f][1] for f in _facets(s))
        grades[s] = (min(nx - 1, fx + rng.randint(0, 1)), min(ny - 1, fy + rng.randint(0, 1)))
    return grades


def normalized(grades: dict):
    """Grades on the smallest grid with the same subcomplexes.

    Each coordinate becomes its rank among the values used, as the
    `.bif` reader does.  Returns (grades, nx, ny).
    """
    xs = sorted({g[0] for g in grades.values()})
    ys = sorted({g[1] for g in grades.values()})
    xr = {v: i for i, v in enumerate(xs)}
    yr = {v: i for i, v in enumerate(ys)}
    return {s: (xr[g[0]], yr[g[1]]) for s, g in grades.items()}, len(xs), len(ys)


def grid_incidences(grades: dict) -> int:
    """Sum over grid points t of |F_t|, on the grid the `.bif` reader builds.

    Every stage of the check route works point by point on the complexes
    F_t, so this is the input size its running time follows.
    """
    norm, nx, ny = normalized(grades)
    return sum((nx - x) * (ny - y) for x, y in norm.values())


def sized_clique_grades(seed: int, n_vert: int, n: int, q: float, size: int, tol: float = 0.03) -> dict:
    """`clique_grades` on an n x n grid, drawn until its size is near `size`.

    Draws seeded candidates in turn and returns the first whose
    `grid_incidences` is within `tol` of `size`.  Holding the size fixed
    keeps one input's cost close to the next one's, while the structure
    and the grades stay random.
    """
    rng = random.Random(seed)
    for _ in range(10_000):
        grades = clique_grades(rng.getrandbits(64), n_vert, n, n, q)
        if abs(grid_incidences(grades) - size) <= tol * size:
            return grades
    raise ValueError(f"no {n_vert}-vertex input of size {size} within {tol:.0%}")


def bif_text(grades: dict, p: int) -> str:
    """Serialize simplex grades as a `.bif` file (1-based grades)."""
    out = ["bifiltration", f"field {p}"]
    for s in sorted(grades, key=lambda s: (len(s), s)):
        g = grades[s]
        out.append(f"{g[0] + 1} {g[1] + 1} ; " + " ".join(str(v) for v in s))
    return "\n".join(out) + "\n"


# One-simplex input for the no-work start-up probe.
TINY_BIF = "bifiltration\nfield 2\n1 1 ; 0\n"
