import random

import numpy as np
import pytest

from bipersist.bifiltration import Bifiltration, facets
from bipersist.grid_module import comparable_pairs
from bipersist.linalg import image_basis, kernel_basis, subspace_intersect, subspace_sum
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


@pytest.fixture
def random_bif():
    return random_bifiltration


@pytest.fixture
def clique_bif():
    return clique_bifiltration
