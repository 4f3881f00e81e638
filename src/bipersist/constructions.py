"""The modules the `examples` and `random-rect` commands emit.

The catalogue in example() holds the small worked-example modules,
`indecgrid(n)` the indecomposable staircase family, and
`random_rectangle_module` a seeded rectangle-decomposable module with
its ground-truth barcode.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from .gmod import identities_problem
from .grid_module import GridModule


# -- the staircase module -------------------------------------------------


def indecgrid(n: int, p: int = 2) -> GridModule:
    """The indecomposable staircase module on the (n+1) x (n+1) grid.

    k^n above the antidiagonal (identity maps), k on the antidiagonal,
    zero below; the antidiagonal point in column x feeds in by the
    coordinate inclusion e_x, except the bottom-right one which feeds
    in by the diagonal.  Every pointwise dimension is at most n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    size = n + 1
    dims = np.zeros((size, size), dtype=np.int64)
    for x in range(size):
        for y in range(size):
            if x + y >= n + 1:
                dims[x, y] = n
            elif x + y == n:
                dims[x, y] = 1
    hmaps, vmaps = {}, {}
    eye = np.eye(n, dtype=np.int64)

    def inclusion(x):
        if x == n:  # bottom-right antidiagonal point: the diagonal map
            return np.ones((n, 1), dtype=np.int64)
        col = np.zeros((n, 1), dtype=np.int64)
        col[x, 0] = 1
        return col

    for x in range(size - 1):
        for y in range(size):
            if x + y >= n + 1:
                hmaps[(x, y)] = eye
            elif x + y == n:
                hmaps[(x, y)] = inclusion(x)
    for x in range(size):
        for y in range(size - 1):
            if x + y >= n + 1:
                vmaps[(x, y)] = eye
            elif x + y == n:
                vmaps[(x, y)] = inclusion(x)
    return GridModule(size, size, p, dims, hmaps, vmaps)


# -- random rectangle-decomposable modules --------------------------------


def random_rectangle_module(nx: int, ny: int, max_summands: int, seed: int, p: int = 2):
    """A random direct sum of rectangle indicators plus its ground truth.

    Returns (module, barcode) where barcode maps 0-based rectangles
    (sx, sy, tx, ty) to multiplicities.

    The sum is built in one pass: the basis at each point is the
    summands that contain it (`at`), in draw order, and each edge map is
    the 0/1 matrix that keeps the summands its target shares with its
    source: the block-diagonal sum, entry for entry.  A sum whose
    identities `read_gmod` would refuse is refused, with the reader's
    reason, before any map is built.
    """
    rng = random.Random(seed)
    rects = []
    for _ in range(rng.randint(1, max_summands)):
        sx = rng.randrange(nx)
        tx = rng.randrange(sx, nx)
        sy = rng.randrange(ny)
        ty = rng.randrange(sy, ny)
        rects.append((sx, sy, tx, ty))
    sx, sy, tx, ty = np.array(rects).T
    # the dimensions first: a 2-D prefix sum of +1 at each lower corner
    # and -1 past the rectangle's edges
    dims = np.zeros((nx + 1, ny + 1), dtype=np.int64)
    for x, y, sign in ((sx, sy, 1), (tx + 1, sy, -1), (sx, ty + 1, -1), (tx + 1, ty + 1, 1)):
        np.add.at(dims, (x, y), sign)
    dims = dims.cumsum(0).cumsum(1)[:nx, :ny]
    if problem := identities_problem(8 * int((dims * dims).sum())):
        raise ValueError(problem)
    at = [[np.flatnonzero((sx <= x) & (x <= tx) & (sy <= y) & (y <= ty)) for y in range(ny)] for x in range(nx)]
    hmaps = {(x, y): at[x + 1][y][:, None] == at[x][y] for x in range(nx - 1) for y in range(ny)}
    vmaps = {(x, y): at[x][y + 1][:, None] == at[x][y] for x in range(nx) for y in range(ny - 1)}
    return GridModule(nx, ny, p, dims, hmaps, vmaps), dict(Counter(rects))


# -- worked-example catalogue ---------------------------------------------


def example(name: str, p: int = 2) -> GridModule:
    """Small fixture modules; entries use 0/1/-1 so any prime field works."""
    Z = np.zeros
    if name == "ex1":
        # one-parameter: k^2 -> k^2 -> k on a 3x1 grid
        return GridModule(
            3, 1, p,
            [[2], [2], [1]],
            hmaps={(0, 0): [[1, 1], [0, 1]], (1, 0): [[1, -1]]},
        )
    if name == "ex2":
        # 2x2 square decomposing into {c,d} and the full rectangle
        return GridModule(
            2, 2, p,
            [[1, 2], [1, 2]],
            hmaps={(0, 0): [[1]], (0, 1): [[1, -1], [0, 1]]},
            vmaps={(0, 0): [[1], [1]], (1, 0): [[0], [1]]},
        )
    if name in ("ex3-left", "ex3-right"):
        top_left = [[1], [0]] if name == "ex3-left" else [[1], [1]]
        return GridModule(
            3, 2, p,
            [[0, 1], [1, 2], [1, 1]],
            hmaps={(1, 0): [[1]], (0, 1): top_left, (1, 1): [[1, 0]]},
            vmaps={(1, 0): [[1], [0]], (2, 0): [[1]]},
        )
    if name in ("ex4-left", "ex4-right"):
        mid_top = [[1, 0], [0, 1]] if name == "ex4-left" else [[0, 0], [0, 1]]
        return GridModule(
            3, 2, p,
            [[0, 1], [1, 2], [1, 2]],
            hmaps={(1, 0): [[1]], (0, 1): [[1], [0]], (1, 1): mid_top},
            vmaps={(1, 0): [[0], [1]], (2, 0): [[0], [1]]},
        )
    if name == "hooks-vertical":
        # 2 columns x 3 rows; the only hook sits on the outermost square
        return GridModule(
            2, 3, p,
            [[0, 1, 1], [1, 2, 1]],
            hmaps={(0, 1): [[1], [0]], (0, 2): [[1]]},
            vmaps={(0, 1): [[1]], (1, 0): [[1], [1]], (1, 1): [[1, 0]]},
        )
    if name == "hooks-vertical-dual":
        return example("hooks-vertical", p).dualize()
    if name == "ex3-right-dual":
        return example("ex3-right", p).dualize()
    if name == "zero":
        return GridModule(2, 2, p, Z((2, 2)))
    raise ValueError(f"unknown example {name!r}")


EXAMPLE_NAMES = (
    "ex1",
    "ex2",
    "ex3-left",
    "ex3-right",
    "ex3-right-dual",
    "ex4-left",
    "ex4-right",
    "hooks-vertical",
    "hooks-vertical-dual",
    "zero",
)
