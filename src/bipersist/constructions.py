"""Worked-example modules and the poset-to-grid machinery.

The catalogue in example() holds the small fixture modules used across
the test suite.  The rest of the module builds representations of
finite posets, embeds them into grids, computes right Kan extensions
pointwise as limits over upsets, and provides the staircase grid
module together with a randomized isomorphism confirmer.
"""

from __future__ import annotations

import random

import numpy as np

from .grid_module import GridModule, hom_basis, naturality_hom_basis
from .ioutil import InvariantError
from .linalg import check_modulus, invertible, kernel_basis, matmul, solve, solve_matrix


# -- finite posets and their representations ----------------------------


class FinitePoset:
    """A finite poset given by its elements and covering relations."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        index = {u: i for i, u in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self.covers = [(u, v) for u, v in covers]
        for u, v in self.covers:
            if u not in index or v not in index:
                raise ValueError(f"cover ({u}, {v}) uses unknown elements")
        n = len(self.elements)
        leq = np.eye(n, dtype=bool)
        for u, v in self.covers:
            leq[index[u], index[v]] = True
        # transitive closure (Floyd-Warshall on the boolean matrix)
        for k in range(n):
            leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise ValueError("covers contain a cycle")
        self._index = index
        self._leq = leq

    def leq(self, u, v) -> bool:
        return bool(self._leq[self._index[u], self._index[v]])

    def restrict(self, keep) -> "FinitePoset":
        """Induced subposet, with covers recomputed inside the subset."""
        keep = [u for u in self.elements if u in set(keep)]
        covers = []
        for u in keep:
            for v in keep:
                if u != v and self.leq(u, v):
                    between = [w for w in keep if w not in (u, v) and self.leq(u, w) and self.leq(w, v)]
                    if not between:
                        covers.append((u, v))
        return FinitePoset(keep, covers)


class PosetModule:
    """A functor from a finite poset to F_p vector spaces.

    maps[(u, v)] is the matrix of the cover u < v; composites along
    different cover paths must agree (checked by validate).
    """

    def __init__(self, poset: FinitePoset, p: int, dims: dict, maps: dict):
        self.poset = poset
        self.p = check_modulus(p)
        self.dims = {u: int(dims.get(u, 0)) for u in poset.elements}
        self.maps = {}
        for (u, v) in poset.covers:
            m = maps.get((u, v))
            shape = (self.dims[v], self.dims[u])
            if m is None:
                m = np.zeros(shape, dtype=np.int64)
            m = np.mod(np.array(m, dtype=np.int64).reshape(shape), self.p)
            self.maps[(u, v)] = m

    def validate(self) -> list[str]:
        bad = []
        for u in self.poset.elements:
            for v in self.poset.elements:
                if u != v and self.poset.leq(u, v):
                    comps = self._path_composites(u, v)
                    for m in comps[1:]:
                        if not np.array_equal(m, comps[0]):
                            bad.append(f"path composites {u} -> {v} disagree")
                            break
        return bad

    def _path_composites(self, u, v) -> list[np.ndarray]:
        if u == v:
            return [np.eye(self.dims[u], dtype=np.int64)]
        out = []
        for (w, x) in self.poset.covers:
            if x == v and self.poset.leq(u, w):
                for m in self._path_composites(u, w):
                    out.append(matmul(self.maps[(w, x)], m, self.p))
        return out

    def restrict(self, keep) -> "PosetModule":
        sub = self.poset.restrict(keep)
        maps = {}
        for (u, v) in sub.covers:
            # a cover of the subposet is a comparable pair upstairs;
            # its matrix is any cover-path composite there
            maps[(u, v)] = self._composite(u, v)
        return PosetModule(sub, self.p, {u: self.dims[u] for u in sub.elements}, maps)

    def _composite(self, u, v) -> np.ndarray:
        comps = self._path_composites(u, v)
        if not comps:
            raise ValueError(f"{u} and {v} are not comparable")
        return comps[0]


def indicator_poset_module(poset: FinitePoset, support, p: int) -> PosetModule:
    """k at each point of `support` with identity maps inside it."""
    support = set(support)
    dims = {u: 1 if u in support else 0 for u in poset.elements}
    maps = {}
    for (u, v) in poset.covers:
        if u in support and v in support:
            maps[(u, v)] = np.array([[1]], dtype=np.int64)
    return PosetModule(poset, p, dims, maps)


class GridEmbedding:
    """A fully faithful poset map into a finite grid.

    mapping[u] is a 0-based grid point; full faithfulness means
    u <= v in the poset iff mapping[u] <= mapping[v] in the grid order.
    """

    def __init__(self, poset: FinitePoset, mapping: dict):
        self.poset = poset
        self.mapping = {u: tuple(mapping[u]) for u in poset.elements}
        if len(set(self.mapping.values())) != len(poset.elements):
            raise ValueError("embedding is not injective")
        for u in poset.elements:
            for v in poset.elements:
                grid_leq = (
                    self.mapping[u][0] <= self.mapping[v][0]
                    and self.mapping[u][1] <= self.mapping[v][1]
                )
                if poset.leq(u, v) != grid_leq:
                    raise ValueError(f"embedding not fully faithful at ({u}, {v})")


def hom_basis_poset(a: PosetModule, b: PosetModule) -> list[dict]:
    """Basis of natural transformations a -> b over a shared poset."""
    if a.poset is not b.poset and a.poset.elements != b.poset.elements:
        raise ValueError("hom needs a shared poset")
    edges = [(u, v, a.maps[(u, v)], b.maps[(u, v)]) for (u, v) in a.poset.covers]
    return naturality_hom_basis(a.poset.elements, a.dims, b.dims, edges, a.p)


def hom_dim_poset(a: PosetModule, b: PosetModule) -> int:
    return len(hom_basis_poset(a, b))


# -- the dart poset and its grid embedding -------------------------------


def dart(n: int, p: int = 2) -> PosetModule:
    """The (n+2)-element poset 1..n+1 < n+2 carrying k -> k^n maps.

    Elements 1..n map in by the coordinate inclusions, element n+1 by
    the diagonal; every pointwise dimension is at most n while the
    poset width is n+1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    elements = list(range(1, n + 3))
    top = n + 2
    covers = [(i, top) for i in range(1, n + 2)]
    poset = FinitePoset(elements, covers)
    dims = {i: 1 for i in range(1, n + 2)}
    dims[top] = n
    maps = {}
    for i in range(1, n + 1):
        col = np.zeros((n, 1), dtype=np.int64)
        col[i - 1, 0] = 1
        maps[(i, top)] = col
    maps[(n + 1, top)] = np.ones((n, 1), dtype=np.int64)
    return PosetModule(poset, p, dims, maps)


def dart_embedding(n: int) -> GridEmbedding:
    """The standard embedding into the (n+1) x (n+1) grid (0-based).

    Element i goes to the antidiagonal point (i-1, n+1-i); the top
    element goes to the upper-right corner.
    """
    module_poset = dart(n).poset
    mapping = {i: (i - 1, n + 1 - i) for i in range(1, n + 2)}
    mapping[n + 2] = (n, n)
    return GridEmbedding(module_poset, mapping)


# -- right Kan extension --------------------------------------------------


def ran_extension(module: PosetModule, embedding: GridEmbedding, nx: int, ny: int) -> GridModule:
    """Right Kan extension along a grid embedding, computed pointwise.

    At a grid point t the value is the limit of the module over the
    upset {u : e(u) >= t}, realized as the kernel of the difference map
    prod_u N_u -> prod_{covers u < u' inside the upset} N_u'; the limit
    of the empty diagram is the zero space.  Edge maps drop the
    coordinates that leave the upset.
    """
    p = module.p
    poset = module.poset
    elems = poset.elements
    emb = embedding.mapping

    def upset(t):
        return [u for u in elems if emb[u][0] >= t[0] and emb[u][1] >= t[1]]

    limits = {}
    for x in range(nx):
        for y in range(ny):
            t = (x, y)
            us = upset(t)
            offs = {}
            total = 0
            for u in us:
                offs[u] = total
                total += module.dims[u]
            rows = []
            for (u, v) in poset.covers:
                if u in offs and v in offs:
                    dv = module.dims[v]
                    if dv == 0:
                        continue
                    row = np.zeros((dv, total), dtype=np.int64)
                    row[:, offs[u] : offs[u] + module.dims[u]] = module.maps[(u, v)]
                    row[:, offs[v] : offs[v] + dv] -= np.eye(dv, dtype=np.int64)
                    rows.append(np.mod(row, p))
            system = np.vstack(rows) if rows else np.zeros((0, total), dtype=np.int64)
            limits[t] = (us, offs, total, kernel_basis(system, p))

    dims = np.zeros((nx, ny), dtype=np.int64)
    for t, (_, _, _, ker) in limits.items():
        dims[t] = ker.dim

    def edge(t, t2):
        us, offs, total, ker = limits[t]
        us2, offs2, total2, ker2 = limits[t2]
        proj = np.zeros((total2, total), dtype=np.int64)
        for u in us2:
            d = module.dims[u]
            proj[offs2[u] : offs2[u] + d, offs[u] : offs[u] + d] = np.eye(d, dtype=np.int64)
        projected = matmul(proj, ker.basis, p)
        sol = solve_matrix(ker2.basis, projected, p)
        if sol is None:
            raise InvariantError("restricted limit family is not a limit family")
        return sol

    hmaps, vmaps = {}, {}
    for x in range(nx - 1):
        for y in range(ny):
            hmaps[(x, y)] = edge((x, y), (x + 1, y))
    for x in range(nx):
        for y in range(ny - 1):
            vmaps[(x, y)] = edge((x, y), (x, y + 1))
    return GridModule(nx, ny, p, dims, hmaps, vmaps)


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


def pad(module: GridModule, nx: int, ny: int) -> GridModule:
    """Copy-paste into the bottom-left of a larger grid, zero elsewhere."""
    if nx < module.nx or ny < module.ny:
        raise ValueError("target grid must contain the module's grid")
    dims = np.zeros((nx, ny), dtype=np.int64)
    dims[: module.nx, : module.ny] = module.dims
    hmaps = {k: v for k, v in module.hmaps.items()}
    vmaps = {k: v for k, v in module.vmaps.items()}
    return GridModule(nx, ny, module.p, dims, hmaps, vmaps)


# -- randomized isomorphism confirmation ----------------------------------


def iso_test(a: GridModule, b: GridModule, trials: int = 64, seed: int = 0):
    """One-sided randomized isomorphism check.

    Samples random F_p combinations of a Hom basis and tests pointwise
    invertibility; returns ("confirmed", None) on success and
    ("undetermined", reason) otherwise.  Never asserts non-isomorphism;
    p >= 101 keeps the failure probability of a true isomorphism low.
    """
    if (a.nx, a.ny) != (b.nx, b.ny) or a.p != b.p:
        return "undetermined", "grids or fields differ"
    for t in a.points():
        if a.dim_at(t) != b.dim_at(t):
            return "undetermined", f"pointwise dimensions differ at {t}"
    if int(a.dims.sum()) == 0:
        return "confirmed", None  # both zero modules
    basis = hom_basis(a, b)
    if not basis:
        return "undetermined", "Hom space is zero"
    p = a.p
    support = [t for t in a.points() if a.dim_at(t) > 0]
    # Deterministic first try: a combination that is the identity at
    # every point (one linear solve) is immediately an isomorphism.
    blocks, targets = [], []
    for t in support:
        d = a.dim_at(t)
        block = np.zeros((d * d, len(basis)), dtype=np.int64)
        for i, h in enumerate(basis):
            if t in h:
                block[:, i] = h[t].reshape(-1)
        blocks.append(block)
        targets.append(np.eye(d, dtype=np.int64).reshape(-1))
    if solve(np.vstack(blocks), np.concatenate(targets), p) is not None:
        return "confirmed", None
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randrange(p) for _ in basis]
        ok = True
        for t in support:
            phi = np.zeros((b.dim_at(t), a.dim_at(t)), dtype=np.int64)
            for c, h in zip(coeffs, basis):
                if c and t in h:
                    phi = (phi + c * h[t]) % p
            if not invertible(phi, p):
                ok = False
                break
        if ok:
            return "confirmed", None
    return "undetermined", f"no invertible combination found in {trials} trials"


# -- random rectangle-decomposable modules --------------------------------


def random_rectangle_module(nx: int, ny: int, max_summands: int, seed: int, p: int = 2):
    """A random direct sum of rectangle indicators plus its ground truth.

    Returns (module, barcode) where barcode maps 0-based rectangles
    (sx, sy, tx, ty) to multiplicities.
    """
    rng = random.Random(seed)
    count = rng.randint(1, max_summands)
    barcode: dict = {}
    module = GridModule.zero(nx, ny, p)
    for _ in range(count):
        sx = rng.randrange(nx)
        tx = rng.randrange(sx, nx)
        sy = rng.randrange(ny)
        ty = rng.randrange(sy, ny)
        rect = (sx, sy, tx, ty)
        barcode[rect] = barcode.get(rect, 0) + 1
        module = module.direct_sum(GridModule.rectangle(nx, ny, rect, p))
    return module, barcode


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
        return GridModule.zero(2, 2, p)
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
