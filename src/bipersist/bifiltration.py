"""1-critical simplicial bifiltrations over a finite grid.

Parsing and validation, graded subcomplexes, and graded homology by
brute force: `homology_basis` and `homology_map` at single points,
which the `zigzag-barcode` subcommand solves along its path, and
`homology_module` over the whole grid, the tests' and the benchmark's
oracle of the presentation that every other .bif command reads the
module off.  The boundaries are cached per degree as columns in the
form of `linalg.ColumnReducer` (`Bifiltration.boundary_columns`), which
the presentation and the homology take as they come: no dense boundary.

Parsing and validation are pure Python, and the module loads no numpy:
the boundary columns and the homology import `linalg`, numpy and
`grid_module` when called, so `validate` and every refusal of a .bif
made before the algebra starts run without them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .ioutil import BLANKS, FormatError, InvariantError, check_modulus, fields, logical_lines, parse_int

if TYPE_CHECKING:  # annotations only
    import numpy as np

    from .grid_module import GridModule

Simplex = tuple[int, ...]


def _check_simplex(verts: Sequence[int]) -> Simplex:
    s = tuple(int(v) for v in verts)
    if not s:
        raise ValueError("empty simplex")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise ValueError(f"vertex ids must be strictly increasing: {s}")
    return s


def facets(s: Simplex) -> list[Simplex]:
    if len(s) <= 1:
        return []  # vertices have no faces; the empty simplex is not modeled
    return [s[:i] + s[i + 1 :] for i in range(len(s))]


class Bifiltration:
    """A bifiltered complex where each simplex enters at a single grade.

    Grades are stored 0-based on the normalized grid.
    """

    def __init__(self, grades: dict, nx: int, ny: int, p: int = 2):
        self.p = check_modulus(p)
        self.nx = int(nx)
        self.ny = int(ny)
        self.grades: dict[Simplex, tuple[int, int]] = {
            _check_simplex(s): (int(g[0]), int(g[1])) for s, g in grades.items()
        }
        self.by_dim: dict[int, list[Simplex]] = {}
        for s in sorted(self.grades):
            self.by_dim.setdefault(len(s) - 1, []).append(s)
        self._boundary: dict[int, list] = {}

    @classmethod
    def from_graded_simplices(cls, items: Iterable, p: int = 2) -> "Bifiltration":
        """Build from (grade, vertex-tuple) pairs, normalizing the grades.

        Each coordinate is replaced by its rank among the distinct values
        appearing in that coordinate, so real-valued inputs land on the
        smallest grid with the same subcomplexes.  Grades must be finite.
        """
        parsed = []
        for g, s in items:
            try:
                grade = (float(g[0]), float(g[1]))
            except OverflowError:
                raise ValueError(f"simplex {_check_simplex(s)} has a grade past the float range") from None
            parsed.append((grade, _check_simplex(s)))
        for g, s in parsed:
            if not all(map(math.isfinite, g)):
                raise ValueError(f"simplex {s} has a non-finite grade {g}")
        xs = sorted({g[0] for g, _ in parsed})
        ys = sorted({g[1] for g, _ in parsed})
        xrank = {v: i for i, v in enumerate(xs)}
        yrank = {v: i for i, v in enumerate(ys)}
        grades: dict = {}
        for g, s in parsed:
            if s in grades:
                raise ValueError(f"duplicate simplex {s}")
            grades[s] = (xrank[g[0]], yrank[g[1]])
        return cls(grades, max(1, len(xs)), max(1, len(ys)), p)

    def validate(self) -> list[str]:
        problems = []
        for s in sorted(self.grades):
            g = self.grades[s]
            if not (0 <= g[0] < self.nx and 0 <= g[1] < self.ny):
                problems.append(f"simplex {s} grade {g} outside the {self.nx}x{self.ny} grid")
            if len(s) == 1:
                continue
            for f in facets(s):
                if f not in self.grades:
                    problems.append(f"face {f} of {s} is missing")
                elif not (self.grades[f][0] <= g[0] and self.grades[f][1] <= g[1]):
                    problems.append(f"face {f} graded {self.grades[f]}, above {s} at {g}")
        return problems

    def complex_at(self, t) -> set:
        """All simplices present at grid point t (0-based)."""
        x, y = t
        if not (0 <= x < self.nx and 0 <= y < self.ny):
            raise ValueError(f"{tuple(t)} outside the {self.nx}x{self.ny} grid")
        return {s for s, g in self.grades.items() if g[0] <= x and g[1] <= y}

    def boundary_columns(self, q: int) -> list:
        """The boundary of each q-simplex over the (q-1)-simplices, mod p,
        in the form `linalg.ColumnReducer.add` takes (bitsets at p = 2,
        int64 arrays otherwise), built from its facets' rows and signs;
        cached per degree, so never written.  A vertex's boundary is zero."""
        if q not in self._boundary:
            from .linalg import ColumnReducer

            index = {s: i for i, s in enumerate(self.by_dim.get(q - 1, []))}
            entries = []
            for s in self.by_dim.get(q, []):
                missing = [f for f in facets(s) if f not in index]
                if missing:
                    raise ValueError(f"face {missing[0]} of {s} is missing")
                entries.append([(index[f], (-1) ** i) for i, f in enumerate(facets(s))])
            self._boundary[q] = ColumnReducer.sparse(entries, len(index), self.p)
        return self._boundary[q]


# -- graded homology ------------------------------------------------------


class HomologyBasis:
    """Cycle representatives for H_q of one subcomplex, in global chain coords:
    `reps` and a basis of the boundaries, as columns of F_p^chains in the
    form `linalg.ColumnReducer.add` takes, chains the q-simplex count."""

    def __init__(self, reps: list, boundaries: list, chains: int):
        self.reps, self.boundaries, self.chains, self.dim = reps, boundaries, chains, len(reps)


def homology_basis(bif: Bifiltration, present: Iterable[Simplex], degree: int) -> HomologyBasis:
    """H_degree of the subcomplex on `present`, boundaries-first completion.

    One `ColumnReducer` over all the q-simplices takes the columns of
    [d_q; I] (`ColumnReducer.stacked`) of the present ones, so the
    reduced echelon basis of the cycles comes out in global chain
    coordinates.  The columns go in last first: a column that reduces to
    a cycle then leads at its own identity row, which no column admitted
    before it holds, and cycles never collide with each other.  A second
    reducer takes the present boundary columns, and those it admits, as
    cached, are the boundary basis; then `ColumnReducer.kernel` hands it
    the cycles, and those it admits, independent of the boundaries and of
    each other, are the representatives.
    """
    if degree < 0:
        raise ValueError(f"homology degree {degree} is negative")
    from .linalg import ColumnReducer

    p, present = bif.p, set(present)
    k, q_list, up_list = len(bif.by_dim.get(degree - 1, [])), bif.by_dim.get(degree, []), bif.by_dim.get(degree + 1, [])
    cycle_space = ColumnReducer(k + len(q_list), p)
    d_q = ColumnReducer.stacked(bif.boundary_columns(degree), k, p)
    for v in reversed([v for v, s in zip(d_q, q_list) if s in present]):
        cycle_space.add(v)
    span = ColumnReducer(len(q_list), p)
    bnd = [v for v, s in zip(bif.boundary_columns(degree + 1), up_list) if s in present and span.add(v) is not None]
    return HomologyBasis(cycle_space.kernel(k, span), bnd, len(q_list))


def homology_map(src: HomologyBasis, tgt: HomologyBasis, p: int) -> np.ndarray:
    """Matrix of H_q(inclusion) in the two representative bases."""
    import numpy as np

    from .linalg import solve_matrix

    if src.dim == 0 or tgt.dim == 0:
        return np.zeros((tgt.dim, src.dim), dtype=np.int64)
    x = solve_matrix(tgt.reps + tgt.boundaries, src.reps, p, k=tgt.chains)
    if x is None:  # cycles of a subcomplex stay cycles in any supercomplex
        raise InvariantError("homology representative is not a cycle in the target")
    return x[: tgt.dim]


def homology_module(bif: Bifiltration, degree: int) -> GridModule:
    """Brute-force graded homology of the bifiltration; the oracle module."""
    import numpy as np

    from .grid_module import GridModule

    nx, ny, p = bif.nx, bif.ny, bif.p
    data = {t: homology_basis(bif, bif.complex_at(t), degree) for t in np.ndindex(nx, ny)}
    dims = np.array([hb.dim for hb in data.values()], dtype=np.int64).reshape(nx, ny)
    hmaps = {(x, y): homology_map(hb, data[(x + 1, y)], p) for (x, y), hb in data.items() if x + 1 < nx}
    vmaps = {(x, y): homology_map(hb, data[(x, y + 1)], p) for (x, y), hb in data.items() if y + 1 < ny}
    return GridModule(nx, ny, p, dims, hmaps, vmaps)


# -- .bif file format ------------------------------------------------------


def write_bif(bif: Bifiltration) -> str:
    """Serialize with normalized 1-based integer grades."""
    out = ["bifiltration", f"field {bif.p}"]
    for q in sorted(bif.by_dim):
        for s in bif.by_dim[q]:
            g = bif.grades[s]
            out.append(f"{g[0] + 1} {g[1] + 1} ; " + " ".join(str(v) for v in s))
    return "\n".join(out) + "\n"


def read_bif(text: str) -> Bifiltration:
    lines = list(logical_lines(text))
    if not lines or lines[0][1] != "bifiltration":
        lineno = lines[0][0] if lines else 1
        raise FormatError(f"line {lineno}: expected 'bifiltration' header")
    if len(lines) < 2:
        raise FormatError(f"line {lines[0][0]}: missing 'field p' line")
    lineno, line = lines[1]
    toks = fields(line)
    if len(toks) != 2 or toks[0] != "field":
        raise FormatError(f"line {lineno}: expected 'field p'")
    p = parse_int(toks[1], lineno, "modulus")
    try:
        check_modulus(p)
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None
    items = []
    seen = set()
    for lineno, line in lines[2:]:
        if ";" not in line:
            raise FormatError(f"line {lineno}: expected 'g_x g_y ; v0 v1 ...'")
        left, right = line.split(";", 1)
        gtoks = fields(left)
        if len(gtoks) != 2:
            raise FormatError(f"line {lineno}: expected two grade coordinates")
        try:  # float() also reads 1_0, a fullwidth 2 and whitespace such as "1\x0b"
            if not all(t.isascii() and t.isprintable() and "_" not in t for t in gtoks):
                raise ValueError
            grade = (float(gtoks[0]), float(gtoks[1]))
        except ValueError:
            raise FormatError(f"line {lineno}: bad grade {left.strip(BLANKS)!r}") from None
        if not all(map(math.isfinite, grade)):  # nan is unordered, and inf (1e400 too) no real grade
            raise FormatError(f"line {lineno}: grade {left.strip(BLANKS)!r} is not finite")
        vtoks = fields(right)
        if not vtoks:
            raise FormatError(f"line {lineno}: empty simplex")
        verts = tuple(parse_int(v, lineno, "vertex id") for v in vtoks)
        if any(verts[i] >= verts[i + 1] for i in range(len(verts) - 1)):
            raise FormatError(f"line {lineno}: vertex ids must be strictly increasing")
        if verts in seen:
            raise FormatError(f"line {lineno}: duplicate simplex {verts}")
        seen.add(verts)
        items.append((grade, verts))
    return Bifiltration.from_graded_simplices(items, p)
