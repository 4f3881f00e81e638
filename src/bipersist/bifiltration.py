"""1-critical simplicial bifiltrations over a finite grid.

Parsing and validation, graded subcomplexes, and graded homology by
brute force: `homology_basis` and `homology_map` at single points,
which the `zigzag-barcode` subcommand solves along its path, and
`homology_module` over the whole grid, the tests' and the benchmark's
oracle of the presentation that every other .bif command reads the
module off.  Each point's cycles and representatives come from
`linalg.ColumnReducer`, as the graded kernel basis of `resolution`
does: no dense kernel is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grid_module import GridModule
from .ioutil import FormatError, InvariantError, logical_lines, parse_int
from .linalg import ColumnReducer, check_modulus, solve_matrix

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
        self._index = {q: {s: i for i, s in enumerate(lst)} for q, lst in self.by_dim.items()}
        self._boundary: dict[int, np.ndarray] = {}

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

    def boundary_matrix(self, q: int) -> np.ndarray:
        """Boundary of q-chains over the full simplex universe, mod p."""
        if q in self._boundary:
            return self._boundary[q]
        cols = self.by_dim.get(q, [])
        rows = self.by_dim.get(q - 1, []) if q >= 1 else []
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        if q >= 1 and cols:
            ridx = self._index.get(q - 1, {})
            for j, s in enumerate(cols):
                sign = 1
                for i in range(len(s)):
                    f = s[:i] + s[i + 1 :]
                    if f not in ridx:
                        raise ValueError(f"face {f} of {s} is missing")
                    mat[ridx[f], j] = sign % self.p
                    sign = -sign
        self._boundary[q] = mat
        return mat


# -- graded homology ------------------------------------------------------


@dataclass
class HomologyBasis:
    """Cycle representatives for H_q of one subcomplex, in global chain coords."""

    reps: np.ndarray        # (n_q, dim) cycle columns
    boundaries: np.ndarray  # echelon basis of the boundary space
    dim: int


def homology_basis(bif: Bifiltration, present: Iterable[Simplex], degree: int) -> HomologyBasis:
    """H_degree of the subcomplex on `present`, boundaries-first completion.

    One `ColumnReducer` takes the columns of [d_q; I] on the present
    q-simplices, d_q having k rows: a combination whose d_q part
    vanishes is a cycle in its lower part, so the block rows with lead
    >= k, cut to their lower part, are the reduced row echelon basis of
    the cycles.  The block depends only on the span, so the columns go
    in last first: a column that reduces to a cycle then leads at its
    own identity row, which no column admitted before it holds, and
    cycles never collide with each other.  A second reducer over
    F_p^(n_q) takes the present boundary columns, and its block is the
    reduced row echelon basis of the boundaries; then it takes the
    cycles, and those it admits, being independent of the boundaries
    and of each other, are the representatives.
    """
    if degree < 0:
        raise ValueError(f"homology degree {degree} is negative")
    p = bif.p
    present = set(present)
    q_list, up_list = bif.by_dim.get(degree, []), bif.by_dim.get(degree + 1, [])
    mask = np.fromiter((s in present for s in q_list), dtype=bool, count=len(q_list))
    umask = np.fromiter((s in present for s in up_list), dtype=bool, count=len(up_list))
    d_q = bif.boundary_matrix(degree)[:, mask]
    k, m = d_q.shape
    cycle_space = ColumnReducer(k + m, p)
    for v in ColumnReducer.columns(np.vstack((d_q, np.eye(m, dtype=np.int64)))[:, ::-1], p):
        cycle_space.add(v)
    rows, leads = cycle_space.block()
    cycles = np.zeros((len(q_list), int(np.count_nonzero(leads >= k))), dtype=np.int64)
    cycles[mask] = rows[leads >= k, k:].T
    span = ColumnReducer(len(q_list), p)
    for v in ColumnReducer.columns(bif.boundary_matrix(degree + 1)[:, umask], p):
        span.add(v)
    bnd = span.block()[0].T
    sel = [j for j, v in enumerate(ColumnReducer.columns(cycles, p)) if span.add(v) is not None]
    return HomologyBasis(reps=cycles[:, sel], boundaries=bnd, dim=len(sel))


def homology_map(src: HomologyBasis, tgt: HomologyBasis, p: int) -> np.ndarray:
    """Matrix of H_q(inclusion) in the two representative bases."""
    if src.dim == 0 or tgt.dim == 0:
        return np.zeros((tgt.dim, src.dim), dtype=np.int64)
    system = np.hstack([tgt.reps, tgt.boundaries])
    x = solve_matrix(system, src.reps, p)
    if x is None:  # cycles of a subcomplex stay cycles in any supercomplex
        raise InvariantError("homology representative is not a cycle in the target")
    return x[: tgt.dim] % p


def homology_module(bif: Bifiltration, degree: int) -> GridModule:
    """Brute-force graded homology of the bifiltration; the oracle module."""
    p = bif.p
    data = {}
    for x in range(bif.nx):
        for y in range(bif.ny):
            data[(x, y)] = homology_basis(bif, bif.complex_at((x, y)), degree)
    dims = np.zeros((bif.nx, bif.ny), dtype=np.int64)
    for t, hb in data.items():
        dims[t] = hb.dim
    hmaps, vmaps = {}, {}
    for x in range(bif.nx - 1):
        for y in range(bif.ny):
            hmaps[(x, y)] = homology_map(data[(x, y)], data[(x + 1, y)], p)
    for x in range(bif.nx):
        for y in range(bif.ny - 1):
            vmaps[(x, y)] = homology_map(data[(x, y)], data[(x, y + 1)], p)
    return GridModule(bif.nx, bif.ny, p, dims, hmaps, vmaps)


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
    if len(lines) < 2 or not lines[1][1].startswith("field "):
        raise FormatError(f"line {lines[0][0]}: missing 'field p' line")
    lineno, field_line = lines[1]
    toks = field_line.split()
    if len(toks) != 2:
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
        gtoks = left.split()
        if len(gtoks) != 2:
            raise FormatError(f"line {lineno}: expected two grade coordinates")
        try:
            grade = (float(gtoks[0]), float(gtoks[1]))
        except ValueError:
            raise FormatError(f"line {lineno}: bad grade {left.strip()!r}") from None
        if not all(map(math.isfinite, grade)):  # nan is unordered, and inf (1e400 too) no real grade
            raise FormatError(f"line {lineno}: grade {left.strip()!r} is not finite")
        vtoks = right.split()
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
