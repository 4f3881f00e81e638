"""1-critical simplicial bifiltrations over a finite grid.

Parsing and validation, graded subcomplexes, brute-force graded homology
(the oracle for the resolution route, and the module of the explicit
checkers `--method naive|algebraic|geometric`), and the row/column
zigzag event lists of the `zigzag-barcode` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grid_module import GridModule
from .ioutil import FormatError, InvariantError, logical_lines, parse_int
from .linalg import Subspace, check_modulus, extend_basis, kernel_basis, solve_matrix

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

    Grades are stored 0-based on the normalized grid; `raw_grades`
    keeps the values that appeared in the input, for labeling only.
    """

    def __init__(self, grades: dict, nx: int, ny: int, p: int = 2, raw_grades=None):
        self.p = check_modulus(p)
        self.nx = int(nx)
        self.ny = int(ny)
        self.grades: dict[Simplex, tuple[int, int]] = {
            _check_simplex(s): (int(g[0]), int(g[1])) for s, g in grades.items()
        }
        self.raw_grades = raw_grades
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
        parsed = [((float(g[0]), float(g[1])), _check_simplex(s)) for g, s in items]
        for g, s in parsed:
            if not all(map(math.isfinite, g)):
                raise ValueError(f"simplex {s} has a non-finite grade {g}")
        xs = sorted({g[0] for g, _ in parsed})
        ys = sorted({g[1] for g, _ in parsed})
        xrank = {v: i for i, v in enumerate(xs)}
        yrank = {v: i for i, v in enumerate(ys)}
        grades: dict = {}
        raw: dict = {}
        for g, s in parsed:
            if s in grades:
                raise ValueError(f"duplicate simplex {s}")
            grades[s] = (xrank[g[0]], yrank[g[1]])
            raw[s] = g
        return cls(grades, max(1, len(xs)), max(1, len(ys)), p, raw)

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
    """H_degree of the subcomplex on `present`, boundaries-first completion."""
    p = bif.p
    present = set(present)
    q_list = bif.by_dim.get(degree, [])
    n_q = len(q_list)
    cycles = np.zeros((n_q, 0), dtype=np.int64)
    if n_q:
        mask = np.fromiter((s in present for s in q_list), dtype=bool, count=n_q)
        ker = kernel_basis(bif.boundary_matrix(degree)[:, mask], p)
        cycles = np.zeros((n_q, ker.dim), dtype=np.int64)
        cycles[mask] = ker.basis
    up_list = bif.by_dim.get(degree + 1, [])
    bnd_cols = np.zeros((n_q, 0), dtype=np.int64)
    if up_list:
        umask = np.fromiter((s in present for s in up_list), dtype=bool, count=len(up_list))
        bnd_cols = bif.boundary_matrix(degree + 1)[:, umask]
    bnd = Subspace.from_columns(bnd_cols, p).basis
    sel = extend_basis(bnd, cycles, p)
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


# -- zigzag event lists ----------------------------------------------------


def _batch_key(s: Simplex):
    return (len(s), s)


@dataclass
class ZigzagComplex:
    """Complexes along a path, consecutive ones related by inclusion.

    `initial` builds station 0 from the empty complex; step m turns
    station m into station m+1 by inserting a batch (forward arrow,
    station m included in station m+1) or deleting one (backward arrow).
    """

    initial: list
    steps: list  # (kind, [simplices]) with kind "insert" or "delete"

    def station_count(self) -> int:
        return len(self.steps) + 1

    def stations(self) -> list[set]:
        cur = set(self.initial)
        out = [set(cur)]
        for kind, batch in self.steps:
            cur = set(cur)
            if kind == "insert":
                cur.update(batch)
            else:
                cur.difference_update(batch)
            out.append(cur)
        return out

    def validate(self) -> list[str]:
        problems = []
        cur: set = set()
        for s in self.initial:
            if s in cur:
                problems.append(f"station 0: duplicate simplex {s}")
            cur.add(s)
        problems += _closure_problems(cur, "station 0")
        for m, (kind, batch) in enumerate(self.steps):
            if kind not in ("insert", "delete"):
                problems.append(f"step {m}: unknown kind {kind!r}")
                continue
            for s in batch:
                if kind == "insert":
                    if s in cur:
                        problems.append(f"step {m}: inserting already present {s}")
                    cur.add(s)
                else:
                    if s not in cur:
                        problems.append(f"step {m}: deleting absent {s}")
                    cur.discard(s)
            # a closed result after a delete batch means no simplex lost a face,
            # i.e. only coface-free simplices were removed
            problems += _closure_problems(cur, f"station {m + 1}")
        return problems


def _closure_problems(station: set, where: str) -> list[str]:
    out = []
    for s in station:
        if len(s) > 1:
            for f in facets(s):
                if f not in station:
                    out.append(f"{where}: face {f} of {s} missing")
    return out


def _zigzag_from_stations(stations: list, kinds: list) -> ZigzagComplex:
    steps = []
    for m, kind in enumerate(kinds):
        prev, cur = stations[m], stations[m + 1]
        if kind == "insert":
            if not prev <= cur:
                raise InvariantError("insert step must grow the complex")
            steps.append(("insert", sorted(cur - prev, key=_batch_key)))
        else:
            if not cur <= prev:
                raise InvariantError("delete step must shrink the complex")
            steps.append(("delete", sorted(prev - cur, key=_batch_key, reverse=True)))
    return ZigzagComplex(sorted(stations[0], key=_batch_key), steps)


def row_zigzag(bif: Bifiltration, t) -> ZigzagComplex:
    """Grow along the row of t, then shrink down its column.

    Stations F_(0,ty), ..., F_(tx,ty) = F_t, F_(tx,ty-1), ..., F_(tx,0);
    the first tx arrows are insertions, the remaining ty deletions.
    """
    tx, ty = t
    stations = [bif.complex_at((x, ty)) for x in range(tx + 1)]
    stations += [bif.complex_at((tx, y)) for y in range(ty - 1, -1, -1)]
    return _zigzag_from_stations(stations, ["insert"] * tx + ["delete"] * ty)


def col_zigzag(bif: Bifiltration, s) -> ZigzagComplex:
    """Shrink down the column of s from the top row, then grow along its row.

    Stations F_(sx,ny-1), ..., F_(sx,sy) = F_s, F_(sx+1,sy), ..., F_(nx-1,sy);
    the first ny-1-sy arrows are deletions (the later station is the
    smaller complex), the remaining nx-1-sx insertions.
    """
    sx, sy = s
    stations = [bif.complex_at((sx, y)) for y in range(bif.ny - 1, sy - 1, -1)]
    stations += [bif.complex_at((x, sy)) for x in range(sx + 1, bif.nx)]
    kinds = ["delete"] * (bif.ny - 1 - sy) + ["insert"] * (bif.nx - 1 - sx)
    return _zigzag_from_stations(stations, kinds)


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


def parse(path) -> Bifiltration:
    """Read a .bif file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return read_bif(fh.read())
