"""Zigzag persistence barcodes for insert/delete event lists.

The generalized rank r(i, j) -- the number of bars covering the closed
station range [i, j] -- is computed by pushing a pair of nested
subspaces rightwards from each left endpoint, and the barcode follows
by corner differencing exactly as for one-parameter persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bifiltration import Bifiltration, ZigzagComplex, homology_basis, homology_map
from .ioutil import FormatError, InvariantError, logical_lines, parse_int
from .linalg import Subspace, asmatrix, image_of_subspace, preimage_of_subspace


@dataclass
class ZigzagBarcode:
    """Multiset of closed station intervals (birth, death), 0-based."""

    num_stations: int
    intervals: list = field(default_factory=list)
    degree: Optional[int] = None

    def __post_init__(self):
        for b, d in self.intervals:
            if not (0 <= b <= d < self.num_stations):
                raise ValueError(f"interval ({b}, {d}) outside the station range")

    def dim_at(self, i: int) -> int:
        return sum(1 for b, d in self.intervals if b <= i <= d)


def module_barcode(dims, arrows, p: int) -> list:
    """Interval multiset of an explicitly given zigzag module.

    dims gives the dimension at each station; arrows holds one
    (direction, matrix) per consecutive pair, direction "fwd" meaning
    V_m -> V_{m+1} (matrix has dims[m+1] rows) and "bwd" the reverse.

    From each left endpoint i two nested subspaces travel right: L
    starts full, N starts zero; forward arrows push both through the
    matrix, backward arrows pull both back.  Every bar born strictly
    after station i on a backward arrow enters L and N together, and a
    bar through station i survives in L exactly while it is alive, so
    the spanning count is r(i, j) = dim L_j - dim N_j.  The push from i
    stops at the first r(i, j) = 0: N lies inside L, so equal dimensions
    mean equal subspaces, which stay equal under every later push or
    pull, and the rest of the row is 0.
    """
    k = len(dims)
    if len(arrows) != max(k - 1, 0):
        raise ValueError("need exactly one arrow between consecutive stations")
    mats = []
    for m, (direction, mat) in enumerate(arrows):
        mat = asmatrix(mat, p)
        want = (dims[m + 1], dims[m]) if direction == "fwd" else (dims[m], dims[m + 1])
        if direction not in ("fwd", "bwd"):
            raise ValueError(f"unknown arrow direction {direction!r}")
        if mat.shape != want:
            raise ValueError(f"arrow {m} has shape {mat.shape}, expected {want}")
        mats.append((direction, mat))
    r = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        live = Subspace.full(dims[i], p)
        newborn = Subspace.zero(dims[i], p)
        r[i, i] = dims[i]
        for j in range(i + 1, k):
            direction, mat = mats[j - 1]
            if direction == "fwd":
                live = image_of_subspace(mat, live)
                newborn = image_of_subspace(mat, newborn)
            else:
                live = preimage_of_subspace(mat, live)
                newborn = preimage_of_subspace(mat, newborn)
            r[i, j] = live.dim - newborn.dim
            if r[i, j] == 0:
                break
    bars = []
    for i in range(k):
        for j in range(i, k):
            m = int(r[i, j])
            m -= int(r[i - 1, j]) if i > 0 else 0
            m -= int(r[i, j + 1]) if j + 1 < k else 0
            m += int(r[i - 1, j + 1]) if i > 0 and j + 1 < k else 0
            if m < 0:
                raise InvariantError("zigzag interval multiplicities must be nonnegative")
            bars.extend([(i, j)] * m)
    bars.sort()
    return bars


def zigzag_barcode(zz: ZigzagComplex, degree: int, p: int = 2) -> ZigzagBarcode:
    """Barcode of the degree-q homology zigzag of an event list.

    Station homologies are computed inside one ambient complex (the
    union of all stations, necessarily closed under faces), inclusions
    induce the arrows, and the interval multiset comes out of
    `module_barcode`.  The result is checked to reconstruct the
    pointwise homology dimensions.
    """
    problems = zz.validate()
    if problems:
        raise ValueError(f"invalid zigzag complex: {problems[0]}")
    stations = zz.stations()
    universe = set()
    for st in stations:
        universe |= st
    ambient = Bifiltration({s: (0, 0) for s in universe}, 1, 1, p)
    data = [homology_basis(ambient, st, degree) for st in stations]
    dims = [hb.dim for hb in data]
    arrows = []
    for m, (kind, _) in enumerate(zz.steps):
        if kind == "insert":
            arrows.append(("fwd", homology_map(data[m], data[m + 1], p)))
        else:
            arrows.append(("bwd", homology_map(data[m + 1], data[m], p)))
    bc = ZigzagBarcode(len(dims), module_barcode(dims, arrows, p), degree)
    if any(bc.dim_at(i) != dims[i] for i in range(len(dims))):
        raise InvariantError("zigzag barcode does not reconstruct the station dimensions")
    return bc


# -- .zbar file format -----------------------------------------------------


def write_zbar(barcodes) -> str:
    out = ["# zigzag barcode: degree birth death (1-based stations)"]
    for bc in barcodes:
        deg = 0 if bc.degree is None else bc.degree
        for b, d in sorted(bc.intervals):
            out.append(f"{deg} {b + 1} {d + 1}")
    return "\n".join(out) + "\n"


def read_zbar(text: str) -> list:
    """Parse 'degree birth death' lines into 0-based (degree, b, d) tuples."""
    entries = []
    for lineno, line in logical_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise FormatError(f"line {lineno}: expected 'degree birth death'")
        deg, b, d = (parse_int(t, lineno, "barcode entry") for t in toks)
        if deg < 0:
            raise FormatError(f"line {lineno}: negative degree")
        if not (1 <= b <= d):
            raise FormatError(f"line {lineno}: stations are 1-based with birth <= death")
        entries.append((deg, b - 1, d - 1))
    return entries
