"""Zigzag barcodes along the row and column paths of a bifiltration.

The row path through t, (0, t_y) -> ... -> t <- ... <- (t_x, 0), is a
cospan: two legs of inclusions into the apex t.  Its generalized rank
r(i, j), the number of bars covering the closed station range [i, j],
is the rank of a composite within a leg and dim(A_x cap B_y) across the
apex, where A and B are the flags of the legs' images in the apex.  One
flag walk along each leg gives both, with the flag step and the pairing
of the check's kappa/iota tables (`linalg.flag_step`,
`linalg.pair_flags`): within a leg, the rank of u -> v is the number of
adapted vectors at v born at or before u, and one pairing at the apex
gives every rank across it.  The bars follow by corner differencing,
as for one-parameter persistence.

The column path through s, (s_x, n_y-1) <- ... <- s -> ... -> (n_x-1, s_y),
is a span.  Its dual, the same spaces under the transposed maps, is a
cospan into s with the same bars, so it goes the same way with both
legs walked from their far ends.  Homology is solved once at each point
of a path, over the simplices that the path's complexes hold, whose
counts state the path's arrays before any is built (`_check_path_bytes`).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .bifiltration import Bifiltration, homology_basis, homology_map
from .ioutil import InvariantError, check_bytes
from .linalg import flag_step, pair_flags


class ZigzagBarcode:
    """Multiset of closed station intervals (birth, death), 0-based."""

    def __init__(self, num_stations: int, intervals=(), degree: int | None = None):
        self.num_stations, self.intervals, self.degree = num_stations, list(intervals), degree
        for b, d in self.intervals:
            if not (0 <= b <= d < num_stations):
                raise ValueError(f"interval ({b}, {d}) outside the station range")

    def __eq__(self, other):
        return vars(self) == vars(other) if isinstance(other, ZigzagBarcode) else NotImplemented

    def dim_at(self, i: int) -> int:
        return sum(1 for b, d in self.intervals if b <= i <= d)


def _walk(edges, p: int) -> list:
    """The flag at each space of a walk from the zero space along `edges`."""
    flag = (np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))
    flags = []
    for here, edge in enumerate(edges):
        flag = flag_step(edge, flag, here, p)
        flags.append(flag)
    return flags


def _cospan_bars(edges_a, edges_b, p: int) -> list:
    """Bars of the zigzag U_0 -> ... -> U_a = D = W_b <- ... <- W_0.

    Each leg is given by its edges in walk order, the first from the
    zero space; both end in the apex D.  The stations are U_0 .. U_a,
    then W_{b-1} .. W_0.
    """
    flags_a, flags_b = _walk(edges_a, p), _walk(edges_b, p)
    a, b = len(flags_a) - 1, len(flags_b) - 1
    k = a + b + 1
    r = np.zeros((k + 1, k + 1), dtype=np.int64)  # r[i + 1, j] = r(i, j); r(-1, j) = r(i, k) = 0
    for v, (_, births) in enumerate(flags_a[:-1]):
        r[1 : v + 2, v] = np.bincount(births, minlength=v + 1).cumsum()
    for y, (_, births) in enumerate(flags_b[:-1]):
        i = a + b - y  # the station of W_y
        r[i + 1, i:k] = np.bincount(births, minlength=y + 1).cumsum()[::-1]
    r[1 : a + 2, a:k] = pair_flags(flags_a[-1], flags_b[-1], (a + 1, b + 1), p)[:, ::-1]
    mult = np.triu(r[1:, :k] - r[:k, :k] - r[1:, 1:] + r[:k, 1:])
    if (mult < 0).any():
        raise InvariantError("zigzag interval multiplicities must be nonnegative")
    return [(i, j) for i, j in np.argwhere(mult).tolist() for _ in range(mult[i, j])]


def _check_path_bytes(held: set, degree: int, stations: int, p: int) -> None:
    """Refuse a path whose homology would pass the byte cap, before any
    array is built, from the counts a, b, c of the held simplices of
    dimension q-1, q and q+1.  In bytes: each station holds its basis
    (cycles and boundaries, at most b columns of b entries), its map
    into the next station and its flag, each at most b x b, 24 b^2 in
    all; one station's `homology_basis` at a time stacks [d_q; I] and
    reduces it and the boundaries, as `resolution.presentation` does
    over the same counts, b (17 (a + b) + 19 c), with b (16 (a + b) +
    17 b) more for the reducers' int64 columns past p = 2; and the held
    complex, rebuilt as a `Bifiltration` with a set of simplices per
    station, 512 bytes a simplex; the table of the bars' ranks on the
    stations and its corner differences, 32 bytes an entry; and 2^18
    bytes of fixed work."""
    counts = Counter(map(len, held))
    a, b, c = (counts[degree + k] for k in range(3))
    need = 24 * b * b * stations + b * (17 * (a + b) + 19 * c) + 512 * len(held)
    need += 32 * (stations + 1) ** 2 + (1 << 18)
    if p != 2:
        need += b * (16 * (a + b) + 17 * b)
    check_bytes(need, f"the degree-{degree} homology along the path ({a:,}, {b:,} and {c:,} held simplices of "
                f"dimension q-1, q and q+1, {stations} station(s))")


def _cospan_barcode(bif: Bifiltration, held: set, leg_a: list, leg_b: list, degree: int, dual: bool) -> ZigzagBarcode:
    """The barcode of degree-q homology along two legs of grid points,
    each in walk order and both ending in the apex, over the simplices
    in `held`; with `dual`, the maps go against the grid order and are
    transposed."""
    p = bif.p
    _check_path_bytes(held, degree, len(leg_a) + len(leg_b) - 1, p)
    ambient = Bifiltration({s: bif.grades[s] for s in held}, bif.nx, bif.ny, p)
    hb = {u: homology_basis(ambient, ambient.complex_at(u), degree) for u in dict.fromkeys(leg_a + leg_b)}

    def edges(leg):
        out = [np.zeros((hb[leg[0]].dim, 0), dtype=np.int64)]
        for u, v in zip(leg, leg[1:]):
            out.append(homology_map(hb[v], hb[u], p).T if dual else homology_map(hb[u], hb[v], p))
        return out

    return ZigzagBarcode(len(leg_a) + len(leg_b) - 1, _cospan_bars(edges(leg_a), edges(leg_b), p), degree)


def row_zigzag_barcode(bif: Bifiltration, t, degree: int) -> ZigzagBarcode:
    """Barcode of degree-q homology along the row path through t.

    Stations F_(0,ty), ..., F_(tx,ty) = F_t, F_(tx,ty-1), ..., F_(tx,0),
    0-based: the row of t grows into F_t, then its column shrinks.
    """
    tx, ty = t
    held = bif.complex_at(t)
    return _cospan_barcode(bif, held, [(x, ty) for x in range(tx + 1)], [(tx, y) for y in range(ty + 1)], degree, False)


def col_zigzag_barcode(bif: Bifiltration, s, degree: int) -> ZigzagBarcode:
    """Barcode of degree-q homology along the column path through s.

    Stations F_(sx,ny-1), ..., F_(sx,sy) = F_s, F_(sx+1,sy), ..., F_(nx-1,sy),
    0-based: the column of s shrinks from the top row into F_s, then
    its row grows.
    """
    sx, sy = s
    if not (0 <= sx < bif.nx and 0 <= sy < bif.ny):  # complex_at below would name the path's ends
        raise ValueError(f"{tuple(s)} outside the {bif.nx}x{bif.ny} grid")
    held = bif.complex_at((sx, bif.ny - 1)) | bif.complex_at((bif.nx - 1, sy))
    column = [(sx, y) for y in range(bif.ny - 1, sy - 1, -1)]
    row = [(x, sy) for x in range(bif.nx - 1, sx - 1, -1)]
    return _cospan_barcode(bif, held, column, row, degree, True)


# -- .zbar file format -----------------------------------------------------


def write_zbar(barcodes) -> str:
    out = ["# zigzag barcode: degree birth death (1-based stations)"]
    for bc in barcodes:
        deg = 0 if bc.degree is None else bc.degree
        for b, d in sorted(bc.intervals):
            out.append(f"{deg} {b + 1} {d + 1}")
    return "\n".join(out) + "\n"
