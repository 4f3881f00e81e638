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

from .bifiltration import Bifiltration, HomologyBasis, homology_basis, homology_map
from .ioutil import InvariantError, check_bytes
from .linalg import column_bytes, flag_step, pair_flags


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


def _walk(ambient: Bifiltration, leg: list, apex, degree: int, dual: bool):
    """(the flag's births at each station before the apex, the flag at the
    apex) along a leg walked from the zero space, holding only the station
    before's homology basis; `apex` is the apex's, and with `dual` the maps
    are transposed."""
    p, flag = ambient.p, (np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))
    births, before = [], HomologyBasis([], [], 0)  # the zero space
    for here, u in enumerate(leg):
        hb = apex if here == len(leg) - 1 else homology_basis(ambient, ambient.complex_at(u), degree)
        flag = flag_step(homology_map(hb, before, p).T if dual else homology_map(before, hb, p), flag, here, p)
        births.append(flag[1])
        before = hb
    return births[:-1], flag


def _cospan_bars(walk_a, walk_b, p: int) -> list:
    """Bars of the zigzag U_0 -> ... -> U_a = D = W_b <- ... <- W_0 from
    the `_walk` of each leg; the stations are U_0 .. U_a, W_{b-1} .. W_0."""
    (births_a, flag_a), (births_b, flag_b) = walk_a, walk_b
    a, b = len(births_a), len(births_b)
    k = a + b + 1
    r = np.zeros((k + 1, k + 1), dtype=np.int64)  # r[i + 1, j] = r(i, j); r(-1, j) = r(i, k) = 0
    for v, births in enumerate(births_a):
        r[1 : v + 2, v] = np.bincount(births, minlength=v + 1).cumsum()
    for y, births in enumerate(births_b):
        i = a + b - y  # the station of W_y
        r[i + 1, i:k] = np.bincount(births, minlength=y + 1).cumsum()[::-1]
    r[1 : a + 2, a:k] = pair_flags(flag_a, flag_b, (a + 1, b + 1), p)[:, ::-1]
    mult = np.triu(r[1:, :k] - r[:k, :k] - r[1:, 1:] + r[:k, 1:])
    if (mult < 0).any():
        raise InvariantError("zigzag interval multiplicities must be nonnegative")
    return [(i, j) for i, j in np.argwhere(mult).tolist() for _ in range(mult[i, j])]


def _check_path_bytes(held: set, degree: int, stations: int, p: int) -> None:
    """Refuse a path whose homology would pass the byte cap, before any
    array is built, from the counts a, b, c of the held simplices of
    dimension q-1, q and q+1.  In bytes: the apex's basis and flag, and
    on the leg walked the station before's and the current one's, with
    the map and the flag step's candidates, 80 b^2 in all, or 40 b^2
    when the apex is the only station; each station's flag births, 8 b;
    one `homology_basis` at a time, the bitsets of [d_q; I], b (a + b),
    with b (24 (a + b) + 8 b) more for the int64 columns past p = 2;
    the held complex, rebuilt as a `Bifiltration`, 512 a simplex, and
    its cached boundary columns of degrees q and q+1 (`column_bytes`);
    the bars' rank table and its corner differences, 32 an entry; and
    2^18 bytes of fixed work."""
    counts = Counter(map(len, held))
    a, b, c = (counts[degree + k] for k in range(3))
    need = (80 if stations > 1 else 40) * b * b + 8 * b * stations + b * (a + b) + column_bytes(a, b, p)
    need += column_bytes(b, c, p) + 512 * len(held) + 32 * (stations + 1) ** 2 + (1 << 18)
    need += 0 if p == 2 else b * (24 * (a + b) + 8 * b)
    check_bytes(need, f"the degree-{degree} homology along the path ({a:,}, {b:,} and {c:,} held simplices of "
                f"dimension q-1, q and q+1, {stations} station(s))")


def _cospan_barcode(bif: Bifiltration, held: set, leg_a: list, leg_b: list, degree: int, dual: bool) -> ZigzagBarcode:
    """The barcode of degree-q homology along two legs of grid points,
    each in walk order and both ending in the apex, over the simplices
    in `held`; with `dual`, the maps go against the grid order and are
    transposed."""
    stations = len(leg_a) + len(leg_b) - 1
    _check_path_bytes(held, degree, stations, bif.p)
    ambient = Bifiltration({s: bif.grades[s] for s in held}, bif.nx, bif.ny, bif.p)
    apex = homology_basis(ambient, ambient.complex_at(leg_a[-1]), degree)
    walks = [_walk(ambient, leg, apex, degree, dual) for leg in (leg_a, leg_b)]
    return ZigzagBarcode(stations, _cospan_bars(*walks, bif.p), degree)


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
