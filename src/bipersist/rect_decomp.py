"""Rectangle barcodes from rank invariants by inclusion-exclusion.

On a rectangle-decomposable module the rank invariant determines the
multiset of rectangle summands: the multiplicity of the rectangle s <= t
is the signed sixteen-term sum

    m(s, t) = sum over a, b in {0, 1}^2 of (-1)^(|a| + |b|) r(s - a, t + b),

with r = 0 off the grid.  Over all pairs this is one mixed 4-D finite
difference of r, downward in the s axes and upward in the t axes, and
its inverse is a 4-D prefix sum.  On arbitrary input the
differences can go negative, which is reported instead of silently
clamped.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .grid_module import RankInvariant, table_dtype
from .ioutil import check_bytes

# Bytes a rectangle of `decompose`'s barcode may take, traced: its key
# tuple, the ints past Python's small-int cache in it and its value, its
# dict slot (twice for a moment while the dict resizes), and the lists
# and index arrays its slab is read through.  At most 263 were measured,
# on random ranks up to 2**40 over grids from 1x300 to 60x60.
_RECTANGLE_BYTES = 320


class RectangleBarcode(dict):
    """Multiset of rectangles (s_x, s_y, t_x, t_y), 0-based inclusive."""

    def __init__(self, counts=()):
        super().__init__()
        for rect, mult in dict(counts).items():
            sx, sy, tx, ty = (int(v) for v in rect)
            if sx > tx or sy > ty:
                raise ValueError(f"rectangle {rect} has corners out of order")
            if int(mult) < 0:
                raise ValueError(f"rectangle {rect} has negative multiplicity")
            if mult:
                self[(sx, sy, tx, ty)] = int(mult)

    def to_text(self) -> str:
        out = ["# rectangle barcode: s_x s_y t_x t_y multiplicity (1-based)"]
        for sx, sy, tx, ty in sorted(self):
            out.append(f"{sx + 1} {sy + 1} {tx + 1} {ty + 1} {self[(sx, sy, tx, ty)]}")
        return "\n".join(out) + "\n"


def decompose(r: RankInvariant):
    """All rectangle multiplicities of a rank invariant.

    Returns (barcode, clean).  clean is False when some multiplicity
    came out negative, which certifies that no rectangle-decomposable
    module has this rank invariant; the barcode then keeps only the
    positive part.  A clean outcome alone does not certify
    decomposability -- that decision belongs to the checkers.

    The differences are taken one s_x slab at a time, in
    `table_dtype(8 * largest rank)`: a difference of two ranks lies
    within the largest rank R, and each of the three differences inside
    the slab at most doubles the bound, so every intermediate value lies
    within 8R, which a narrow invariant's type may not hold.  A negative
    entry, and a rank past 2**60 - 1, where 8R would pass int64, are
    refused with a ValueError.
    Into an (ny, nx - s_x, ny) array [s_y, t_x - s_x, t_y], 0 where
    t_y < s_y, go the blocks r(s, .) of the slab less those of the slab
    before it (without their t_x = s_x - 1 column); then, inside the
    slab, the differences run downward along s_y and upward along t_x
    and t_y, each as one shifted subtraction, and the s_y <= t_y
    triangle is kept.  Beside the invariant, which is left as it was,
    only a few slabs are held at once, and the barcode, which grows by
    each slab's rectangles.  Before a slab's rectangles are added, the
    byte rule takes the slab's bytes and `_RECTANGLE_BYTES` for each
    rectangle, those of the slabs before it included.
    """
    nx, ny = r.nx, r.ny
    if r.values.min(initial=0) < 0:
        raise ValueError("rank invariant has a negative entry")
    largest = int(r.values.max(initial=0))
    if largest > 2**60 - 1:
        raise ValueError(f"rank {largest} exceeds 2**60 - 1, past which the rectangle multiplicities could pass int64")
    dtype = table_dtype(8 * largest)
    # a slab's differences, numpy's copy of an overlapping operand and two
    # masks; on a thin grid past the invariant itself
    slab = nx * ny * ny * (2 * np.dtype(dtype).itemsize + 2)
    check_bytes(slab, f"the differences of one slab of the {nx}x{ny} grid")
    triangle = np.arange(ny)[:, None, None] <= np.arange(ny)  # [s_y, 1, t_y]
    clean = True
    barcode = RectangleBarcode()  # filled in place: its entries are valid by construction
    before = []  # the blocks of the slab s_x - 1
    for sx in range(nx):
        blocks = [r.block((sx, sy)) for sy in range(ny)]
        m = np.zeros((ny, nx - sx, ny), dtype=dtype)
        for sy, block in enumerate(blocks):
            if before:
                np.subtract(block, before[sy][1:], out=m[sy, :, sy:], dtype=dtype)
            else:
                m[sy, :, sy:] = block
        before = blocks
        # s_y: m(s) -= m(s - 1); t axes: m(t) -= m(t + 1); r = 0 off the grid
        m[1:] -= m[:-1]
        m[:, :-1] -= m[:, 1:]
        m[:, :, :-1] -= m[:, :, 1:]
        m *= triangle
        clean = clean and not (m < 0).any()
        sy, tx, ty = np.nonzero(m > 0)
        rectangles = len(barcode) + sy.size
        check_bytes(slab + _RECTANGLE_BYTES * rectangles,
                    f"the differences of one slab of the {nx}x{ny} grid and {rectangles:,} rectangle(s)")
        barcode.update(zip(zip(repeat(sx), sy.tolist(), (tx + sx).tolist(), ty.tolist()), m[sy, tx, ty].tolist()))
    return barcode, clean
