"""Two-parameter persistence modules over finite grids.

Exact computation over prime fields: grid modules and their rank
invariants, free bigraded resolutions of one-critical bifiltrations,
rectangle-barcode extraction, zigzag barcodes, and the local
exactness checks that decide rectangle decomposability.
"""

from .bifiltration import Bifiltration, homology_module, read_bif, write_bif
from .grid_module import GridModule, RankInvariant, rank_invariant_naive, read_gmod, write_gmod
from .rank_dp import rank_1d, rank_from_resolution
from .rect_decomp import RectangleBarcode, decompose
from .resolution import (
    FreeResolution,
    Presentation,
    free_resolution,
    presentation,
    presented_module,
    read_fres,
    validate_resolution,
    write_fres,
)
from .weakexact import check_bifiltration, check_module
from .zigzag import ZigzagBarcode, zigzag_barcode

__version__ = "0.1.0"

__all__ = [
    "Bifiltration",
    "FreeResolution",
    "GridModule",
    "Presentation",
    "RankInvariant",
    "RectangleBarcode",
    "ZigzagBarcode",
    "check_bifiltration",
    "check_module",
    "decompose",
    "free_resolution",
    "homology_module",
    "presentation",
    "presented_module",
    "rank_1d",
    "rank_from_resolution",
    "rank_invariant_naive",
    "read_bif",
    "read_fres",
    "read_gmod",
    "validate_resolution",
    "write_bif",
    "write_fres",
    "write_gmod",
    "zigzag_barcode",
]
