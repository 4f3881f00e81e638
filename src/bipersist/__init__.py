"""Two-parameter persistence modules over finite grids.

Exact computation over prime fields: grid modules and their rank
invariants, free bigraded resolutions of one-critical bifiltrations,
rectangle-barcode extraction, zigzag barcodes along the row and
column paths, and the local exactness checks that decide rectangle
decomposability.

The names below, and the submodules, are imported on first use
(PEP 562), so `import bipersist` loads none of the submodules and each
CLI command loads only those it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "Bifiltration": "bifiltration",
    "homology_module": "bifiltration",
    "read_bif": "bifiltration",
    "write_bif": "bifiltration",
    "GridModule": "grid_module",
    "RankInvariant": "grid_module",
    "rank_invariant_naive": "grid_module",
    "read_gmod": "gmod",
    "write_gmod": "gmod",
    "rank_from_resolution": "rank_dp",
    "RectangleBarcode": "rect_decomp",
    "decompose": "rect_decomp",
    "read_fres": "fres",
    "write_fres": "fres",
    "FreeResolution": "resolution",
    "Presentation": "resolution",
    "free_resolution": "resolution",
    "presentation": "resolution",
    "presented_module": "resolution",
    "check_bifiltration": "weakexact",
    "check_module": "weakexact",
    "ZigzagBarcode": "zigzag",
    "col_zigzag_barcode": "zigzag",
    "row_zigzag_barcode": "zigzag",
}

_SUBMODULES = {
    "bifiltration", "cli", "constructions", "fres", "gmod", "grid_module", "ioutil", "linalg",
    "rank_dp", "rank_reader", "rect_decomp", "resolution", "squares", "weakexact", "zigzag",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
