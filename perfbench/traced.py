"""The CLI's commands replayed with a span around each layer.

Each function calls the same public library functions as the matching
`bipersist` subcommand, in the same order, and wraps every call in a
span named after the layer (module) and function.  The sizes each stage
scales with are recorded as exact counts, computed after the timed work
from the objects the stages produced.

Run as a script, it replays one command in a fresh process, as the CLI
runs it, and writes the result, spans and counts to a JSON file:

    PYTHONPATH=src python3 perfbench/traced.py OUT.json rank_fres in.fres out.rank
"""

from __future__ import annotations

import json
import sys
import traceback

import numpy as np

from oracles import multiplicities
from spans import Tracer


def _read(tracer, path) -> str:
    with tracer.span("io.read_file"):
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def _write(tracer, path, text: str) -> None:
    with tracer.span("io.write_file"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _table_bytes(nx: int, ny: int, tables: int) -> int:
    return 8 * nx * nx * ny * ny * tables


def count_sweeps(tracer, res) -> None:
    """Prefix-rank sweeps `rank_from_resolution` runs, and columns they admit.

    One sweep for the whole relation matrix plus one per row-support
    class with a generator above s; each sweep admits, on grid row y,
    every relation column of grade y or lower.
    """
    if not len(res.rels):
        return
    gg = np.array(res.gens.grades, dtype=np.int64).reshape(-1, 2)
    sx = np.arange(res.nx)[:, None, None]
    sy = np.arange(res.ny)[None, :, None]
    low = (gg[None, None, :, 0] <= sx) & (gg[None, None, :, 1] <= sy)
    classes = np.unique(low.reshape(res.nx * res.ny, -1), axis=0)
    sweeps = 1 + int((~classes).any(axis=1).sum())
    ry = np.array([g[1] for g in res.rels.grades], dtype=np.int64)
    per_sweep = int(sum((ry <= y).sum() for y in range(res.ny)))
    tracer.count("rank_dp.sweeps", sweeps)
    tracer.count("rank_dp.sweep_columns", sweeps * per_sweep)


def _count_resolution(tracer, res) -> None:
    tracer.count("resolution.gens", len(res.gens))
    tracer.count("resolution.rels", len(res.rels))
    tracer.count("resolution.relrels", len(res.relrels))


def _load_bif(tracer, bp, path):
    text = _read(tracer, path)
    with tracer.span("bifiltration.read_bif"):
        bif = bp.read_bif(text)
        problems = bif.validate()
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    return bif


def rank_fres(tracer, bp, infile, outfile) -> None:
    """`bipersist rank in.fres -o out.rank`."""
    with tracer.span("cli.rank"):
        text = _read(tracer, infile)
        with tracer.span("resolution.read_fres"):
            res = bp.read_fres(text)
        with tracer.span("rank_dp.rank_from_resolution"):
            inv = bp.rank_from_resolution(res)
        with tracer.span("grid_module.rank_to_text"):
            out = inv.to_text()
        _write(tracer, outfile, out)
    count_sweeps(tracer, res)
    tracer.count("grid_module.rank_bytes", len(out.encode()))
    tracer.set_max("grid_module.table_bytes", _table_bytes(res.nx, res.ny, 1))


def rank_bif(tracer, bp, infile, degree: int, outfile) -> None:
    """`bipersist rank in.bif --degree d -o out.rank`."""
    with tracer.span("cli.rank"):
        bif = _load_bif(tracer, bp, infile)
        with tracer.span("resolution.free_resolution"):
            res = bp.free_resolution(bif, degree)
        with tracer.span("rank_dp.rank_from_resolution"):
            inv = bp.rank_from_resolution(res)
        with tracer.span("grid_module.rank_to_text"):
            out = inv.to_text()
        _write(tracer, outfile, out)
    _count_resolution(tracer, res)
    count_sweeps(tracer, res)
    tracer.count("grid_module.rank_bytes", len(out.encode()))
    tracer.set_max("grid_module.table_bytes", _table_bytes(res.nx, res.ny, 1))


def decompose_rank(tracer, bp, infile, outfile) -> bool:
    """`bipersist decompose-rectangles in.rank -o out.barcode`; returns clean."""
    with tracer.span("cli.decompose-rectangles"):
        text = _read(tracer, infile)
        with tracer.span("grid_module.rank_from_text"):
            inv = bp.RankInvariant.from_text(text)
        with tracer.span("rect_decomp.decompose"):
            barcode, clean = bp.decompose(inv)
        with tracer.span("rect_decomp.barcode_to_text"):
            out = barcode.to_text()
        _write(tracer, outfile, out)
    nx, ny = inv.nx, inv.ny
    tracer.count("rect_decomp.pairs", (nx * (nx + 1) // 2) * (ny * (ny + 1) // 2))
    tracer.count("rect_decomp.rectangles", len(barcode))
    tracer.count("rect_decomp.negative", int((multiplicities(inv.table) < 0).sum()))
    tracer.set_max("grid_module.table_bytes", _table_bytes(nx, ny, 1))
    return clean


def pair_position(nx: int, ny: int, s, t) -> int:
    """1-based position of (s, t) in `comparable_pairs` order."""
    before = sum((nx - x) * (ny - y) for x in range(nx) for y in range(ny) if (x, y) < tuple(s))
    return before + (t[0] - s[0]) * (ny - s[1]) + (t[1] - s[1]) + 1


def check_bif(tracer, bp, infile, degree: int):
    """`bipersist check-rectangle in.bif --degree d`, as `check_bifiltration` does it.

    Returns (decomposable?, witness) with the library's 0-based witness.
    """
    weakexact = bp.weakexact
    with tracer.span("cli.check-rectangle"):
        bif = _load_bif(tracer, bp, infile)
        with tracer.span("resolution.free_resolution"):
            res = bp.free_resolution(bif, degree)
        with tracer.span("rank_dp.rank_from_resolution"):
            r = bp.rank_from_resolution(res)
        with tracer.span("weakexact.kappa_iota_from_zigzags"):
            ki = weakexact.kappa_iota_from_zigzags(bif, degree, None)
        with tracer.span("weakexact.check_rectangle_decomposable"):
            ok, witness = weakexact.check_rectangle_decomposable(r, ki)
    nx, ny = bif.nx, bif.ny
    _count_resolution(tracer, res)
    count_sweeps(tracer, res)
    tracer.count("weakexact.zigzags", 2 * nx * ny)
    # a row path through t has t_x + t_y + 1 stations, a column path
    # through s has (n_y - 1 - s_y) + (n_x - 1 - s_x) + 1
    tracer.count("weakexact.stations", sum(
        (x + y + 1) + (nx - x + ny - y - 1) for x in range(nx) for y in range(ny)
    ))
    pairs = (nx * (nx + 1) // 2) * (ny * (ny + 1) // 2)
    tracer.count("weakexact.pairs_scanned", pairs if ok else pair_position(nx, ny, *witness[:2]))
    tracer.set_max("grid_module.table_bytes", _table_bytes(nx, ny, 3))
    return ok, witness


REPLAYS = {f.__name__: f for f in (rank_fres, rank_bif, decompose_rank, check_bif)}


def main(argv: list[str]) -> int:
    out_path, name, *args = argv
    import bipersist as bp

    tracer = Tracer()
    try:
        result = REPLAYS[name](tracer, bp, *(int(a) if a.isdigit() else a for a in args))
        record, code = {"result": result, "trace": tracer.to_json()}, 0
    except Exception:
        record, code = {"error": traceback.format_exc()}, 1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
