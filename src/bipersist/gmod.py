"""The .gmod file format: an explicit grid module as text.

A header `gridmodule`, a `field p` line and a `grid n m` line, then a
`dim x y d` line per nonzero space and, after an `hmap x y` or
`vmap x y` line, the rows of each map between nonzero spaces; points
are 1-based.  The reader names the first bad line in a FormatError.
Every .gmod command builds the naive rank's table and the d x d
identity of each space; `check_module_bytes` refuses them past the cap
at the `grid` or `dim` line that crosses it, and before the `examples`
and `random-rect` constructions build such a module.
"""

from __future__ import annotations

import numpy as np

from .grid_module import GridModule, table_bytes
from .ioutil import FormatError, check_bytes, logical_lines, parse_int
from .linalg import check_modulus


def dimension_problem(d: int, chars: int) -> str:
    """Why the reader refuses a space of dimension d in a text of `chars`
    characters, or "": a space with a map in or out has d entries or more."""
    return f"dimension {d} exceeds the file's {chars} characters" if d > chars else ""


def check_module_bytes(nx: int, ny: int, largest: int = 0, identities: int = 0, line=None) -> None:
    """Refuse a module whose rank table, at the type of its largest
    dimension, and identities, 8 d^2 bytes a space, which a file backs
    with at most d entries (none without a nonzero neighbour), pass the cap."""
    what = f"the rank table of the {nx}x{ny} grid and the identities of its spaces"
    check_bytes(table_bytes(nx, ny, 1, largest) + identities, what, line)


def write_gmod(module: GridModule) -> str:
    out = ["gridmodule", f"field {module.p}", f"grid {module.nx} {module.ny}"]
    for x in range(module.nx):
        for y in range(module.ny):
            d = int(module.dims[x, y])
            if d:
                out.append(f"dim {x + 1} {y + 1} {d}")
    def emit(kind, maps):
        for (x, y), m in sorted(maps.items()):
            if m.shape[0] and m.shape[1]:
                out.append(f"{kind} {x + 1} {y + 1}")
                for row in m:
                    out.append(" ".join(str(int(v)) for v in row))
    emit("hmap", module.hmaps)
    emit("vmap", module.vmaps)
    return "\n".join(out) + "\n"


def read_gmod(text: str) -> GridModule:
    lines = list(logical_lines(text))
    if not lines or lines[0][1] != "gridmodule":
        lineno = lines[0][0] if lines else 1
        raise FormatError(f"line {lineno}: expected 'gridmodule' header")
    i = 1
    p = nx = ny = None
    dims = {}
    dim_lines = {}
    hmaps, vmaps = {}, {}
    seen = set()
    largest = identities = 0

    def need(cond, lineno, msg):
        if not cond:
            raise FormatError(f"line {lineno}: {msg}")

    while i < len(lines):
        lineno, line = lines[i]
        toks = line.split()
        key = toks[0]
        if key == "field":
            need(p is None, lineno, "duplicate field line")
            need(len(toks) == 2, lineno, "expected 'field p'")
            p = parse_int(toks[1], lineno, "modulus")
            try:
                check_modulus(p)
            except ValueError as e:
                raise FormatError(f"line {lineno}: {e}") from None
            i += 1
        elif key == "grid":
            need(nx is None, lineno, "duplicate grid line")
            need(len(toks) == 3, lineno, "expected 'grid n m'")
            nx, ny = parse_int(toks[1], lineno, "extent"), parse_int(toks[2], lineno, "extent")
            need(nx >= 1 and ny >= 1, lineno, "grid extents must be positive")
            check_module_bytes(nx, ny, line=lineno)
            i += 1
        elif key == "dim":
            need(nx is not None, lineno, "dim before grid line")
            need(len(toks) == 4, lineno, "expected 'dim x y d'")
            x, y, d = (parse_int(t, lineno, "dim entry") for t in toks[1:])
            need(1 <= x <= nx and 1 <= y <= ny, lineno, f"point ({x},{y}) outside grid")
            need((x, y) not in dims, lineno, f"duplicate dim for ({x},{y})")
            need(d >= 0, lineno, "negative dimension")
            problem = dimension_problem(d, len(text))
            need(not problem, lineno, problem)
            largest, identities = max(largest, d), identities + 8 * d * d
            check_module_bytes(nx, ny, largest, identities, lineno)
            dims[(x, y)] = d
            dim_lines[(x - 1, y - 1)] = lineno
            i += 1
        elif key in ("hmap", "vmap"):
            need(nx is not None and p is not None, lineno, f"{key} before grid/field lines")
            need(len(toks) == 3, lineno, f"expected '{key} x y'")
            x, y = parse_int(toks[1], lineno, "x"), parse_int(toks[2], lineno, "y")
            tgt = (x + 1, y) if key == "hmap" else (x, y + 1)
            need(1 <= x <= nx and 1 <= y <= ny, lineno, f"point ({x},{y}) outside grid")
            need(tgt[0] <= nx and tgt[1] <= ny, lineno, f"{key} at ({x},{y}) leaves the grid")
            rows_needed = dims.get(tgt, 0)
            cols_needed = dims.get((x, y), 0)
            need(rows_needed > 0 and cols_needed > 0, lineno, f"{key} touches a zero space")
            need((key, x, y) not in seen, lineno, f"duplicate {key} at ({x},{y})")
            seen.add((key, x, y))
            i += 1
            mat = []
            for _ in range(rows_needed):
                need(i < len(lines), lineno, f"{key} at ({x},{y}): missing matrix rows")
                rlineno, rline = lines[i]
                row = [parse_int(t, rlineno, "matrix entry") for t in rline.split()]
                need(len(row) == cols_needed, rlineno,
                     f"expected {cols_needed} entries, got {len(row)}")
                mat.append(row)
                i += 1
            target = hmaps if key == "hmap" else vmaps
            target[(x - 1, y - 1)] = np.array(mat, dtype=np.int64)
        else:
            raise FormatError(f"line {lineno}: unknown directive {key!r}")
    if p is None:
        raise FormatError("line 1: missing 'field p' line")
    if nx is None:
        raise FormatError("line 1: missing 'grid n m' line")
    dims_arr = np.zeros((nx, ny), dtype=np.int64)
    for (x, y), d in dims.items():
        dims_arr[x - 1, y - 1] = d
    # every edge between two nonzero spaces must have been given; the
    # error names the later of the two spaces' dim lines
    for x in range(nx - 1):
        for y in range(ny):
            if dims_arr[x, y] and dims_arr[x + 1, y] and (x, y) not in hmaps:
                lineno = max(dim_lines[(x, y)], dim_lines[(x + 1, y)])
                raise FormatError(f"line {lineno}: missing hmap between nonzero spaces at ({x + 1},{y + 1})")
    for x in range(nx):
        for y in range(ny - 1):
            if dims_arr[x, y] and dims_arr[x, y + 1] and (x, y) not in vmaps:
                lineno = max(dim_lines[(x, y)], dim_lines[(x, y + 1)])
                raise FormatError(f"line {lineno}: missing vmap between nonzero spaces at ({x + 1},{y + 1})")
    return GridModule(nx, ny, p, dims_arr, hmaps, vmaps)
