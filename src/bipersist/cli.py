"""Command-line front end over the library pipelines.

Every .bif, .gmod and .fres input, `validate`'s included, is read by
`_read_input` as the kind its command names, and a command takes it
through `_load`: a --field other than the file's field is refused, then
the file's first problem.  A .rank is read from its bytes (`_read_rank`).

Exit codes: 0 for success (and a "decomposable" verdict), 2 for a
negative checker verdict (or `decompose-rectangles --strict` hitting
negative multiplicities), 1 for any input or usage error, an allocation
the machine refuses included.  All outputs are deterministic given the
inputs and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ioutil import FormatError

# Each subcommand imports the modules it runs when it runs, so that a
# command compiles and loads only its own part of the package.  The text
# layer (`ioutil`, `bifiltration`) loads no numpy, so numpy loads with
# the algebra only: `validate` of a .bif, and every refusal of an input
# made before the algebra starts, run without it.


class CliError(Exception):
    """Usage or input problem; reported on stderr, exit code 1."""


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e)) from None
    except UnicodeDecodeError as e:
        # the whole file is decoded at once, so e.start counts from its
        # first byte; text mode reads a CR or a CRLF as one line end
        head = e.object[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"line {line}: byte 0x{e.object[e.start]:02x} is not UTF-8 ({e.reason})") from None


def _read_in_blocks(path: str, read):
    """`read(blocks)` of the text file at `path`, where `blocks()` gives
    `ioutil.file_blocks` of the file from its start, so that its text is
    never held whole.  The errors are those of `_read_file` and of the
    reader on the whole text: a byte that is not UTF-8 anywhere in the
    file is reported before any bad line."""
    from .ioutil import file_blocks

    try:
        with open(path, encoding="utf-8") as fh:

            def blocks():
                fh.seek(0)
                return file_blocks(fh)

            try:
                return read(blocks)
            except FormatError:
                for _ in file_blocks(fh):  # decode the rest of the file
                    pass
                raise
    except OSError as e:
        raise CliError(str(e)) from None
    except UnicodeDecodeError:
        _read_file(path)  # raises the FormatError that names the byte's line
        raise


def _read_rank(path: str):
    """A .rank file, read one chunk or block at a time by
    `rank_reader.read_rank`: from its bytes when it is in the layout
    `rank` writes, and otherwise from the start again in text mode
    (`_read_in_blocks`).  So the errors are those of `_read_file` and
    `RankInvariant.from_text` on the whole file."""
    from .ioutil import file_chunks
    from .rank_reader import read_rank

    try:
        with open(path, "rb") as fh:
            return read_rank(file_chunks(fh), lambda read: _read_in_blocks(path, read))
    except OSError as e:
        raise CliError(str(e)) from None


def _write_output(chunks, path):
    """Write `chunks` in order to `path`, or to stdout for None or "-";
    each is written as the iterable yields it.  A chunk is a str, written
    as UTF-8, or ASCII bytes (the .rank writer's), written as they are,
    to the file or to stdout's byte stream alike."""
    data = (c.encode("utf-8") if isinstance(c, str) else c for c in chunks)
    if path is None or path == "-":
        sys.stdout.flush()  # text printed before goes first
        sys.stdout.buffer.writelines(data)
        return
    try:
        with open(path, "wb") as fh:
            fh.writelines(data)
    except OSError as e:
        raise CliError(str(e)) from None


def _ext(path: str) -> str:
    return os.path.splitext(path)[1].lower()


def _read_input(path: str, kind: str):
    """(data, problems) of the file at `path` read as a `kind` input,
    ".bif", ".gmod" or ".fres", as the command names it: the reader's
    object and what its `validate` finds.  A .fres has no problems: its
    block reader (`_read_in_blocks`) enforces its rules as it reads.
    Any other kind is refused once the file is read."""
    if kind == ".fres":
        from .fres import read_fres_blocks

        return _read_in_blocks(path, read_fres_blocks), []
    text = _read_file(path)
    if kind == ".bif":
        from .bifiltration import read_bif

        data = read_bif(text)
    elif kind == ".gmod":
        from .gmod import read_gmod

        data = read_gmod(text)
    else:
        raise CliError(f"cannot validate {kind or 'extensionless'} files")
    return data, data.validate()


def _load(path: str, kind: str, field):
    """The `kind` input at `path` (`_read_input`), refused on a --field
    other than the file's field, and then on its first problem."""
    data, problems = _read_input(path, kind)
    if field is not None and field != data.p:
        raise CliError(f"--field {field} conflicts with the file's field {data.p}; re-reduction is refused")
    if problems:
        raise CliError(f"{path}: {problems[0]}")
    return data


def _point_1based(raw: str, flag: str):
    parts = raw.split(",")
    if len(parts) != 2:
        raise CliError(f"{flag} expects 'x,y' (1-based)")
    try:
        x, y = (int(v) for v in parts)
    except ValueError:
        raise CliError(f"{flag} expects integers, got {raw!r}") from None
    return x - 1, y - 1


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    _, problems = _read_input(args.file, _ext(args.file))
    for problem in problems:
        print(f"{args.file}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("ok")
    return 0


def _rank_of_input(args, layout: bool = False):
    """The input's rank invariant; with `layout`, a grid that the .rank
    layout cannot hold is refused before any algebra."""
    ext = _ext(args.infile)
    if ext != ".bif" and args.degree is not None:
        raise CliError("--degree applies to .bif inputs only")
    if ext not in (".bif", ".gmod", ".fres"):
        raise CliError(f"cannot compute ranks from {ext or 'extensionless'} files")
    if ext == ".gmod" and args.method == "dp":
        raise CliError("--method dp needs a .bif or .fres input")
    if ext == ".fres" and args.method == "naive":
        raise CliError("--method naive needs a .bif or .gmod input")
    data = _load(args.infile, ext, args.field)
    from .grid_module import check_rank_layout, rank_invariant_naive

    if layout:
        check_rank_layout(data.nx, data.ny)
    if ext == ".gmod":
        return rank_invariant_naive(data)
    from .rank_dp import rank_from_resolution

    if ext == ".fres":
        return rank_from_resolution(data)
    from .resolution import presentation, presented_module  # naive takes the explicit matrices of the module presented

    pres = presentation(data, args.degree or 0)
    return rank_from_resolution(pres) if (args.method or "dp") == "dp" else rank_invariant_naive(presented_module(pres))


def cmd_rank(args) -> int:
    _write_output(_rank_of_input(args, layout=True).text_slabs(), args.output)
    return 0


def cmd_decompose(args) -> int:
    ext = _ext(args.infile)
    if ext == ".rank":
        for flag, value in (("--degree", args.degree), ("--method", args.method), ("--field", args.field)):
            if value is not None:
                raise CliError(f"{flag} does not apply to .rank inputs")
        inv = _read_rank(args.infile)
    else:
        inv = _rank_of_input(args)
    from .rect_decomp import decompose

    barcode, clean = decompose(inv)
    _write_output([barcode.to_text()], args.output)
    if not clean:
        print(
            "warning: negative multiplicities encountered; no rectangle-"
            "decomposable module has this rank invariant",
            file=sys.stderr,
        )
        if args.strict:
            return 2
    return 0


def cmd_check(args) -> int:
    ext = _ext(args.infile)
    method = args.method or "zigzag"
    if ext == ".bif":
        bif = _load(args.infile, ".bif", args.field)
        degree = args.degree or 0
        from .weakexact import check_bifiltration, check_module

        if method == "zigzag":
            ok, witness = check_bifiltration(bif, degree)
        else:
            from .resolution import presentation, presented_module

            ok, witness = check_module(presented_module(presentation(bif, degree)), method)
    elif ext == ".gmod":
        if args.degree is not None:
            raise CliError("--degree applies to .bif inputs only")
        from .weakexact import check_module

        ok, witness = check_module(_load(args.infile, ".gmod", args.field), method)
    else:
        raise CliError(f"cannot check {ext or 'extensionless'} files")
    print("decomposable" if ok else "not-decomposable")
    if ok:
        return 0
    s, t, reason = witness
    print(
        f"witness: s=({s[0] + 1},{s[1] + 1}) t=({t[0] + 1},{t[1] + 1}): {reason}",
        file=sys.stderr,
    )
    return 2


def cmd_zigzag(args) -> int:
    bif = _load(args.infile, ".bif", args.field)
    if (args.row is None) == (args.col is None):
        raise CliError("exactly one of --row and --col is required")
    if args.row is not None:
        x, y = _point_1based(args.row, "--row")
    else:
        x, y = _point_1based(args.col, "--col")
    if not (0 <= x < bif.nx and 0 <= y < bif.ny):
        raise CliError(f"point ({x + 1},{y + 1}) outside the {bif.nx}x{bif.ny} grid")
    from .zigzag import col_zigzag_barcode, row_zigzag_barcode, write_zbar

    path_barcode = row_zigzag_barcode if args.row is not None else col_zigzag_barcode
    barcode = path_barcode(bif, (x, y), args.degree or 0)
    _write_output([write_zbar([barcode])], args.output)
    return 0


def cmd_examples(args) -> int:
    from .constructions import example, indecgrid
    from .gmod import write_gmod

    p = args.field if args.field is not None else 2
    if args.name == "indecgrid":
        if args.n is None:
            raise CliError("indecgrid needs --n")
        module = indecgrid(args.n, p)  # refuses a module the reader would refuse
    else:
        if args.n is not None:
            raise CliError("--n applies to indecgrid only")
        module = example(args.name, p)
    _write_output([write_gmod(module)], args.output)
    return 0


def cmd_random_rect(args) -> int:
    from .constructions import random_rectangle_module
    from .gmod import dimension_problem, write_gmod
    from .rect_decomp import RectangleBarcode

    if args.n < 1 or args.m < 1 or args.count < 1:
        raise CliError("grid extents and summand count must be positive")
    p = args.field if args.field is not None else 2
    module, truth = random_rectangle_module(args.n, args.m, args.count, args.seed, p)  # refuses what the reader would
    text = write_gmod(module)
    if problem := dimension_problem(int(module.dims.max()), len(text)):
        raise CliError(problem)
    prefix = args.output
    _write_output([text], f"{prefix}.gmod")
    _write_output([RectangleBarcode(truth).to_text()], f"{prefix}.barcode")
    print(f"wrote {prefix}.gmod and {prefix}.barcode")
    return 0


# -- argument parsing --------------------------------------------------------


class _CatalogueHelp(argparse.HelpFormatter):
    """Fills "{catalogue}" in a help string with the names of the
    worked-example catalogue, read from `constructions` only when the
    help is shown, so that building the parser imports none of it."""

    def _get_help_string(self, action):
        from .constructions import EXAMPLE_NAMES

        return action.help.replace("{catalogue}", ", ".join(EXAMPLE_NAMES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipersist",
        description="Two-parameter persistence over finite grids: ranks, "
        "rectangle barcodes, zigzags, decomposability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument(
            "--field",
            type=int,
            metavar="p",
            help="field modulus; must match file headers when reading",
        )

    p = sub.add_parser("validate", help="validate a .bif/.gmod/.fres file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rank", help="compute a rank invariant (.rank)")
    p.add_argument("infile", help=".bif, .gmod, or .fres input")
    p.add_argument("--degree", type=int, metavar="q", help="homology degree (.bif only, default 0)")
    p.add_argument("--method", choices=["dp", "naive"], help="dp (from a free resolution) or naive (explicit matrices)")
    p.add_argument("-o", "--output", metavar="out.rank", help="output path (default stdout)")
    add_field(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("decompose-rectangles", help="rectangle barcode of a rank invariant")
    p.add_argument("infile", help=".rank, .bif, .gmod, or .fres input")
    p.add_argument("--degree", type=int, metavar="q", help="homology degree (.bif only, default 0)")
    p.add_argument("--method", choices=["dp", "naive"], help="rank method for .bif inputs, as for rank")
    p.add_argument("--strict", action="store_true", help="exit 2 on negative multiplicities")
    p.add_argument("-o", "--output", metavar="out.barcode", help="output path (default stdout)")
    add_field(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-rectangle", help="decide rectangle-decomposability")
    p.add_argument("infile", help=".bif or .gmod input")
    p.add_argument(
        "--method", choices=["zigzag", "algebraic", "geometric"],
        help="zigzag (default): the rank invariant against the kappa/iota tables, one pairing per grid point, "
        "both from one presentation for a .bif; algebraic or geometric: the explicit checkers, on ranks of the "
        "maps of each comparable pair's square, on the module its presentation presents for a .bif",
    )
    p.add_argument("--degree", type=int, metavar="q", help="homology degree (.bif only, default 0)")
    add_field(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("zigzag-barcode", help="barcode of a row or column zigzag path, by the check's flag walk")
    p.add_argument("infile", help=".bif input")
    p.add_argument("--row", metavar="j,l", help="row path through corner (j,l), 1-based")
    p.add_argument("--col", metavar="i,k", help="column path through corner (i,k), 1-based")
    p.add_argument("--degree", type=int, metavar="q", help="homology degree (default 0)")
    p.add_argument("-o", "--output", metavar="out.zbar", help="output path (default stdout)")
    add_field(p)
    p.set_defaults(func=cmd_zigzag)

    p = sub.add_parser(
        "examples", help="emit a module from the worked-example catalogue", formatter_class=_CatalogueHelp
    )
    p.add_argument("name", help="one of {catalogue}, or indecgrid")
    p.add_argument("--n", type=int, help="size parameter (indecgrid only, n >= 2)")
    p.add_argument("-o", "--output", metavar="out.gmod", help="output path (default stdout)")
    add_field(p)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("random-rect", help="random rectangle-decomposable module + ground truth")
    p.add_argument("n", type=int, help="grid width")
    p.add_argument("m", type=int, help="grid height")
    p.add_argument("count", type=int, help="maximum number of rectangle summands")
    p.add_argument("--seed", type=int, default=0, metavar="s")
    p.add_argument("-o", "--output", metavar="PREFIX", required=True, help="writes PREFIX.gmod and PREFIX.barcode")
    add_field(p)
    p.set_defaults(func=cmd_random_rect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "degree", None) is not None and args.degree < 0:
            raise CliError(f"--degree must be 0 or more, got {args.degree}")
        return args.func(args)
    except (CliError, FormatError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
