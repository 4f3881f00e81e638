import argparse
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bipersist import ioutil, rank_reader
from bipersist.bifiltration import write_bif
from bipersist.cli import build_parser, main
from bipersist.constructions import EXAMPLE_NAMES, example, indecgrid
from bipersist.gmod import read_gmod, write_gmod
from bipersist.grid_module import RankInvariant, pair_count
from bipersist.ioutil import FormatError
from bipersist.rect_decomp import RectangleBarcode, decompose
from bipersist.zigzag import write_zbar
from conftest import clique_bifiltration
from paperlib import col_zigzag, int_rows, rectangle_rank_invariant, row_zigzag, zigzag_barcode

TRIANGLE = [
    ((0, 0), (0,)),
    ((0, 0), (1,)),
    ((1, 0), (2,)),
    ((1, 0), (0, 1)),
    ((1, 1), (1, 2)),
    ((2, 1), (0, 2)),
    ((2, 2), (0, 1, 2)),
]


def write_triangle(tmp_path, p=2):
    from bipersist.bifiltration import Bifiltration

    path = tmp_path / "tri.bif"
    path.write_text(write_bif(Bifiltration.from_graded_simplices(TRIANGLE, p=p)))
    return str(path)


def test_validate_accepts_and_rejects(tmp_path, capsys):
    bif = write_triangle(tmp_path)
    assert main(["validate", bif]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.bif"
    bad.write_text("bifiltration\nfield 2\n1 1 ; 0 1\n")  # edge missing vertices
    assert main(["validate", str(bad)]) == 1
    assert "missing" in capsys.readouterr().err

    junk = tmp_path / "junk.rank"
    junk.write_text("whatever\n")
    assert main(["validate", str(junk)]) == 1
    assert main(["validate", str(tmp_path / "absent.bif")]) == 1


def test_rank_dp_and_naive_agree_bytewise(tmp_path):
    bif = write_triangle(tmp_path)
    for degree in ("0", "1"):
        out_dp = tmp_path / f"dp{degree}.rank"
        out_naive = tmp_path / f"nv{degree}.rank"
        assert main(["rank", bif, "--degree", degree, "--method", "dp", "-o", str(out_dp)]) == 0
        assert main(["rank", bif, "--degree", degree, "--method", "naive", "-o", str(out_naive)]) == 0
        assert out_dp.read_bytes() == out_naive.read_bytes()


def test_rank_on_bif_matches_the_full_resolution_route(tmp_path, random_bif):
    # the CLI ranks a .bif from its presentation; the bytes are those of
    # the rank invariant of the full free resolution
    from bipersist.bifiltration import read_bif
    from bipersist.rank_dp import rank_from_resolution
    from bipersist.resolution import free_resolution

    for seed, p in ((60, 2), (61, 3), (62, 2**31 - 1)):
        path = tmp_path / f"r{seed}.bif"
        path.write_text(write_bif(random_bif(seed, nx=5, ny=4, p=p)))
        bif = read_bif(path.read_text())  # the file's grid is the extent its grades use
        for degree in (0, 1):
            out = tmp_path / f"r{seed}-{degree}.rank"
            assert main(["rank", str(path), "--degree", str(degree), "-o", str(out)]) == 0
            assert out.read_text() == rank_from_resolution(free_resolution(bif, degree)).to_text()


def test_rank_fres_matches_bif(tmp_path):
    bif = write_triangle(tmp_path)
    fres = tmp_path / "tri.fres"
    a = tmp_path / "a.rank"
    b = tmp_path / "b.rank"
    assert main(["rank", bif, "-o", str(a)]) == 0
    from bipersist.bifiltration import read_bif
    from bipersist.fres import write_fres
    from bipersist.resolution import free_resolution

    fres.write_text(write_fres(free_resolution(read_bif(open(bif).read()), 0)))
    assert main(["rank", str(fres), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rank_method_routing_errors(tmp_path, capsys):
    gmod = tmp_path / "m.gmod"
    gmod.write_text(write_gmod(example("ex2")))
    assert main(["rank", str(gmod), "--method", "dp"]) == 1
    assert "needs a .bif or .fres" in capsys.readouterr().err
    assert main(["rank", str(gmod), "--degree", "1"]) == 1
    bif = write_triangle(tmp_path)
    fres = tmp_path / "f.fres"
    from bipersist.bifiltration import read_bif
    from bipersist.fres import write_fres
    from bipersist.resolution import free_resolution

    fres.write_text(write_fres(free_resolution(read_bif(open(bif).read()), 0)))
    assert main(["rank", str(fres), "--method", "naive"]) == 1
    assert main(["rank", str(tmp_path / "tri.txt")]) == 1


@pytest.mark.parametrize("flag, value", [("--degree", "3"), ("--method", "naive"), ("--field", "7")])
def test_decompose_refuses_the_flags_a_rank_input_ignores(tmp_path, capsys, flag, value):
    # a .rank holds the ranks of one module and no field, so these
    # flags could only be ignored; the refusal names the flag
    rank_file, out = tmp_path / "t.rank", tmp_path / "t.barcode"
    assert main(["rank", write_triangle(tmp_path), "-o", str(rank_file)]) == 0
    capsys.readouterr()
    assert main(["decompose-rectangles", str(rank_file), flag, value, "-o", str(out)]) == 1
    assert flag in capsys.readouterr().err and not out.exists()
    assert main(["decompose-rectangles", str(rank_file), "-o", str(out)]) == 0


def test_field_flag_must_match_file(tmp_path, capsys):
    bif = write_triangle(tmp_path, p=5)
    assert main(["rank", bif, "--field", "5", "-o", str(tmp_path / "x.rank")]) == 0
    assert main(["rank", bif, "--field", "7"]) == 1
    assert "conflicts" in capsys.readouterr().err


def test_dp_grid_cap(tmp_path, capsys, monkeypatch):
    # one generator on the 61 x 1 grid: the DP's int16 table of 1,891
    # pairs, 3,782 bytes, and its work, 61^2 (2 + 24) bytes of pair
    # counts, are stated before they are allocated; the grid is past the
    # old 60 x 60 cap, and the bytes are what is capped
    fres = tmp_path / "wide.fres"
    fres.write_text(
        "resolution\nfield 2\ngrid 61 1\ngens\n1 1\nrels\nrelrels\nphi\npsi\n"
    )
    for command in ("rank", "decompose-rectangles"):
        monkeypatch.setattr(ioutil, "BYTES_CAP", 100528)
        assert main([command, str(fres), "-o", str(tmp_path / "out")]) == 0
        monkeypatch.setattr(ioutil, "BYTES_CAP", 100527)
        assert main([command, str(fres)]) == 1
        assert capsys.readouterr().err == (
            "error: 1 table(s) on the comparable pairs of the 61x1 grid and 96,746 bytes of work would need "
            "100,528 bytes, past the 100,527-byte cap\n"
        )


def refuse_boundaries(monkeypatch):
    """Make every boundary matrix of a bifiltration fail when it is built."""
    from bipersist.bifiltration import Bifiltration

    def refuse(*args):
        raise AssertionError("a boundary matrix was built before the byte rule was checked")

    monkeypatch.setattr(Bifiltration, "boundary_matrix", refuse)


def wide_bif(tmp_path, n: int):
    """A .bif of n vertices, one at each x of an n x 1 grid."""
    path = tmp_path / "wide.bif"
    path.write_text("bifiltration\nfield 2\n" + "".join(f"{x} 1 ; {x}\n" for x in range(1, n + 1)))
    return str(path)


def test_rank_refuses_a_grid_the_rank_layout_cannot_hold_before_any_algebra(tmp_path, capsys, monkeypatch):
    # a label "x y " of the .rank layout fits in 8 bytes below 100; the
    # ranks of a wider grid are still decomposed
    wide = wide_bif(tmp_path, 100)
    assert main(["decompose-rectangles", wide, "-o", str(tmp_path / "out.barcode")]) == 0
    refuse_boundaries(monkeypatch)
    assert main(["rank", wide]) == 1
    assert capsys.readouterr().err == "error: grid 100x1 exceeds the 99x99 extent of the .rank layout\n"


@pytest.mark.parametrize("command", ["rank", "decompose-rectangles"])
@pytest.mark.parametrize("method", ["naive", "dp"])
def test_rank_of_a_bif_refuses_an_oversized_grid_before_any_algebra(tmp_path, capsys, monkeypatch, command, method):
    # 61 vertices on the 61 x 1 grid: both methods take one presentation,
    # which states 61 (61 + 256) = 19,337 bytes of bitsets, 2^18 of fixed
    # work and 3,782 of the int16 table; one byte short of that it is
    # refused before any boundary matrix is built.  The naive method also
    # states the module presented, dimensions 1 .. 61 along the row:
    # 16 x (1 x 2 + ... + 60 x 61) bytes of maps, 640 a map, 16 x 61^2
    # of one point's work, 2^18 of fixed work and the table
    wide = wide_bif(tmp_path, 61)
    monkeypatch.setattr(ioutil, "BYTES_CAP", 285263 if method == "dp" else 1210240 + 38400 + 59536 + (1 << 18) + 3782)
    assert main([command, wide, "--method", method, "-o", str(tmp_path / "out")]) == 0
    monkeypatch.setattr(ioutil, "BYTES_CAP", 285262)
    refuse_boundaries(monkeypatch)
    assert main([command, wide, "--method", method]) == 1
    assert capsys.readouterr().err == (
        "error: the degree-0 presentation (0, 61 and 0 simplices of dimension q-1, q and q+1) and 1 table(s) on the "
        "comparable pairs of the 61x1 grid would need 285,263 bytes, past the 285,262-byte cap\n"
    )


def test_check_rectangle_grid_cap(tmp_path, capsys, monkeypatch):
    # the check's presentation counts its three int16 tables, and so
    # does the module it presents, which states more (see above)
    wide = wide_bif(tmp_path, 61)
    need = 19337 + (1 << 18) + 3 * 3782
    monkeypatch.setattr(ioutil, "BYTES_CAP", 1210240 + 38400 + 59536 + (1 << 18) + 3 * 3782)
    assert main(["check-rectangle", wide]) == 0
    assert capsys.readouterr().out == "decomposable\n"
    monkeypatch.setattr(ioutil, "BYTES_CAP", need - 1)
    refuse_boundaries(monkeypatch)
    assert main(["check-rectangle", wide]) == 1
    err = capsys.readouterr().err
    assert "3 table(s) on the comparable pairs of the 61x1 grid would need 292,827 bytes, past the 292,826-byte cap" in err


@pytest.mark.parametrize(
    "args", [["rank"], ["decompose-rectangles"], ["check-rectangle"], ["check-rectangle", "--method", "algebraic"], None]
)
def test_a_bif_of_30000_isolated_vertices_is_refused_before_any_matrix(tmp_path, capsys, monkeypatch, args):
    # its presentation would hold [d_0; I], the 30,000 x 30,000 identity,
    # as bitsets several times over: the counts alone state
    # 30,000 (30,000 + 256) bytes, 2^18 of fixed work and the 1 x 1
    # grid's int16 tables, 2 bytes each, so no boundary matrix is built
    from bipersist.bifiltration import read_bif
    from bipersist.resolution import presentation

    path = tmp_path / "dots.bif"
    path.write_text("bifiltration\nfield 2\n" + "".join(f"0 0 ; {v}\n" for v in range(30000)))
    refuse_boundaries(monkeypatch)
    if args is None:
        with pytest.raises(ValueError, match="would need 907,942,146 bytes, past the 268,435,456-byte cap$"):
            presentation(read_bif(path.read_text()), 0)
        return
    assert main([*args, str(path)]) == 1
    tables = 3 if args == ["check-rectangle"] else 1
    assert capsys.readouterr().err == (
        f"error: the degree-0 presentation (0, 30,000 and 0 simplices of dimension q-1, q and q+1) and {tables} "
        f"table(s) on the comparable pairs of the 1x1 grid would need {907_680_000 + (1 << 18) + 2 * tables:,} bytes, "
        "past the 268,435,456-byte cap\n"
    )


def test_the_zigzag_of_30000_isolated_vertices_is_refused_before_any_array(tmp_path):
    # its one station's cycles would be the 30,000 x 30,000 identity,
    # 6.71 GiB that numpy would be asked for; under a 2 GiB address space
    # the path's counts refuse it first: 40 b^2 bytes of the one
    # station's basis, flags and candidates, 8 b of the flag's births,
    # b^2 of its bitsets, 512 a held simplex, 32 (1 + 1)^2 of the bars'
    # table and 2^18 of fixed work
    import resource

    path = tmp_path / "dots.bif"
    path.write_text("bifiltration\nfield 2\n" + "".join(f"0 0 ; {v}\n" for v in range(30000)))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = [sys.executable, "-m", "bipersist.cli", "zigzag-barcode", str(path), "--row", "1,1"]
    done = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True, preexec_fn=limit)
    need = 41 * 30000**2 + 8 * 30000 + 512 * 30000 + 32 * 2**2 + (1 << 18)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", (
        "error: the degree-0 homology along the path (0, 30,000 and 0 held simplices of dimension q-1, q and q+1, "
        f"1 station(s)) would need {need:,} bytes, past the 268,435,456-byte cap\n"
    ))


def test_a_bif_on_a_grid_past_the_old_extent_cap_is_read(tmp_path, capsys):
    # 61 vertices along x, joined by edges that enter one row up: the
    # 61 x 2 grid passed the old 60 x 60 cap, and its tables are 22 kB
    from bipersist.bifiltration import homology_module, read_bif
    from bipersist.grid_module import rank_invariant_naive
    from bipersist.weakexact import check_module

    path, out = tmp_path / "wide.bif", tmp_path / "out.rank"
    edges = "".join(f"{x + 1} 2 ; {x} {x + 1}\n" for x in range(1, 61))
    path.write_text("bifiltration\nfield 2\n" + "".join(f"{x} 1 ; {x}\n" for x in range(1, 62)) + edges)
    oracle = homology_module(read_bif(path.read_text()), 0)
    for method in ("dp", "naive"):
        assert main(["rank", str(path), "--method", method, "-o", str(out)]) == 0
        assert out.read_text() == rank_invariant_naive(oracle).to_text()
    capsys.readouterr()
    ok, witness = check_module(oracle, "algebraic")
    assert main(["check-rectangle", str(path)]) == (0 if ok else 2)
    out_text, err = capsys.readouterr()
    assert out_text == ("decomposable\n" if ok else "not-decomposable\n")
    if not ok:
        s, t, _ = witness
        assert err.startswith(f"witness: s=({s[0] + 1},{s[1] + 1}) t=({t[0] + 1},{t[1] + 1}): ")


def test_gmod_writers_refuse_grids_the_reader_refuses(tmp_path, capsys, monkeypatch):
    # `random-rect` and `examples` refuse exactly the modules whose .gmod
    # `read_gmod` refuses, in its words: with the cap at the bytes of a
    # written module's int16 rank table and identities, the reader takes
    # its file; one byte short of those, or of the table alone, the
    # writer refuses it before writing and the reader refuses the file
    default = ioutil.BYTES_CAP
    path = tmp_path / "out.gmod"
    for args in (["random-rect", "61", "1", "1", "-o", str(tmp_path / "out")], ["examples", "indecgrid", "--n", "5", "-o", str(path)]):
        monkeypatch.setattr(ioutil, "BYTES_CAP", default)
        assert main(args) == 0
        text = path.read_text()
        module = read_gmod(text)
        table = 2 * pair_count(module.nx, module.ny)
        monkeypatch.setattr(ioutil, "BYTES_CAP", table + 8 * int((module.dims**2).sum()))
        read_gmod(text)
        for cap in (ioutil.BYTES_CAP - 1, table - 1):
            monkeypatch.setattr(ioutil, "BYTES_CAP", cap)
            with pytest.raises(FormatError) as refused:
                read_gmod(text)
            path.unlink()
            capsys.readouterr()
            assert main(args) == 1
            assert capsys.readouterr().err == f"error: {str(refused.value).split(': ', 1)[1]}\n"
            assert f"bytes, past the {cap:,}-byte cap" in str(refused.value) and not path.exists()
            path.write_text(text)


@pytest.mark.parametrize(
    "args, err",
    [
        (["1", "1", "100"], "error: dimension 50 exceeds the file's 39 characters\n"),
        (
            ["1", "1", "20000"],
            "error: the rank table of the 1x1 grid and the identities of its spaces would need "
            f"{8 * 12624**2 + 2:,} bytes, past the 268,435,456-byte cap\n",
        ),
    ],
    ids=["dimension", "identities"],
)
def test_random_rect_refuses_what_the_reader_refuses(tmp_path, capsys, args, err):
    # a dimension past the .gmod text's characters, and identities past
    # the reader's cap, which are refused before any map is built
    prefix = str(tmp_path / "big")
    assert main(["random-rect", *args, "--seed", "0", "-o", prefix]) == 1
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == []


# SHA-256 of the .gmod and the .barcode that `random-rect` writes, pinned
# when each sum was still built one block-diagonal direct sum at a time
RANDOM_RECT_DIGESTS = {
    ("7", "5", "12", "--seed", "3", "--field", "3"): (
        "bd5154e522daf7510984c480db3763f980cf2c38c04710361dccf9776a69154a",
        "45f0ac638a9a556a3c06293c2c2b8f58abb46e4904931452ebb647cd574dbd5d",
    ),
    ("45", "30", "120", "--seed", "9", "--field", "2147483647"): (
        "be827a63ccca993808b4bb511d2fd2585974acf0e0e257b950534f3c79fa9fa5",
        "35617d752d923fcd9e85caf041ef1dce6957037efe94a6fd46290c855bee6ac2",
    ),
    ("60", "1", "40", "--field", "3"): (
        "54429a775f4c119fb39e7dafbcaaea820d924f870da2d16a02587235a1740e67",
        "13d8e0ae0a978b0cf54a651f4059c6ea98f7cc6995c6fb837dac9c6e6048f04c",
    ),
}


@pytest.mark.parametrize("args", list(RANDOM_RECT_DIGESTS))
def test_random_rect_output_is_pinned(tmp_path, args):
    prefix = tmp_path / "rnd"
    assert main(["random-rect", *args, "-o", str(prefix)]) == 0
    got = tuple(hashlib.sha256(Path(f"{prefix}{ext}").read_bytes()).hexdigest() for ext in (".gmod", ".barcode"))
    assert got == RANDOM_RECT_DIGESTS[args]


def test_decompose_matches_ground_truth(tmp_path):
    prefix = str(tmp_path / "rnd")
    assert main(["random-rect", "5", "4", "6", "--seed", "3", "-o", prefix]) == 0
    out = tmp_path / "out.barcode"
    assert main(["decompose-rectangles", prefix + ".gmod", "-o", str(out)]) == 0
    assert out.read_text() == (tmp_path / "rnd.barcode").read_text()


def test_decompose_refuses_a_rank_whose_differences_pass_int64(tmp_path, capsys):
    # r((1,2),(2,2)) = r((2,1),(2,2)) = 2**63 - 1 give the sixteen-term
    # sum -2 (2**63 - 1) at ((1,1),(2,2)), which int64 would wrap
    inv = RankInvariant(2, 2)
    for s in ((0, 1), (1, 0)):
        inv.block(s)[1 - s[0], 1 - s[1]] = 2**63 - 1
    path = tmp_path / "big.rank"
    path.write_text(inv.to_text())
    assert main(["decompose-rectangles", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: rank 9223372036854775807 exceeds 2**60 - 1")


def test_decompose_from_rank_file(tmp_path):
    bif = write_triangle(tmp_path)
    rank_path = tmp_path / "tri.rank"
    assert main(["rank", bif, "-o", str(rank_path)]) == 0
    direct = tmp_path / "direct.barcode"
    via_rank = tmp_path / "via.barcode"
    assert main(["decompose-rectangles", bif, "-o", str(direct)]) == 0
    assert main(["decompose-rectangles", str(rank_path), "-o", str(via_rank)]) == 0
    assert direct.read_bytes() == via_rank.read_bytes()


def test_decompose_reports_bad_rank_lines(tmp_path, capsys):
    # a rank past int64 used to escape as an OverflowError traceback,
    # and a repeated pair used to overwrite the first silently
    cases = {
        "big.rank": ("1 1 1 1 99999999999999999999\n", "error: line 1: "),
        "again.rank": ("1 1 1 1 1\n1 1 1 1 1\n", "error: line 2: pair repeats line 1"),
        "long.rank": ("1 1 1 1 " + "9" * 5000 + "\n", "error: line 1: integer 999"),
    }
    for name, (text, err) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["decompose-rectangles", str(path), "-o", str(tmp_path / "out.barcode")]) == 1
        assert capsys.readouterr().err.startswith(err)


def test_validate_names_the_line_of_a_gmod_integer_past_int64(tmp_path, capsys):
    # a matrix entry past int64 used to escape as an OverflowError
    # traceback, and a grid extent past it as numpy's "Maximum allowed
    # dimension exceeded" with no line
    cases = {
        "entry.gmod": (
            "gridmodule\nfield 2\ngrid 2 1\ndim 1 1 1\ndim 2 1 1\nhmap 1 1\n99999999999999999999\n",
            "error: line 7: integer 99999999999999999999 is outside the 64-bit range\n",
        ),
        "extent.gmod": (
            "gridmodule\nfield 2\ngrid 2 99999999999999999999\n",
            "error: line 3: integer 99999999999999999999 is outside the 64-bit range\n",
        ),
    }
    for name, (text, err) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "name, text, command, line",
    [
        ("bad.rank", b"1 1 1 1 \xff\n", "decompose-rectangles", 1),
        ("bad.bif", b"bifiltration\r\nfield 2\r\n0 0 ; 1 # caf\xe9\r\n", "validate", 3),
        ("bad.fres", b"resolution\nfield 2\rgrid 1 1\ngens\n\n1 1\xc3\x28\n", "validate", 6),
        ("bad.gmod", b"gridmodule\nfield 2\ngrid 1 1\n\xe2\x82dim 1 1 1\n", "rank", 4),
    ],
)
def test_input_that_is_not_utf8_names_its_line(tmp_path, capsys, name, text, command, line):
    # such a file used to fail with the codec's message, which names a
    # byte offset and no line; a CR and a CRLF end a line, as text mode reads them
    path = tmp_path / name
    path.write_bytes(text)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: byte 0x")


def decompose_rank_file(tmp_path, capsys, data: bytes):
    """(exit code, the .barcode text or the stderr) of `decompose-rectangles`
    on a .rank file holding `data`."""
    path, out = tmp_path / "in.rank", tmp_path / "out.barcode"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    code = main(["decompose-rectangles", str(path), "-o", str(out)])
    err = capsys.readouterr().err
    return code, out.read_text() if code == 0 else err


def barcode_text(inv):
    return decompose(inv)[0].to_text()


RANKS = rectangle_rank_invariant(RectangleBarcode({(0, 0, 5, 4): 2, (1, 2, 3, 4): 1, (4, 0, 5, 1): 3}), 6, 5)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("order", ["reversed", "t-major"])
@pytest.mark.parametrize("bad", [None, "past-cap", "repeat"])
def test_rank_rows_in_any_order_read_as_in_the_writers_order(tmp_path, capsys, block, order, bad):
    # the reader allocates the table at the extents read so far: the
    # reversed rows name the largest t first, the t-major ones last, so
    # read in blocks of 64 characters they regrow it many times
    header, *rows = RANKS.to_text().splitlines()
    if order == "reversed":
        moved = rows[::-1]
    else:
        moved = sorted(rows, key=lambda line: [int(v) for v in line.split()[2:4] + line.split()[:2]])
    extra = {None: [], "past-cap": ["1 1 61 1 1"], "repeat": [rows[0]]}[bad]
    text = "\n".join([header, *moved, *extra]) + "\n"
    canonical = "\n".join([header, *rows, *extra]) + "\n"
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ioutil, "_BLOCK_CHARS", block)
        if bad == "past-cap":  # the cap at the bytes of the 6 x 5 grid's int16 table, which 61 x 5 passes
            mp.setattr(ioutil, "BYTES_CAP", 2 * pair_count(6, 5))
        got = decompose_rank_file(tmp_path, capsys, text.encode())
        if bad is None:
            assert RankInvariant.from_text(text) == RankInvariant.from_text(canonical) == RANKS
            assert got == (0, barcode_text(RANKS)) == decompose_rank_file(tmp_path, capsys, canonical.encode())
            return
        if bad == "past-cap":
            message = (
                f"line {len(rows) + 2}: 1 table(s) on the comparable pairs of the 61x5 grid "
                f"would need {2 * pair_count(61, 5):,} bytes, past the 630-byte cap"
            )
            assert decompose_rank_file(tmp_path, capsys, canonical.encode())[1].startswith(f"error: {message}")
        else:
            message = f"line {len(rows) + 2}: pair repeats line {moved.index(rows[0]) + 2}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            RankInvariant.from_text(text)
        assert got[0] == 1 and got[1].startswith(f"error: {message}")


def test_decompose_reads_the_rank_commands_output_without_the_tokenizer(tmp_path, capsys):
    # `rank` writes the layout that `from_slabs` checks, so the general
    # reader's tokenizer never runs on it; cut into 64-byte chunks, the
    # slabs straddle chunks
    bif = write_triangle(tmp_path)
    rank_file = tmp_path / "tri.rank"
    assert main(["rank", bif, "--degree", "1", "-o", str(rank_file)]) == 0
    want = barcode_text(RankInvariant.from_text(rank_file.read_text()))

    def tokenizer(*args):
        raise AssertionError("the general .rank reader ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ioutil, "block_rows", tokenizer)
        mp.setattr(rank_reader, "block_rows", tokenizer)
        mp.setattr(ioutil, "_BLOCK_CHARS", 64)
        assert decompose_rank_file(tmp_path, capsys, rank_file.read_bytes()) == (0, want)
        assert decompose_rank_file(tmp_path, capsys, RANKS.to_text().encode()) == (0, barcode_text(RANKS))


def test_a_writers_rank_file_changed_in_its_bytes_reads_as_text(tmp_path, capsys):
    # the layout reader sees bytes, the general reader text: a byte that
    # is not UTF-8 past the last line, or lone CRs for the LFs, leave the
    # layout, and the general reader reads the file from its start
    data = RANKS.to_text().encode()
    lines = data.count(b"\n")
    assert decompose_rank_file(tmp_path, capsys, data + b"\xff") == (
        1, f"error: line {lines + 1}: byte 0xff is not UTF-8 (invalid start byte)\n"
    )
    assert decompose_rank_file(tmp_path, capsys, data.replace(b"\n", b"\r")) == (0, barcode_text(RANKS))


@pytest.mark.parametrize("bad_line", [3, 40_002])
def test_a_byte_that_is_not_utf8_wins_over_an_earlier_malformed_line(tmp_path, capsys, bad_line):
    # the parse stops at the malformed line 1, but the rest of the file,
    # several blocks of it for the later byte, is still decoded: as when
    # the whole file was read at once, the bad byte is what is reported
    data = b"1 1 1 1\n" + b"1 1 1 1 1\n" * (bad_line - 2) + b"1 1 1 2 \xff\n" + b"1 1 1 1 1\n" * 10
    assert decompose_rank_file(tmp_path, capsys, data) == (
        1, f"error: line {bad_line}: byte 0xff is not UTF-8 (invalid start byte)\n"
    )


# generators at (1,1) and (2,2), relations at (1,1) and (2,2): the
# entry (2,1) is inhomogeneous; the triplets start at line 12
FRES_HEAD = "resolution\nfield 3\ngrid 2 2\ngens\n1 1\n2 2\nrels\n1 1\n2 2\nrelrels\nphi\n"
INHOMOGENEOUS = "phi not homogeneous: entry (2,1) nonzero but row grade (2, 2) is not below column grade (1, 1)"
# the same valid file with CRLF line ends, comments, blanks and tabs
FRES_CRLF = (
    "# a presentation\r\nresolution # header\r\nfield 3\r\n\r\ngrid\t2 2\r\ngens # two\r\n1 1\r\n2\t2 # top\r\n"
    "rels\r\n1 1\r\n  2 2\r\nrelrels\r\n# none\r\nphi\r\n1 1 1 # e\r\n2 2 5\r\n1 2 2\r\npsi\r\n# end\r\n"
)
FRES_PLAIN = FRES_HEAD + "1 1 1\n2 2 2\n1 2 2\npsi\n"
NOT_UTF8 = "byte 0x{:02x} is not UTF-8 (invalid start byte)"


def fres_command(tmp_path, capsys, command, data: bytes):
    """(exit code, stdout, stderr) of `command` on a .fres file holding `data`."""
    path = tmp_path / "in.fres"
    path.write_bytes(data)
    code = main([command, str(path)] + (["-o", str(tmp_path / "out.rank")] if command == "rank" else []))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("command", ["rank", "validate"])
@pytest.mark.parametrize(
    "data, err",
    [
        (FRES_HEAD + "1 1 1\n1 2\n2 2 1\npsi\n", "line 13: expected 'row col value', got '1 2'"),
        (FRES_HEAD + "1 1 1\n3 1 1\n1 2\npsi\n", "line 13: index (3,1) outside 2x2"),
        (FRES_HEAD + "2 1 1\n1 1 1\n2 1 2\npsi\n", f"line 14: {INHOMOGENEOUS}"),
        (FRES_HEAD + "2 1 1\n" + "1 1 1\n" * 3000 + "2 1 4\n2 2 1\npsi\n", f"line 3013: {INHOMOGENEOUS}"),
        (FRES_HEAD + "2 1 1\n1 1 1\n2 1 3\npsi\n", None),  # 3 is 0 mod 3: the entry is zero after all
        (FRES_HEAD + "2 1 1\n" + "2 1 -3\n" * 3000 + "psi\n", None),
        (FRES_HEAD + "1 x 1\n" + "1 1 1\n" * 3000 + "\udcff\npsi\n", f"line 3013: {NOT_UTF8.format(0xFF)}"),
        (FRES_HEAD + "1 1 1\npsi\nphi\n" + "# note\n" * 3000 + "\udcfe\n", f"line 3015: {NOT_UTF8.format(0xFE)}"),
        (FRES_CRLF.replace("1 2 2", "1 2 2 2"), "line 17: expected 'row col value', got '1 2 2 2'"),
        (FRES_CRLF.replace("\r\nphi", "\r\n\tpsi"), "line 14: expected 'phi'"),
        (FRES_CRLF, None),
        ("resolution\nfield 2\ngrid 0 3\ngens\nrels\nrelrels\nphi\npsi\n", "line 3: grid extents must be positive"),
    ],
    ids=[
        "malformed", "index", "set-twice", "set-twice-blocks-apart", "zeroed", "zeroed-many-times",
        "not-utf8-after-malformed", "not-utf8-after-section", "crlf-malformed", "crlf-section", "crlf-comments",
        "empty-grid",
    ],
)
def test_fres_errors_name_the_same_line_read_in_blocks(tmp_path, capsys, monkeypatch, block, command, data, err):
    # the .fres reader takes the file a block of lines at a time; every
    # error text and line number is that of reading the whole text: the
    # last triplet that set a nonzero inhomogeneous entry, a byte that is
    # not UTF-8 anywhere in the file over an earlier bad line, and line
    # numbers of CRLF files with comments
    if block is not None:
        monkeypatch.setattr(ioutil, "_BLOCK_CHARS", block)
    got = fres_command(tmp_path, capsys, command, data.encode("utf-8", "surrogateescape"))
    if err is not None:
        assert got == (1, "", f"error: {err}\n")
        return
    assert got == (0, "ok\n" if command == "validate" else "", "")
    if command == "rank" and data == FRES_CRLF:
        crlf = (tmp_path / "out.rank").read_bytes()
        fres_command(tmp_path, capsys, "rank", FRES_PLAIN.encode())
        assert crlf == (tmp_path / "out.rank").read_bytes()


@pytest.mark.parametrize("command", ["rank", "validate"])
@pytest.mark.parametrize("cap", [72, 71])
def test_fres_whose_matrices_pass_the_cap_is_refused_at_its_phi_line(tmp_path, capsys, monkeypatch, command, cap):
    # 2 generators, 3 relations and 1 relation on relations: phi and psi
    # take 8 (2 x 3 + 3 x 1) = 72 bytes, counted once the grades are
    # read and refused before either matrix is allocated.  On the 1 x 1
    # grid the DP of `rank` then states 28 bytes, within both caps
    monkeypatch.setattr(ioutil, "BYTES_CAP", cap)
    data = "resolution\nfield 2\ngrid 1 1\ngens\n1 1\n1 1\nrels\n1 1\n1 1\n1 1\nrelrels\n1 1\nphi\npsi\n"
    got = fres_command(tmp_path, capsys, command, data.encode())
    if cap == 72:
        assert got == (0, "ok\n" if command == "validate" else "", "")
    else:
        assert got == (1, "", "error: line 13: phi and psi would need 72 bytes, past the 71-byte cap\n")


def test_decompose_names_both_lines_of_a_repeat_blocks_apart(tmp_path, capsys):
    # a 20 x 20 .rank is about five 128 KiB blocks; the repeat of its
    # line 3 is in the last one
    inv = rectangle_rank_invariant(RectangleBarcode({(0, 0, 19, 19): 1, (2, 3, 17, 12): 2}), 20, 20)
    text = inv.to_text()
    assert len(text) > 4 * ioutil._BLOCK_CHARS
    again = text + text.splitlines()[2] + "\n"
    lines = again.count("\n")
    assert decompose_rank_file(tmp_path, capsys, again.encode()) == (1, f"error: line {lines}: pair repeats line 3\n")


def test_decompose_reads_crlf_rank_files(tmp_path, capsys):
    text = RANKS.to_text()
    assert decompose_rank_file(tmp_path, capsys, text.replace("\n", "\r\n").encode()) == (0, barcode_text(RANKS))


@pytest.mark.parametrize("data", [b"", b"# rank invariant on grid 0 x 0\n\n  # nothing\n"])
def test_decompose_reads_an_empty_rank_file_as_the_empty_grid(tmp_path, capsys, data):
    assert decompose_rank_file(tmp_path, capsys, data) == (0, RectangleBarcode().to_text())


def test_a_lone_cr_ends_a_rank_line_in_the_cli_only(tmp_path, capsys):
    # the CLI reads files with universal newlines, where a CR ends a line;
    # text given to the library reader reads a CR as a space
    data = "1 1 1 1 1\r1 1 1 2 1\n"
    with pytest.raises(FormatError, match="^line 1: "):
        RankInvariant.from_text(data)
    want = barcode_text(RankInvariant.from_text(data.replace("\r", "\n")))
    assert decompose_rank_file(tmp_path, capsys, data.encode()) == (0, want)


def test_decompose_strict_flags_negatives(tmp_path, capsys):
    gmod = tmp_path / "stair.gmod"
    gmod.write_text(write_gmod(indecgrid(2)))
    out = tmp_path / "stair.barcode"
    assert main(["decompose-rectangles", str(gmod), "-o", str(out)]) == 0
    assert "negative multiplicities" in capsys.readouterr().err
    assert main(["decompose-rectangles", str(gmod), "--strict", "-o", str(out)]) == 2
    # the emitted positive part is still a valid barcode file
    rows, _, error = int_rows(out.read_text(), "s_x s_y t_x t_y multiplicity")
    assert error is None and len(rows) and (rows[:, :2] <= rows[:, 2:4]).all() and (rows[:, 4] > 0).all()


def test_check_rectangle_verdicts(tmp_path, capsys):
    prefix = str(tmp_path / "ok")
    assert main(["random-rect", "4", "3", "4", "--seed", "1", "-o", prefix]) == 0
    capsys.readouterr()
    assert main(["check-rectangle", prefix + ".gmod"]) == 0
    assert capsys.readouterr().out.strip() == "decomposable"

    bad = tmp_path / "bad.gmod"
    bad.write_text(write_gmod(example("ex3-right")))
    assert main(["check-rectangle", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out.strip() == "not-decomposable"
    assert "witness: s=(1,1) t=(3,2)" in captured.err


def test_check_rectangle_methods_agree(tmp_path, capsys):
    bif = write_triangle(tmp_path)
    codes = set()
    for method in ("zigzag", "algebraic", "geometric"):
        codes.add(main(["check-rectangle", bif, "--method", method, "--degree", "0"]))
    assert len(codes) == 1
    capsys.readouterr()
    assert main(["check-rectangle", bif]) in (0, 2)
    capsys.readouterr()
    gmod = tmp_path / "m.gmod"
    gmod.write_text(write_gmod(example("ex2")))
    assert main(["check-rectangle", str(gmod), "--method", "zigzag"]) == 0
    assert capsys.readouterr().out.strip() == "decomposable"


def test_check_rectangle_gmod_default_gives_the_algebraic_witness(tmp_path, capsys):
    # a .gmod is checked by the pairing route unless --method says
    # otherwise; it exits and names the witness pair as the subspace
    # checker does, with the reason of the table comparison
    modules = {name: example(name) for name in EXAMPLE_NAMES}
    modules.update({f"indecgrid-{n}": indecgrid(n) for n in (2, 3, 5)})
    for name, module in modules.items():
        path = tmp_path / f"{name}.gmod"
        path.write_text(write_gmod(module))
        runs, reasons = [], []
        for extra in ([], ["--method", "algebraic"]):
            code = main(["check-rectangle", str(path), *extra])
            captured = capsys.readouterr()
            runs.append((code, captured.out, re.findall(r"witness: s=\S+ t=\S+:", captured.err)))
            reasons.append(captured.err)
        assert runs[0] == runs[1], name
        assert runs[0][0] in (0, 2)
        if runs[0][0] == 2:
            assert "kernel/image equalities fail" not in reasons[0]
    assert main(["check-rectangle", str(tmp_path / "indecgrid-3.gmod")]) == 2
    assert capsys.readouterr().err.strip() == "witness: s=(1,2) t=(4,4): rank 0 != image intersection 1"


def test_zigzag_barcode_subcommand(tmp_path, capsys):
    # the output is what the event-list oracle of paperlib writes
    from bipersist.bifiltration import read_bif

    bif = write_triangle(tmp_path)
    out = tmp_path / "row.zbar"
    assert main(["zigzag-barcode", bif, "--row", "3,2", "-o", str(out)]) == 0
    entries, _, error = int_rows(out.read_text(), "degree birth death")
    assert error is None and len(entries) and (entries[:, 0] == 0).all()
    clique = tmp_path / "clique.bif"
    clique.write_text(write_bif(clique_bifiltration(11, 8, 0.5, 4, 4, p=3)))
    runs = [(bif, "--row", "3,2", "0"), (bif, "--col", "1,1", "1"), (str(clique), "--row", "3,4", "1")]
    runs += [(str(clique), "--col", "3,3", d) for d in ("0", "1")]
    for path, flag, point, degree in runs:
        assert main(["zigzag-barcode", path, flag, point, "--degree", degree, "-o", str(out)]) == 0
        parsed = read_bif(open(path).read())
        x, y = (int(v) - 1 for v in point.split(","))
        zz = (row_zigzag if flag == "--row" else col_zigzag)(parsed, (x, y))
        assert out.read_text() == write_zbar([zigzag_barcode(zz, int(degree), parsed.p)])
    assert main(["zigzag-barcode", bif]) == 1
    assert main(["zigzag-barcode", bif, "--row", "1,1", "--col", "1,1"]) == 1
    assert main(["zigzag-barcode", bif, "--row", "9,9"]) == 1
    assert main(["zigzag-barcode", bif, "--row", "1"]) == 1


def test_examples_subcommand(tmp_path, capsys):
    assert main(["examples", "ex2"]) == 0
    module = read_gmod(capsys.readouterr().out)
    assert (module.nx, module.ny) == (2, 2)
    out = tmp_path / "stair.gmod"
    assert main(["examples", "indecgrid", "--n", "3", "--field", "101", "-o", str(out)]) == 0
    stair = read_gmod(out.read_text())
    assert stair.p == 101 and stair.nx == 4
    assert main(["examples", "indecgrid"]) == 1
    assert main(["examples", "ex2", "--n", "2"]) == 1
    assert main(["examples", "nonsense"]) == 1


def test_random_rect_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        assert main(["random-rect", "4", "4", "3", "--seed", "9", "-o", prefix]) == 0
    assert open(a + ".gmod").read() == open(b + ".gmod").read()
    assert open(a + ".barcode").read() == open(b + ".barcode").read()
    module = read_gmod(open(a + ".gmod").read())
    assert module.validate() == []
    assert main(["random-rect", "0", "4", "3", "-o", a]) == 1


# inputs of the refusals below; tri.bif is the triangle
REFUSED_INPUTS = {
    "x.gmod": write_gmod(example("ex2")),
    "x.fres": "resolution\nfield 2\ngrid 1 1\ngens\n1 1\nrels\nrelrels\nphi\npsi\n",
    "field23.bif": "bifiltration\nfield 2 3\n1 1 ; 0\n",
    "bad.bif": "bifiltration\nfield 2\n1 1 ; 0 1\n",  # the vertices of the edge are missing
}


@pytest.mark.parametrize(
    "args, err",
    [
        (["check-rectangle", "x.gmod", "--degree", "1"], "--degree applies to .bif inputs only"),
        (["check-rectangle", "x.fres"], "cannot check .fres files"),
        (["zigzag-barcode", "tri.bif", "--row", "a,b"], "--row expects integers, got 'a,b'"),
        (["validate", "field23.bif"], "line 2: expected 'field p'"),
        (["validate", "x.txt"], "[Errno 2] No such file or directory: 'x.txt'"),
        (["rank", "bad.bif", "--field", "7"], "--field 7 conflicts with the file's field 2; re-reduction is refused"),
        (["zigzag-barcode", "x.gmod", "--row", "1,1"], "line 1: expected 'bifiltration' header"),
    ],
    ids=["gmod-degree", "check-fres", "row-not-integers", "bif-field-line", "validate-absent-txt", "field-first",
         "zigzag-gmod"],
)
def test_refusals_name_the_first_problem(tmp_path, capsys, monkeypatch, args, err):
    # an absent file of an unknown kind reports the OS error, a --field
    # conflict comes before the file's own problems, and the zigzag reads
    # any file as a .bif
    monkeypatch.chdir(tmp_path)
    write_triangle(tmp_path)
    for name, text in REFUSED_INPUTS.items():
        (tmp_path / name).write_text(text)
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_an_allocation_the_machine_refuses_is_an_error(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError states the bytes it could not get
    import bipersist.resolution

    message = "Unable to allocate 6.71 GiB for an array with shape (30000, 30000) and data type int64"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(bipersist.resolution, "presentation", refuse)
    assert main(["rank", write_triangle(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ("rank", "decompose-rectangles", "check-rectangle", "zigzag-barcode"))
def test_negative_degree_is_a_usage_error(tmp_path, capsys, command):
    bif = write_triangle(tmp_path)
    extra = ["--row", "1,1"] if command == "zigzag-barcode" else []
    assert main([command, bif, "--degree", "-1", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--degree must be 0 or more" in captured.err


def test_degree_help_names_the_homology_degree(capsys):
    # p is the field modulus; the degree is q, as in the README
    for command in ("rank", "decompose-rectangles", "check-rectangle", "zigzag-barcode"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--degree q" in out and "--degree p" not in out


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd, columns=80):
    """`python -m bipersist.cli ARGS` in a fresh process: (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS=str(columns))
    done = subprocess.run([sys.executable, "-m", "bipersist.cli", *args], cwd=cwd, env=env, capture_output=True)
    return done.returncode, done.stdout


def test_rank_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path):
    # a file takes the writer's bytes as they are; stdout takes them as text
    from bipersist.bifiltration import read_bif
    from bipersist.fres import write_fres
    from bipersist.resolution import free_resolution

    fres = tmp_path / "tri.fres"
    fres.write_text(write_fres(free_resolution(read_bif(open(write_triangle(tmp_path)).read()), 0)))
    assert run_cli(["rank", str(fres), "-o", "out.rank"], tmp_path) == (0, b"")
    data = (tmp_path / "out.rank").read_bytes()
    assert run_cli(["rank", str(fres)], tmp_path) == (0, data)
    assert run_cli(["rank", str(fres), "-o", "-"], tmp_path) == (0, data)
    assert data.decode() == RankInvariant.from_text(data.decode()).to_text()


# Linux charges a child's ru_maxrss with the peak of the process that
# forked it, so each command is started from this small launcher, not
# from the test process
PEAK_RSS = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_rss_kb(args, cwd) -> int:
    """The ru_maxrss, in kB, of `python -m bipersist.cli ARGS` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "bipersist.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    code, kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return kb


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_rank_and_decompose_peak_rss_is_the_start_up_floor_and_the_vector(tmp_path):
    # on a seeded 30 x 30 presentation (300 generators, 300 relations),
    # each command peaks at most a few MB above the same command on a
    # 1 x 1 input, beside the vector of ranks: phi (0.7 MB) and one
    # block's parse arrays for `rank`, one run's arrays or one slab of
    # `decompose` for `decompose-rectangles`; a dense table or a
    # whole-text parse would not fit
    rng = random.Random(30)
    lines = ["resolution", "field 2", "grid 30 30", "gens"] + ["1 1"] * 300 + ["rels"]
    lines += [f"{rng.randrange(30) + 1} {rng.randrange(30) + 1}" for _ in range(300)] + ["relrels", "phi"]
    lines += [f"{i + 1} {j + 1} 1" for j in range(300) for i in range(300) if rng.random() < 0.5] + ["psi"]
    (tmp_path / "big.fres").write_text("\n".join(lines) + "\n")
    (tmp_path / "floor.fres").write_text("resolution\nfield 2\ngrid 1 1\ngens\n1 1\nrels\nrelrels\nphi\npsi\n")
    vector_kb = 2 * (30 * 31 // 2) ** 2 / 1024  # int16 entries: the ranks are at most 300
    for name in ("floor", "big"):
        rank = peak_rss_kb(["rank", f"{name}.fres", "-o", f"{name}.rank"], tmp_path)
        decompose = peak_rss_kb(["decompose-rectangles", f"{name}.rank", "-o", f"{name}.barcode"], tmp_path)
        if name == "floor":
            floor = rank, decompose
    assert RankInvariant.from_text((tmp_path / "big.rank").read_text()).values.dtype == np.int16
    assert rank <= floor[0] + vector_kb + 4 * 1024
    assert decompose <= floor[1] + vector_kb + 4 * 1024


LOADED = (
    "import sys\n"
    "REPORTED = {'numpy', 'dataclasses', 'inspect'}\n"
    "from bipersist.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('bipersist') or m in REPORTED))\n"
)


def run_loaded(args, cwd):
    """(exit code, the bipersist modules, numpy, dataclasses and inspect
    loaded after it, stderr) of `main(args)` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", LOADED, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True)
    code, *loaded = done.stdout.splitlines()[-1].split()
    return int(code), set(loaded), done.stderr


def loaded_modules(args, cwd):
    """The bipersist modules, numpy, dataclasses and inspect a fresh process has loaded after running `main(args)`."""
    return run_loaded(args, cwd)[1]


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    # numpy loads with the algebra only: `validate` of a .bif runs the
    # text layer alone.  No command loads dataclasses, whose generated
    # methods are compiled at import; inspect comes with numpy only
    write_triangle(tmp_path)
    assert run_loaded(["validate", "tri.bif"], tmp_path) == (
        0, {"bipersist", "bipersist.cli", "bipersist.ioutil", "bipersist.bifiltration"}, ""
    )
    (tmp_path / "in.rank").write_text(RANKS.to_text())
    # and a .rank needs no elimination
    assert loaded_modules(["decompose-rectangles", "in.rank", "-o", "out.barcode"], tmp_path) == {
        "bipersist", "bipersist.cli", "bipersist.ioutil", "bipersist.grid_module",
        "bipersist.rank_reader", "bipersist.rect_decomp", "numpy", "inspect",
    }
    assert (tmp_path / "out.barcode").read_text() == barcode_text(RANKS)
    from bipersist.bifiltration import read_bif
    from bipersist.fres import write_fres
    from bipersist.resolution import free_resolution

    (tmp_path / "in.fres").write_text(write_fres(free_resolution(read_bif(open(write_triangle(tmp_path)).read()), 0)))
    loaded = loaded_modules(["rank", "in.fres", "-o", "out.rank"], tmp_path)
    assert "bipersist.rank_dp" in loaded and "dataclasses" not in loaded
    # and `rank` compiles no .rank reader, nor the .bif code a .fres
    # does not need
    assert not loaded & {
        "bipersist.weakexact", "bipersist.zigzag", "bipersist.constructions", "bipersist.rect_decomp",
        "bipersist.rank_reader", "bipersist.bifiltration",
    }
    # the check compiles neither file reader
    assert not loaded_modules(["check-rectangle", "tri.bif"], tmp_path) & {
        "bipersist.fres", "bipersist.rank_reader", "dataclasses",
    }
    # the zigzag shares the check's flag step and pairing through linalg, not weakexact
    # (and needs no grid_module: the per-point homology imports it only
    # for the whole-grid module)
    assert loaded_modules(["zigzag-barcode", "tri.bif", "--row", "3,2", "-o", "out.zbar"], tmp_path) == {
        "bipersist", "bipersist.cli", "bipersist.ioutil", "bipersist.linalg", "bipersist.bifiltration",
        "bipersist.zigzag", "numpy", "inspect",
    }


@pytest.mark.parametrize("command", ["rank", "check-rectangle"])
def test_a_malformed_bif_is_refused_without_numpy(tmp_path, command):
    # the refusal comes from the text layer, before the command imports
    # its algebra
    (tmp_path / "bad.bif").write_text("bifiltration\nfield 2\n1 1 ; 0\n1 x ; 1\n")
    assert run_loaded([command, "bad.bif"], tmp_path) == (
        1, {"bipersist", "bipersist.cli", "bipersist.ioutil", "bipersist.bifiltration"}, "error: line 4: bad grade '1 x'\n"
    )


def test_the_check_of_a_gmod_compiles_no_bifiltration_code(tmp_path):
    (tmp_path / "m.gmod").write_text(write_gmod(example("ex2")))
    assert "bipersist.bifiltration" not in loaded_modules(["check-rectangle", "m.gmod"], tmp_path)


def test_the_package_binds_its_public_names_on_first_use():
    import bipersist

    names = {}
    exec("from bipersist import *", names)
    assert all(names[name] is getattr(bipersist, name) for name in bipersist.__all__)
    assert bipersist.weakexact.check_bifiltration is bipersist.check_bifiltration
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        bipersist.nothing


def test_examples_help_lists_the_catalogue(tmp_path):
    from bipersist.constructions import EXAMPLE_NAMES

    code, out = run_cli(["examples", "--help"], tmp_path, columns=400)
    assert code == 0
    assert f"one of {', '.join(EXAMPLE_NAMES)}, or indecgrid" in out.decode()


def _synopsis():
    """The README's command synopsis: {subcommand: line}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return {line.split()[1]: line for line in block.splitlines() if line.startswith("bipersist ")}


def test_the_readme_synopsis_names_every_option_of_each_subcommand():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    lines = _synopsis()
    assert lines.keys() == subcommands.keys()
    for name, line in lines.items():
        named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line.split("#")[0]))
        options = [a.option_strings for a in subcommands[name]._actions if a.option_strings and a.dest != "help"]
        assert named <= {flag for flags in options for flag in flags}, line
        assert all(named & set(flags) for flags in options), line
