from bipersist.bifiltration import write_bif
from bipersist.cli import main
from bipersist.constructions import example, indecgrid
from bipersist.grid_module import read_gmod, write_gmod
from bipersist.rect_decomp import RectangleBarcode
from bipersist.zigzag import read_zbar

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


def test_rank_fres_matches_bif(tmp_path):
    bif = write_triangle(tmp_path)
    fres = tmp_path / "tri.fres"
    a = tmp_path / "a.rank"
    b = tmp_path / "b.rank"
    assert main(["rank", bif, "-o", str(a)]) == 0
    from bipersist.bifiltration import read_bif
    from bipersist.resolution import free_resolution, write_fres

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
    from bipersist.resolution import free_resolution, write_fres

    fres.write_text(write_fres(free_resolution(read_bif(open(bif).read()), 0)))
    assert main(["rank", str(fres), "--method", "naive"]) == 1
    assert main(["rank", str(tmp_path / "tri.txt")]) == 1


def test_field_flag_must_match_file(tmp_path, capsys):
    bif = write_triangle(tmp_path, p=5)
    assert main(["rank", bif, "--field", "5", "-o", str(tmp_path / "x.rank")]) == 0
    assert main(["rank", bif, "--field", "7"]) == 1
    assert "conflicts" in capsys.readouterr().err


def test_dp_grid_cap(tmp_path, capsys):
    fres = tmp_path / "wide.fres"
    fres.write_text(
        "resolution\nfield 2\ngrid 61 1\ngens\n1 1\nrels\nrelrels\nphi\npsi\n"
    )
    assert main(["rank", str(fres)]) == 1
    assert "exceeds" in capsys.readouterr().err


def test_check_rectangle_grid_cap(tmp_path, capsys):
    wide = tmp_path / "wide.bif"
    wide.write_text("bifiltration\nfield 2\n" + "".join(f"{x} 1 ; {x}\n" for x in range(1, 62)))
    assert main(["check-rectangle", str(wide)]) == 1
    err = capsys.readouterr().err
    assert "grid 61x1 exceeds the 60x60 cap" in err
    assert f"{3 * 8 * 61**2:,} bytes" in err


def test_decompose_matches_ground_truth(tmp_path):
    prefix = str(tmp_path / "rnd")
    assert main(["random-rect", "5", "4", "6", "--seed", "3", "-o", prefix]) == 0
    out = tmp_path / "out.barcode"
    assert main(["decompose-rectangles", prefix + ".gmod", "-o", str(out)]) == 0
    assert out.read_text() == (tmp_path / "rnd.barcode").read_text()


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


def test_decompose_strict_flags_negatives(tmp_path, capsys):
    gmod = tmp_path / "stair.gmod"
    gmod.write_text(write_gmod(indecgrid(2)))
    out = tmp_path / "stair.barcode"
    assert main(["decompose-rectangles", str(gmod), "-o", str(out)]) == 0
    assert "negative multiplicities" in capsys.readouterr().err
    assert main(["decompose-rectangles", str(gmod), "--strict", "-o", str(out)]) == 2
    # the emitted positive part is still a valid barcode file
    RectangleBarcode.from_text(out.read_text())


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
    gmod = tmp_path / "m.gmod"
    gmod.write_text(write_gmod(example("ex2")))
    assert main(["check-rectangle", str(gmod), "--method", "zigzag"]) == 1


def test_zigzag_barcode_subcommand(tmp_path, capsys):
    bif = write_triangle(tmp_path)
    out = tmp_path / "row.zbar"
    assert main(["zigzag-barcode", bif, "--row", "3,2", "-o", str(out)]) == 0
    entries = read_zbar(out.read_text())
    assert entries and all(deg == 0 for deg, _, _ in entries)
    assert main(["zigzag-barcode", bif, "--col", "1,1", "--degree", "1", "-o", str(out)]) == 0
    read_zbar(out.read_text())
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
