"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bipersist"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so data invariants raise InvariantError
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_starts_no_threads_or_processes():
    # the algebra is pure Python and numpy under the GIL; a pool comes
    # back only with a benchmark that shows it pays
    banned = {"concurrent", "threading", "multiprocessing"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in banned]
    assert found == []


def test_only_column_reducer_normalises_a_pivot():
    # every elimination runs on linalg.ColumnReducer, which scales an
    # admitted column's lead to 1 with inv_mod; a second elimination in
    # the package would need a call of its own
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reducer = {
            id(sub)
            for node in ast.walk(tree)
            if path.name == "linalg.py" and isinstance(node, ast.ClassDef) and node.name == "ColumnReducer"
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "inv_mod":
                (inside if id(node) in reducer else outside).append(f"{path.name}:{node.lineno}")
    assert inside and outside == []
