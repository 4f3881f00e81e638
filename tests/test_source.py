"""Checks on the package source itself."""

import ast
import symtable
from pathlib import Path

from bipersist import _HOME

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bipersist"

# top-level names kept although no entry point reaches them, with the reason
REACHABILITY_ALLOWLIST = {}

# methods kept although nothing in the package or the benchmark reads
# them as an attribute, with the reason
METHOD_ALLOWLIST = {
    ("cli", "_CatalogueHelp", "_get_help_string"): "argparse's HelpFormatter calls it",
}


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so data invariants raise InvariantError
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _absolute_imports():
    """("file:line", top-level package) of every absolute import in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", n.split(".")[0]) for n in names)


def test_package_imports_no_dataclasses():
    # a dataclass compiles its generated methods at import, and loads
    # inspect, ast, dis and tokenize with it, in every command that
    # imports the module; the records are plain classes
    assert [where for where, top in _absolute_imports() if top == "dataclasses"] == []


def test_package_starts_no_threads_or_processes():
    # the algebra is pure Python and numpy under the GIL; a pool comes
    # back only with a benchmark that shows it pays
    banned = {"concurrent", "threading", "multiprocessing"}
    assert [f"{where} {top}" for where, top in _absolute_imports() if top in banned] == []


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


# The production paths take kernels from the reductions they run and
# kernel/image dimensions from ranks; a dense per-point kernel or a
# subspace object coming back into one of them needs one of these names.
DENSE_KERNEL = {"kernel_basis", "Subspace", "rref"}
SUBSPACE_HELPERS = DENSE_KERNEL | {"image_basis", "subspace_sum", "subspace_intersect", "extend_basis"}


def _identifiers(name):
    """Every name a module imports, reads or reads as an attribute."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_production_paths_use_no_dense_kernel_or_subspace_helper():
    for name in ("resolution.py", "rank_dp.py", "weakexact.py", "bifiltration.py", "zigzag.py"):
        assert _identifiers(name) & DENSE_KERNEL == set(), name
    for name in ("grid_module.py", "squares.py"):
        assert _identifiers(name) & SUBSPACE_HELPERS == set(), name
    assert "ColumnReducer" in _identifiers("resolution.py")  # the scan sees imports


def test_package_defines_no_subspace_helper():
    # canonical subspaces, dense kernels and basis completion are the
    # tests' oracle (tests/paperlib.py); the package reads kernels, spans
    # and completions off its column reducers.  So are a module's cached
    # composite maps: the package pushes its maps one edge at a time.
    # A dense echelon form is the Gauss-Jordan oracle's: the package
    # solves and ranks by reducing columns.  The exactness check of a
    # resolution, and its evaluation at a point, are oracles too; the
    # decomposability check compares blocks r(s, .), so it needs neither
    # the pair at an index nor the source of each pair of a slab.  A
    # block-diagonal direct sum is the oracle of the one-pass rectangle
    # sum, and the checkers read ranks off blocks, so a pair table keeps
    # no cached list of block starts for reads one pair at a time.
    # The block readers allocate each block's work afresh: work arrays
    # kept from block to block measured no faster, so they come back
    # only with a measurement that shows they pay.  The CLI loads every
    # input through one loader, so a loader per format does not return.
    banned = {
        "Subspace", "asmatrix", "kernel_basis", "extend_basis", "composite", "_composites", "rref", "_reduced_rows",
        "validate_resolution", "evaluate", "pair_at", "slab_sources", "direct_sum", "_block_diag", "_starts",
        "Scratch", "row_capacity", "_load_bif", "_load_gmod", "_load_fres",
    }
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in banned:
                found.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(n, "id", getattr(n, "attr", None)) for t in targets for n in ast.walk(t)]
                found += [f"{path.name}:{node.lineno} {name}" for name in names if name in banned]
    assert found == []


def _top_level_owner(tree):
    """id(node) -> the name of the top-level function or class it lies in."""
    return {id(sub): node.name for node in tree.body if hasattr(node, "name") for sub in ast.walk(node)}


def _numpy_calls(tree, names):
    """Every call of np.<name> in the tree, for a name in `names`."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in names
        and getattr(node.func.value, "id", None) == "np"
    ]


def test_only_the_column_reducer_stacks_an_identity_or_touches_its_bitsets():
    # the columns of [m; I] are made in the reducer's own form
    # (`ColumnReducer.stacked`), and kernel vectors and solutions are
    # read off it in that form, so no kernel or solve stacks an np.eye;
    # the one np.eye left in linalg is `flag_step`'s unit-vector
    # candidates.  Only the reducer shifts, packs or unpacks a bitset:
    # outside it, in the modules that hold its columns, a shift is of a
    # constant (1 << 18) or of `matmul`'s int64 limbs
    bitwork = {"_unpacked", "packbits", "unpackbits", "to_bytes", "from_bytes", "bit_length"}
    for name in ("resolution.py", "bifiltration.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        stacks = [node for node in _numpy_calls(tree, {"vstack", "hstack", "concatenate", "column_stack"})
                  if _numpy_calls(node, {"eye", "identity"})]
        assert [f"{name}:{node.lineno}" for node in stacks] == []
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    owner = _top_level_owner(tree)
    assert [owner.get(id(node)) for node in _numpy_calls(tree, {"eye", "identity"})] == ["flag_step"]
    found = []
    for name in ("linalg.py", "resolution.py", "bifiltration.py", "zigzag.py", "rank_dp.py", "weakexact.py", "squares.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        owner = _top_level_owner(tree)
        for node in ast.walk(tree):
            if owner.get(id(node)) in ("ColumnReducer", "matmul"):
                continue
            shift = isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift))
            if shift and not isinstance(node.left, ast.Constant) or getattr(node, "attr", None) in bitwork:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _names(path):
    """(line, name) of every name a module defines, imports, reads or
    reads as an attribute, and of every string constant in it."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            out += [(node.lineno, node.name), (node.lineno, node.asname)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Name, ast.Attribute, ast.Constant)):
            out.append((node.lineno, getattr(node, "id", getattr(node, "attr", getattr(node, "value", None)))))
    return out


def test_one_byte_rule_makes_every_size_refusal():
    # every size refusal in the package is `ioutil.check_bytes` against
    # the one cap, `ioutil.BYTES_CAP`, which no other module names; the
    # extent cap of the tables and the per-format caps are gone.  The
    # .bif commands read the module off one presentation, so only
    # `bifiltration`, and the export map, name the per-point homology
    gone = {
        "DP_GRID_CAP", "GridTooLargeError", "check_table_grid", "GMOD_IDENTITY_BYTES_CAP", "identities_problem",
        "_check_gmod_grid", "DENSE_BYTES_CAP",
    }
    found, cap, homology = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _names(path):
            where = f"{path.name}:{line}"
            if name in gone:
                found.append(f"{where} {name}")
            if name == "BYTES_CAP" or name == 1 << 28:
                cap.append(path.name)
            if name == "homology_module" and path.name not in ("bifiltration.py", "__init__.py"):
                homology.append(where)
    assert found == [] and homology == []
    assert set(cap) == {"ioutil.py"} and cap.count("ioutil.py") >= 2  # assigned once and read by `check_bytes`
    tree = ast.parse((PACKAGE / "ioutil.py").read_text(encoding="utf-8"))
    assigned = [node for node in ast.walk(tree) if isinstance(node, ast.Assign) and "BYTES_CAP" in ast.unparse(node.targets[0])]
    assert len(assigned) == 1


def test_the_cli_names_the_input_readers_only_in_read_input():
    # `validate` and every command read a .bif, .gmod or .fres through
    # `cli._read_input`, which also finds the file's problems; a reader
    # named anywhere else in the CLI would be a loader of its own
    readers = {"read_bif", "read_gmod", "read_fres_blocks"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    inside = {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_read_input"
        for sub in ast.walk(node)
    }
    named, outside = set(), []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in readers:
            if id(node) in inside:
                named.add(name)
            else:
                outside.append(f"cli.py:{node.lineno} {name}")
    assert named == readers and outside == []


ALLOCATORS = {"zeros", "empty", "ones", "full"}


def _literal_dtype(node):
    """Whether a dtype argument names one fixed type: a string, a builtin
    type, `np.<type>` or `np.dtype(...)`, or nothing at all (float64)."""
    if node is None or isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id in {"int", "float", "bool", "complex", "object"}
    if isinstance(node, ast.Call):
        return _literal_dtype(node.func)
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in {"np", "numpy"}


# allocations of one entry per comparable pair that hold no rank or
# dimension, with the reason their entry type is fixed
FIXED_PAIR_TYPES = {
    ("rank_reader.py", "_repeated_pair"): "the first line number of each pair, int64 like the lines",
}


def test_dense_tables_take_their_entry_type_from_the_shared_rule():
    # a rank or dimension table holds one entry per comparable pair and
    # stores the narrowest entries its bound allows, by
    # `grid_module.table_dtype`; an allocation of `pair_count(...)`
    # entries with a literal dtype would fix one width for every input.
    # The one (nx, ny, nx, ny) allocation is the dense view
    # `PairTable.table` for the oracles, which takes the vector's type
    found, literal, dense = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(sub): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for sub in ast.walk(node)
        }  # the innermost function around each node, since ast.walk goes outside in
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ALLOCATORS and node.args):
                continue
            where = f"{path.name}:{node.lineno}"
            first = node.args[0]
            if isinstance(first, ast.Tuple) and len(first.elts) == 4:
                dense.append((path.name, owner.get(id(node))))
            if not (isinstance(first, ast.Call) and getattr(first.func, "id", None) == "pair_count"):
                continue
            dtype = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "dtype"), None)
            found.append(where)
            if _literal_dtype(dtype) and (path.name, owner.get(id(node))) not in FIXED_PAIR_TYPES:
                literal.append(where)
    # the scan sees the DP's, the readers', the naive rank's and kappa/iota's tables
    assert len(found) >= 7 and literal == []
    assert dense == [("grid_module.py", "table")]


def test_the_package_reads_no_dense_table_or_comparable_mask():
    # the rank invariant and the kappa/iota tables are read through the
    # pair layout's accessors; the dense view `PairTable.table` is built
    # for the oracles only, and the masks of the comparable pairs of a
    # dense table belong to the tests (paperlib.comparable_mask)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "table":
                found.append(f"{path.name}:{node.lineno} .table")
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("comparable_mask", "slab_mask"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _names_in(nodes, quoted=False):
    """Names read by expressions evaluated in module scope; with
    `quoted`, a string in them (an annotation) is read as the expression
    it quotes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif quoted and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out |= _names_in([ast.parse(sub.value, mode="eval")], quoted)
    return out


def _scope_globals(table):
    """Names that a function or class body and the scopes nested in it
    read as globals; a local, a parameter or a comprehension variable
    of the same name is not such a read."""
    out = {s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced()}
    for child in table.get_children():
        out |= _scope_globals(child)
    return out


def _module_scope_reads(node):
    """Names read by the parts of a `def` or `class` statement that are
    evaluated in module scope: decorators, defaults, bases, keywords,
    and the annotations in it, which `from __future__ import
    annotations` leaves out of the symbol tables."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        parts += node.bases + [k.value for k in node.keywords]
    else:
        parts += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
    notes = [sub.annotation for sub in ast.walk(node) if isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation]
    notes += [sub.returns for sub in ast.walk(node) if isinstance(sub, ast.FunctionDef) and sub.returns]
    return _names_in(parts) | _names_in(notes, quoted=True)


def _package_graph():
    """(definitions, edges, roots) over the package's top-level names.

    A definition is a top-level function, class or assigned constant,
    keyed (module, name).  Its edges are the definitions that its body
    reads as globals, resolved through the module's relative imports,
    and those that a relative import inside its body names.  Roots are
    the definitions read by module-level statements that define nothing
    (`cli`'s `__main__` block) and dunder names.
    """
    defs, edges, roots, imports = set(), {}, set(), {}
    raw = {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        top = symtable.symtable(source, str(path), "exec")
        imports[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module or alias.name, alias.name)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                reads = _module_scope_reads(node)
                for ns in top.lookup(node.name).get_namespaces():
                    reads |= _scope_globals(ns)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                reads = _names_in([node.value] if node.value is not None else [])
            else:  # a statement that runs at import and defines nothing
                names, reads = [None], _names_in([node])
            inner = {
                (sub.module, alias.name)
                for sub in ast.walk(node)
                if isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub is not node
                for alias in sub.names
            }
            for name in names:
                if name is not None:
                    defs.add((mod, name))
                    if name.startswith("__") and name.endswith("__"):
                        roots.add((mod, name))
                raw.setdefault((mod, name), (set(), set()))
                raw[(mod, name)][0].update(reads)
                raw[(mod, name)][1].update(inner)

    def resolve(mod, name, depth=0):
        if (mod, name) in defs:
            return (mod, name)
        if name in imports.get(mod, {}) and depth < 10:
            return resolve(*imports[mod][name], depth + 1)
        return None

    for (mod, name), (reads, inner) in raw.items():
        targets = {resolve(mod, n) for n in reads} | {resolve(*key) for key in inner}
        targets.discard(None)
        if name is None:
            roots |= targets
        else:
            edges[(mod, name)] = targets
    return defs, edges, roots


def _perfbench_names():
    """Attribute names read in perfbench/*.py, and the names it imports
    from `bipersist`: the benchmark reaches the package through both."""
    out = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bipersist"):
                out |= {alias.name for alias in node.names}
    return out


def unreached_names():
    """Top-level names of the package that nothing reaches from `cli`,
    from the names `bipersist` exports (`_HOME`) or from perfbench/."""
    defs, edges, roots = _package_graph()
    roots |= {(mod, name) for name, mod in _HOME.items()}
    bench = _perfbench_names()
    roots |= {key for key in defs if key[1] in bench}
    seen, todo = set(), [key for key in roots if key in defs]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
    return sorted(f"{mod}.{name}" for mod, name in defs - seen)


def test_every_top_level_name_is_reached():
    # a name that only the tests reach belongs in tests/paperlib.py; an
    # allowlisted name must still exist and still be unreached
    assert unreached_names() == sorted(f"{mod}.{name}" for mod, name in REACHABILITY_ALLOWLIST)


def unread_methods():
    """Methods of the package's classes, dunders aside, whose name
    nothing in the package or in perfbench/ reads as an attribute.  A
    read whose receiver names a package class, such as
    `RankInvariant.from_text` or `bp.RankInvariant.from_text`, reads
    that class's method, or the one it inherits, and no other class's."""
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.stem, node)

    def lineage(name):  # the class and its package ancestors
        bases = [b.id for b in classes[name][1].bases if getattr(b, "id", None) in classes]
        return {name}.union(*map(lineage, bases))

    reads, class_reads = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = getattr(node.value, "attr", getattr(node.value, "id", None))
                if receiver in classes:
                    class_reads |= {(cls, node.attr) for cls in lineage(receiver)}
                else:
                    reads.add(node.attr)
    found = []
    for name, (stem, cls) in classes.items():
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in reads and (name, node.name) not in class_reads:
                found.append(f"{stem}.{name}.{node.name}")
    return sorted(found)


def test_every_method_is_read():
    # a method that only the tests call belongs in tests/paperlib.py; an
    # allowlisted method must still exist and still be unread
    assert unread_methods() == sorted(".".join(key) for key in METHOD_ALLOWLIST)


def _chain(node):
    """The names of a chain of attribute reads on a name, root first,
    or None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) else None


def perfbench_package_reads():
    """(file:line, names) of each read perfbench/ makes of the package:
    an attribute chain on `bp`, the package, or on a name bound to one
    (`weakexact = bp.weakexact`), as the names read after `bp`."""
    out = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots = {"bp": ()}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                chain = _chain(node.value)
                if chain and chain[0] == "bp":
                    roots[node.targets[0].id] = chain[1:]
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in roots:
                out.append((f"{path.name}:{node.lineno}", roots[chain[0]] + chain[1:]))
    return out


def test_every_package_name_perfbench_reads_resolves():
    # the benchmark is frozen apart from the package, which it reads
    # through `bp.` and `bp.weakexact.`; a name gone from the package
    # would otherwise fail only when the benchmark runs
    import bipersist

    reads = perfbench_package_reads()
    seen = {".".join(names) for _, names in reads}
    assert {
        "homology_module", "rank_invariant_naive", "check_module", "weakexact.kappa_iota_from_zigzags",
        "weakexact.check_rectangle_decomposable", "free_resolution", "read_fres", "RankInvariant.from_text",
    } <= seen
    missing = []
    for where, names in reads:
        obj = bipersist
        for name in names:
            if not hasattr(obj, name):
                missing.append(f"{where} bp.{'.'.join(names)}")
                break
            obj = getattr(obj, name)
    assert missing == []


def test_reachability_counts_reads_not_locals():
    # a local, a parameter or a comprehension variable that shares a
    # global's name does not reach that global
    source = (
        "def used():\n    pass\n\n"
        "def shadowed():\n    pass\n\n"
        "def caller(shadowed):\n"
        "    hidden = [used for used in range(3)]\n"
        "    return used(), hidden, shadowed\n"
    )
    tree = symtable.symtable(source, "m", "exec")
    reads = _scope_globals(tree.lookup("caller").get_namespace())
    assert "used" in reads and "shadowed" not in reads


def test_nothing_in_the_package_imports_the_tests():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in ("tests", "conftest", "paperlib")]
    assert found == []
