"""End-to-end checklist pinning the package's headline behaviors.

One test per criterion; each prints a pass line so a `-s` run reads as
a checklist.  All arithmetic is over finite fields and integers, so
every comparison here is exact — there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from bipersist.bifiltration import homology_module
from bipersist.cli import main
from bipersist.constructions import EXAMPLE_NAMES, example, indecgrid, random_rectangle_module
from bipersist.grid_module import iter_points, rank_invariant_naive
from bipersist.linalg import rank
from bipersist.rank_dp import rank_from_resolution
from bipersist.rect_decomp import decompose
from bipersist.fres import read_fres
from bipersist.resolution import free_resolution
from bipersist.squares import SQUARE_LABELS, decompose_square
from bipersist.weakexact import (
    check_bifiltration,
    check_module,
    check_rectangle_decomposable,
)
from bipersist.zigzag import ZigzagBarcode
from conftest import kappa_iota_naive
from paperlib import (
    barcode_dim_at,
    comparable_pairs,
    count_spanning,
    dart,
    dart_embedding,
    direct_sum,
    hom_dim,
    hom_dim_poset,
    image_basis,
    indicator_module,
    indicator_poset_module,
    interval_multiplicities,
    invariants_of_square,
    is_strongly_exact,
    iso_test,
    kernel_basis,
    module_barcode,
    ran_extension,
    restrict,
    square_invariant_matrix,
    square_vector,
    subspace_intersect,
    subspace_sum,
    validate_resolution,
    zero_module,
)

# corners of the unit square: a=(0,0), b=(1,0), c=(0,1), d=(1,1)
CORNERS = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}


def _interval(letters, p=2):
    return indicator_module(2, 2, {CORNERS[ch] for ch in letters}, p)


def _square_audit(module):
    """Barcode of every nondegenerate square; raises if any is inconsistent."""
    audit = {}
    for sx in range(module.nx):
        for sy in range(module.ny):
            for tx in range(sx + 1, module.nx):
                for ty in range(sy + 1, module.ny):
                    key = ((sx, sy), (tx, ty))
                    audit[key] = decompose_square(invariants_of_square(module, *key))
    return audit


def _rand_mat(rng, rows, cols, p):
    entries = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def _exact_det(mat):
    m = [[Fraction(int(v)) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_criterion_1_worked_examples():
    # one-parameter module: two bars, over columns 1..3 and 1..2
    assert interval_multiplicities(example("ex1")) == {(0, 2): 1, (0, 1): 1}

    # 2x2 module splitting as the top edge plus the full square
    barcode, clean = decompose(rank_invariant_naive(example("ex2")))
    assert clean
    assert barcode == {(0, 1, 1, 1): 1, (0, 0, 1, 1): 1}

    # the two 3x2 siblings share a rank invariant but not a structure
    left = example("ex3-left", 101)
    right = example("ex3-right", 101)
    assert rank_invariant_naive(left) == rank_invariant_naive(right)
    stair = indicator_module(3, 2, {(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}, 101)
    point = indicator_module(3, 2, {(1, 1)}, 101)
    two_intervals = direct_sum(stair, point)
    assert iso_test(left, two_intervals) == ("confirmed", None)
    assert hom_dim(left, left) == 2
    assert _square_audit(left) == _square_audit(two_intervals)

    assert hom_dim(right, right) == 1
    outermost = ((0, 0), (2, 1))
    for method in ("algebraic", "geometric"):
        ok, witness = check_module(right, method)
        assert not ok and witness[:2] == outermost
    ok, witness = check_rectangle_decomposable(
        rank_invariant_naive(right), kappa_iota_naive(right)
    )
    assert not ok and witness[:2] == outermost

    # strong exactness separates the last pair, weak exactness does not
    assert is_strongly_exact(example("ex4-left")) == (True, None)
    assert check_module(example("ex4-left"), "algebraic") == (True, None)
    assert check_module(example("ex4-right"), "algebraic") == (True, None)
    assert check_module(example("ex4-right"), "geometric") == (True, None)
    ok, _ = is_strongly_exact(example("ex4-right"))
    assert not ok
    print("criterion 1: pass")


def test_criterion_2_rectangle_roundtrip():
    passes = 0
    for seed in range(100):
        meta = random.Random(9000 + seed)
        nx, ny = meta.randint(2, 6), meta.randint(2, 6)
        for p in (2, 101):
            module, truth = random_rectangle_module(nx, ny, 6, seed, p)
            barcode, clean = decompose(rank_invariant_naive(module))
            assert clean, (seed, p)
            assert barcode == truth, (seed, p)
            passes += 1
    assert passes == 200
    print("criterion 2: pass (200/200)")


def test_criterion_3_resolution_matches_direct_homology(random_bif):
    passes = 0
    for seed in range(100):
        bif = random_bif(seed)
        for degree in (0, 1):
            res = free_resolution(bif, degree)
            assert validate_resolution(res, bif, degree) is None, (seed, degree)
            from_resolution = rank_from_resolution(res)
            direct = rank_invariant_naive(homology_module(bif, degree))
            assert from_resolution == direct, (seed, degree)
        passes += 1
    assert passes == 100
    print("criterion 3: pass (100/100)")


def test_criterion_4_checkers_agree_three_ways(random_bif):
    def assert_unique_decomposition(module):
        # a true verdict promises a clean rectangle barcode whose
        # pointwise dimensions reproduce the module's
        barcode, clean = decompose(rank_invariant_naive(module))
        assert clean
        for t in iter_points(module.nx, module.ny):
            assert barcode_dim_at(barcode, t) == module.dim_at(t)

    for seed in range(100):
        bif = random_bif(seed)
        for degree in (0, 1):
            tables = check_bifiltration(bif, degree)
            module = homology_module(bif, degree)
            algebraic = check_module(module, "algebraic")
            geometric = check_module(module, "geometric")
            assert tables[0] == algebraic[0] == geometric[0], (seed, degree)
            if tables[0]:
                assert_unique_decomposition(module)
            else:
                assert tables[1][:2] == algebraic[1][:2] == geometric[1][:2]

    # catalogue modules have no backing bifiltration, so the table leg
    # is fed by direct kernel/image arithmetic instead
    for name in EXAMPLE_NAMES:
        module = example(name)
        table = check_rectangle_decomposable(
            rank_invariant_naive(module), kappa_iota_naive(module)
        )
        algebraic = check_module(module, "algebraic")
        geometric = check_module(module, "geometric")
        assert table[0] == algebraic[0] == geometric[0], name
        if table[0]:
            assert_unique_decomposition(module)
        else:
            assert table[1][:2] == algebraic[1][:2] == geometric[1][:2], name
    print("criterion 4: pass")


def test_criterion_5_span_count_formulas():
    rng = random.Random(5)
    for trial in range(500):
        p = 2 if trial % 2 == 0 else 5

        # image form: C -> D <- B, intersection counted by spanning bars
        c, d, b = (rng.randint(0, 5) for _ in range(3))
        delta = _rand_mat(rng, d, c, p)
        gamma = _rand_mat(rng, d, b, p)
        want = subspace_intersect(image_basis(delta, p), image_basis(gamma, p)).dim
        bars = module_barcode([c, d, b], [("fwd", delta), ("bwd", gamma)], p)
        assert count_spanning(ZigzagBarcode(3, bars), 0, 2) == want, trial

        # kernel form: C <- S -> B, sum counted by the spanning deficit
        s = rng.randint(0, 5)
        c2, b2 = rng.randint(0, 5), rng.randint(0, 5)
        delta2 = _rand_mat(rng, c2, s, p)
        gamma2 = _rand_mat(rng, b2, s, p)
        want2 = subspace_sum(kernel_basis(delta2, p), kernel_basis(gamma2, p)).dim
        bars2 = module_barcode([c2, s, b2], [("bwd", delta2), ("fwd", gamma2)], p)
        assert s - count_spanning(ZigzagBarcode(3, bars2), 0, 2) == want2, trial
    print("criterion 5: pass (500/500)")


def _ran_interval_sum(n, xs, ys, skip, p):
    """Sum of the full-grid floor modules of {j, top}, minus one, restricted."""
    poset = dart(n, p).poset
    emb = dart_embedding(n)
    total = zero_module(len(xs), len(ys), p)
    parts = 0
    for j in range(1, n + 2):
        if j == skip:
            continue
        summand = restrict(
            ran_extension(indicator_poset_module(poset, {j, n + 2}, p), emb, n + 1, n + 1), xs, ys
        )
        assert int(summand.dims.max()) <= 1  # each summand is an interval
        total = direct_sum(total, summand)
        parts += 1
    assert parts == n
    return total


def test_criterion_6_staircase_family():
    for n in (2, 3):
        d = dart(n, 101)
        grid = indecgrid(n, 101)
        assert hom_dim_poset(d, d) == 1
        assert hom_dim(grid, grid) == 1
        ran = ran_extension(d, dart_embedding(n), n + 1, n + 1)
        assert iso_test(ran, grid) == ("confirmed", None)

        # dropping any single column or row splits the module into
        # exactly n interval summands, pinned by explicit witnesses
        everything = list(range(n + 1))
        for removed in range(n + 1):
            keep = [v for v in everything if v != removed]
            col = restrict(grid, keep, everything)
            col_sum = _ran_interval_sum(n, keep, everything, removed + 1, 101)
            assert iso_test(col, col_sum) == ("confirmed", None), (n, removed)
            row = restrict(grid, everything, keep)
            row_sum = _ran_interval_sum(n, everything, keep, n + 1 - removed, 101)
            assert iso_test(row, row_sum) == ("confirmed", None), (n, removed)

    # the hook examples: one hook in total, only of the expected type
    audit = _square_audit(example("hooks-vertical", 101))
    assert all(bc["abc"] == 0 for bc in audit.values())
    hooks = {key: bc.hooks for key, bc in audit.items() if bc.hooks}
    assert hooks == {((0, 0), (1, 2)): 1}
    dual_audit = _square_audit(example("hooks-vertical-dual", 101))
    assert all(bc["bcd"] == 0 for bc in dual_audit.values())
    assert sum(bc.hooks for bc in dual_audit.values()) == 1
    print("criterion 6: pass")


def test_criterion_7_square_solver_oracle():
    # every column of the closed-form matrix matches a brute-force
    # evaluation on the corresponding explicit interval module
    mat = square_invariant_matrix()
    for col, letters in enumerate(SQUARE_LABELS):
        brute = square_vector(invariants_of_square(_interval(letters), (0, 0), (1, 1)))
        assert np.array_equal(mat[:, col], brute), letters
    assert _exact_det(mat) != 0

    checked = 0
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(SQUARE_LABELS, size):
            module = _interval(combo[0])
            for letters in combo[1:]:
                module = direct_sum(module, _interval(letters))
            expected = {lab: combo.count(lab) for lab in SQUARE_LABELS}
            got = decompose_square(invariants_of_square(module, (0, 0), (1, 1)))
            assert dict(got) == expected, combo
            checked += 1
    assert checked == 11 + 66 + 286
    print("criterion 7: pass (363 sums)")


def _perf_fixture_text():
    """A 50x50-grid presentation: 500 origin generators, 500 relations."""
    rng = random.Random(808)
    lines = ["resolution", "field 2", "grid 50 50", "gens"]
    lines += ["1 1"] * 500
    lines.append("rels")
    for _ in range(500):
        lines.append(f"{rng.randrange(50) + 1} {rng.randrange(50) + 1}")
    lines.append("relrels")
    lines.append("phi")
    for j in range(500):
        for i in range(500):
            if rng.random() < 0.5:
                lines.append(f"{i + 1} {j + 1} 1")
    lines.append("psi")
    return "\n".join(lines) + "\n"


def _presented_rank(res, s, t):
    """Rank of M_s -> M_t straight from the presentation, no sharing.

    Generators of grade <= s span the image, so count them against the
    relations visible at t: rank [phi_t | E_s] - rank phi_t.
    """
    gsel = [i for i, g in enumerate(res.gens.grades) if g[0] <= t[0] and g[1] <= t[1]]
    rsel = [j for j, g in enumerate(res.rels.grades) if g[0] <= t[0] and g[1] <= t[1]]
    phi_t = res.phi.entries[np.ix_(gsel, rsel)]
    low = [
        pos
        for pos, i in enumerate(gsel)
        if res.gens.grades[i][0] <= s[0] and res.gens.grades[i][1] <= s[1]
    ]
    emb = np.zeros((len(gsel), len(low)), dtype=np.int64)
    emb[low, np.arange(len(low))] = 1
    return rank(np.hstack([phi_t, emb]), res.p) - rank(phi_t, res.p)


def test_criterion_8_dp_beats_pointwise(tmp_path):
    fixture = tmp_path / "perf.fres"
    fixture.write_text(_perf_fixture_text())
    out = tmp_path / "perf.rank"

    start = time.perf_counter()
    assert main(["rank", str(fixture), "--method", "dp", "-o", str(out)]) == 0
    dp_elapsed = time.perf_counter() - start
    assert dp_elapsed < 60.0

    # the per-pair path gets five times the DP budget; running out of
    # time with pairs to spare proves the >= 5x gap without waiting
    res = read_fres(fixture.read_text())
    budget = 5.0 * dp_elapsed
    total = (50 * 51 // 2) ** 2
    done = 0
    start = time.perf_counter()
    for s, t in comparable_pairs(50, 50):
        if time.perf_counter() - start > budget:
            break
        _presented_rank(res, s, t)
        done += 1
    naive_elapsed = time.perf_counter() - start
    finished = done == total
    assert not finished or naive_elapsed >= budget
    print(
        f"criterion 8: pass (dp {dp_elapsed:.1f}s; per-pair path covered "
        f"{done}/{total} pairs in {naive_elapsed:.1f}s)"
    )
