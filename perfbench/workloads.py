"""The benchmark's workloads: seeded inputs, CLI commands, oracle checks.

A workload turns a seed into input files plus the answers its oracles
expect (`prepare`), runs one pass of its `bipersist` commands through
the CLI, checking each output against the oracle (`cli_pass`), and
replays the same commands under the tracer, one fresh process per
command as the CLI runs them (`traced_pass`), checking that the traced
outputs equal the CLI's.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

import inputs
import oracles

BIG_PRIME = 2**31 - 1

_WITNESS = re.compile(r"witness: s=\((\d+),(\d+)\) t=\((\d+),(\d+)\)")


@dataclass
class Outcome:
    """One CLI command or traced replay, as run and checked."""

    key: str          # names the command within a pass
    kind: str         # the subcommand, or "replay"
    wall_s: float
    cpu_s: float      # user + system time of the child, all its threads
    maxrss_mb: float
    ok: bool
    why: str = ""


def _digest(path):
    """sha256 of a file's bytes, or None when it is missing."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _same_file(mine, theirs) -> tuple[bool, str]:
    digest = _digest(mine)
    same = digest is not None and digest == _digest(theirs)
    return same, "" if same else f"traced {mine.name} differs from the CLI's output"


def _replay(cli, tracer, key: str, name: str, args: list, compare) -> Outcome:
    """Run one traced replay and check its result with `compare`."""
    res, record = cli.replay(tracer, name, [str(a) for a in args])
    if "error" in record:
        return res.outcome(key, False, record["error"])
    return res.outcome(key, *compare(record["result"]))


def _witness(stderr: str):
    m = _WITNESS.search(stderr)
    if m is None:
        return None
    a, b, c, d = (int(v) for v in m.groups())
    return (a, b), (c, d)


def _check_verdict(res, expected) -> tuple[bool, str]:
    """Compare a `check-rectangle` run with the oracle's verdict and witness."""
    ok, witness = expected
    want_code, want_out = (0, "decomposable") if ok else (2, "not-decomposable")
    if res.code != want_code or res.stdout.strip() != want_out:
        return False, f"exit {res.code} / {res.stdout.strip()!r}, expected exit {want_code} / {want_out!r}"
    if not ok and _witness(res.stderr) != witness:
        return False, f"witness {res.stderr.strip()!r}, expected s={witness[0]} t={witness[1]}"
    return True, ""


def _rows_verdict(path, expected: np.ndarray) -> tuple[bool, str]:
    try:
        got = oracles.read_rank_rows(path)
    except (OSError, ValueError) as e:
        return False, f"unreadable .rank: {e}"
    if got.shape != expected.shape:
        return False, f".rank has {got.shape[0]} rows, expected {expected.shape[0]}"
    bad = int((got != expected).any(axis=1).sum())
    if bad:
        return False, f"{bad} of {expected.shape[0]} .rank entries disagree with the oracle"
    return True, ""


class Workload:
    name = ""
    default_seed = 1

    def __init__(self):
        self.work = None
        self.expected: dict = {}

    def prepare(self, seed: int, work, bp) -> None:
        raise NotImplementedError

    def cli_pass(self, cli, trace: bool) -> list[Outcome]:
        raise NotImplementedError

    def traced_pass(self, cli, tracer) -> list[Outcome]:
        raise NotImplementedError


class Presentation50(Workload):
    """`rank` then `decompose-rectangles` on the 50x50 presentation fixture."""

    name = "presentation-50"
    default_seed = inputs.PRESENTATION_SEED
    N, GENS, RELS = 50, 500, 500

    def __init__(self):
        super().__init__()
        self._verified: dict = {}

    def prepare(self, seed, work, bp):
        self.work = work
        text, rel_grades, columns = inputs.presentation(seed, self.N, self.GENS, self.RELS)
        (work / "in.fres").write_text(text)
        table = oracles.presentation_rank_table(rel_grades, columns, self.GENS, self.N)
        self.expected["rank"] = oracles.comparable_rows(self.N, self.N, table)

    def _verify_rank(self, path):
        """Check a `.rank` output once per distinct content."""
        key = ("rank", _digest(path))
        if key not in self._verified:
            self._verified[key] = _rows_verdict(path, self.expected["rank"])
        return self._verified[key]

    def _verify_barcode(self, rank_path, barcode_path, negative_reported: bool):
        key = ("barcode", _digest(rank_path), _digest(barcode_path), negative_reported)
        if key not in self._verified:
            try:
                want, negative = oracles.decompose_expected(oracles.read_rank_rows(rank_path))
                got = oracles.read_barcode(barcode_path)
            except (OSError, ValueError) as e:
                self._verified[key] = (False, f"unreadable input or output: {e}")
            else:
                if got != want:
                    self._verified[key] = (False, "barcode differs from the finite difference")
                elif negative != negative_reported:
                    self._verified[key] = (False, f"negative-multiplicity warning {negative_reported}, expected {negative}")
                else:
                    self._verified[key] = (True, "")
        return self._verified[key]

    def cli_pass(self, cli, trace):
        w = self.work
        out = []
        res = cli.run(["rank", "in.fres", "-o", "out.rank"])
        ok, why = (False, f"exit {res.code}: {res.stderr.strip()}") if res.code else self._verify_rank(w / "out.rank")
        out.append(res.outcome("rank", ok, why))
        if trace:
            # the traced run re-runs only `rank` through the CLI: a second
            # `decompose-rectangles` would not fit the per-run time limit
            return out
        res = cli.run(["decompose-rectangles", "out.rank", "-o", "out.barcode"])
        if res.code:
            ok, why = False, f"exit {res.code}: {res.stderr.strip()}"
        else:
            warned = "negative multiplicities" in res.stderr
            ok, why = self._verify_barcode(w / "out.rank", w / "out.barcode", warned)
        out.append(res.outcome("decompose", ok, why))
        return out

    def traced_pass(self, cli, tracer):
        w = self.work
        return [
            _replay(
                cli, tracer, "rank", "rank_fres", ["in.fres", "traced.rank"],
                lambda _: _same_file(w / "traced.rank", w / "out.rank"),
            ),
            # decompose the CLI's own `.rank`, as the CLI pass does; with no
            # CLI `decompose-rectangles` in this run, check it by the oracle
            _replay(
                cli, tracer, "decompose", "decompose_rank", ["out.rank", "traced.barcode"],
                lambda clean: self._verify_barcode(w / "out.rank", w / "traced.barcode", not clean),
            ),
        ]


class CliqueWorkload(Workload):
    """Seeded clique-style bifiltrations, several sizes and inputs per size."""

    SIZES: tuple = ()       # (vertices, grid extent, edge probability, grid incidences or None)
    PER_SIZE = 1
    DEGREES = (0, 1)
    P = 2

    def prepare(self, seed, work, bp):
        self.work = work
        self.inputs = []
        for i, (nv, n, q, size) in enumerate(self.SIZES):
            for k in range(self.PER_SIZE):
                name = f"v{nv}-{k}"
                sub = seed * 1000 + 10 * i + k
                if size is None:
                    grades = inputs.clique_grades(sub, nv, n, n, q)
                else:
                    grades = inputs.sized_clique_grades(sub, nv, n, q, size)
                (work / f"{name}.bif").write_text(inputs.bif_text(grades, self.P))
                self.inputs.append(name)
                for d in self.DEGREES:
                    self.expected[(name, d)] = self.oracle(bp, grades, d)

    def oracle(self, bp, grades, degree):
        raise NotImplementedError


class CliqueCheck(CliqueWorkload):
    name = "clique-check"
    SIZES = ((16, 10, 0.4, 1040), (20, 12, 0.35, 1980))
    PER_SIZE = 2

    def oracle(self, bp, grades, degree):
        return oracles.check_expected(bp, grades, self.P, degree)

    def cli_pass(self, cli, trace):
        out = []
        self.cli_output = {}
        for name in self.inputs:
            for d in self.DEGREES:
                res = cli.run(["check-rectangle", f"{name}.bif", "--degree", str(d)])
                ok, why = _check_verdict(res, self.expected[(name, d)])
                self.cli_output[(name, d)] = (res.code, res.stdout, res.stderr)
                out.append(res.outcome(f"{name}-d{d}", ok, why))
        return out

    def _same_verdict(self, name, d, verdict) -> tuple[bool, str]:
        """The CLI's exit code, stdout and witness line, as the replay would print them."""
        ok, witness = verdict  # as JSON: witness is [s, t, reason]
        code, stdout, stderr = self.cli_output[(name, d)]
        same = (0 if ok else 2, "decomposable" if ok else "not-decomposable") == (code, stdout.strip())
        if same and not ok:
            s, t, reason = witness
            same = stderr.strip() == f"witness: s=({s[0] + 1},{s[1] + 1}) t=({t[0] + 1},{t[1] + 1}): {reason}"
        return same, "" if same else "traced verdict differs from the CLI's"

    def traced_pass(self, cli, tracer):
        return [
            _replay(
                cli, tracer, f"{name}-d{d}", "check_bif", [f"{name}.bif", d],
                lambda verdict: self._same_verdict(name, d, verdict),
            )
            for name in self.inputs
            for d in self.DEGREES
        ]


class CliqueRankBigP(CliqueWorkload):
    """Known to fail at the seed: `_prefix_rank_table` overflows int64 at this prime."""

    name = "clique-rank-bigp"
    SIZES = ((40, 20, 0.25, None),)
    PER_SIZE = 3
    P = BIG_PRIME

    def oracle(self, bp, grades, degree):
        return oracles.naive_rank_rows(bp, grades, self.P, degree)

    def cli_pass(self, cli, trace):
        out = []
        for name in self.inputs:
            for d in self.DEGREES:
                target = f"{name}-d{d}.rank"
                res = cli.run(["rank", f"{name}.bif", "--degree", str(d), "-o", target])
                if res.code:
                    ok, why = False, f"exit {res.code}: {res.stderr.strip()}"
                else:
                    ok, why = _rows_verdict(self.work / target, self.expected[(name, d)])
                out.append(res.outcome(f"{name}-d{d}", ok, why))
        return out

    def traced_pass(self, cli, tracer):
        w = self.work
        return [
            _replay(
                cli, tracer, f"{name}-d{d}", "rank_bif", [f"{name}.bif", d, "traced.rank"],
                lambda _: _same_file(w / "traced.rank", w / f"{name}-d{d}.rank"),
            )
            for name in self.inputs
            for d in self.DEGREES
        ]


WORKLOADS = {w.name: w for w in (Presentation50, CliqueCheck, CliqueRankBigP)}
