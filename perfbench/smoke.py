"""Fast self-test of the benchmark on tiny inputs (seconds, not minutes).

    python3 perfbench/smoke.py

Checks that the generators and every workload's input files are
deterministic per seed, that the presentation generator reproduces the
acceptance suite's 50x50 fixture at its default seed, that every tiny
workload's CLI outputs pass their oracles (except the large-prime rank
workload, whose DP is known to overflow), that the traced replays'
outputs equal the CLI's, and that the traced counts repeat exactly
across two runs.  Exits 1 on failure.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
from pathlib import Path

import inputs
import run
import workloads
from run import ROOT, SRC, measure, measure_traced
from runner import Cli

# sha256 of tests/test_acceptance.py::_perf_fixture_text()
FIXTURE_SHA256 = "1bdc95098274611368f8a429478cdb78b92146b0fb75572eb418315cf6f21c8a"


class TinyPresentation(workloads.Presentation50):
    N, GENS, RELS = 6, 12, 12


class TinyCheck(workloads.CliqueCheck):
    SIZES = ((6, 4, 0.6, None), (7, 5, 0.5, 60))


class TinyRankBigP(workloads.CliqueRankBigP):
    SIZES = ((7, 5, 0.5, None),)
    PER_SIZE = 2


def check_generators(failures: list) -> None:
    text = inputs.presentation()[0]
    if hashlib.sha256(text.encode()).hexdigest() != FIXTURE_SHA256:
        failures.append("presentation() at seed 808 is not the acceptance fixture")
    for seed in (1, 2):
        if inputs.presentation(seed, 6, 12, 12) != inputs.presentation(seed, 6, 12, 12):
            failures.append(f"presentation generator not deterministic at seed {seed}")
        if inputs.clique_grades(seed, 12, 6, 6, 0.4) != inputs.clique_grades(seed, 12, 6, 6, 0.4):
            failures.append(f"clique generator not deterministic at seed {seed}")
    if inputs.clique_grades(1, 12, 6, 6, 0.4) == inputs.clique_grades(2, 12, 6, 6, 0.4):
        failures.append("clique generator ignores its seed")


def check_workload(wl_class, bp, failures: list, oracle_must_pass: bool) -> None:
    counts, files = [], []
    for attempt in range(2):
        wl = wl_class()
        work = ROOT / ".bench_work" / f"smoke-{wl.name}-{attempt}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl.prepare(3, work, bp)
            files.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in work.iterdir()})
            (work / "tiny.bif").write_text(inputs.TINY_BIF)
            with Cli(SRC, work, time.monotonic() + 120) as cli:
                _, _, outcomes = measure(wl, cli, 0.0, run.probe_setup(cli))
                metrics, _, traced_outcomes = measure_traced(wl, cli)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if not any(work.parent.iterdir()):
                work.parent.rmdir()
        for o in outcomes + traced_outcomes:
            if not o.ok and (oracle_must_pass or o.kind in ("replay", "validate")):
                failures.append(f"{wl.name}: {o.kind} {o.key}: {o.why}")
        counts.append({k: v for k, v in metrics.items() if k in run.COUNTS})
    if files[0] != files[1]:
        failures.append(f"{wl_class.name}: inputs differ between two runs with one seed")
    if counts[0] != counts[1]:
        failures.append(f"{wl_class.name}: counts differ between runs: {counts}")
    if not any(counts[0].values()):
        failures.append(f"{wl_class.name}: no counts recorded")


def main() -> int:
    run.SETUP_PROBES = 2
    sys.path.insert(0, str(SRC))
    import bipersist as bp

    failures: list[str] = []
    check_generators(failures)
    check_workload(TinyPresentation, bp, failures, oracle_must_pass=True)
    check_workload(TinyCheck, bp, failures, oracle_must_pass=True)
    check_workload(TinyRankBigP, bp, failures, oracle_must_pass=False)
    for f in failures:
        print(f"FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
