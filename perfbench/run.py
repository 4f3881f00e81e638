"""Seeded end-to-end benchmark of the `bipersist` CLI, with a traced mode.

    python3 perfbench/run.py --workload presentation-50 --seed 808 --seconds 20 --trace 0

Run from a checkout of the repository: the CLI under test is the one in
`src/`, started as `python -m bipersist.cli` with `PYTHONPATH=src`.
Inputs are generated from the seed; the CLI sees only the files.

`--trace 0` is the closed loop with one client: the workload's commands
run one after another as child processes, each checked against an
independent oracle, in whole passes until `--seconds` of command time
is spent (at least one pass).  It reports the end-to-end metrics.

`--trace 1` runs one CLI pass and then replays the same commands under
the tracer (traced.py), each in a fresh process as the CLI runs, calling
the same library functions with a span around each layer.  It checks
that the replays' outputs equal the CLI's and reports each layer's self
time, the stage sizes, and the tracing overhead: replay CPU time minus
CLI CPU time, summed over the commands run both ways.  The spans and
counts go to `.bench_results/trace-<workload>-seed<seed>.json`.

Each run also writes `.bench_results/<workload>-seed<seed>-trace<t>.json`
with every command's time and verdict, the machine, and the source
revision.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
from runner import Cli, DeadlineExceeded  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # commands still running this long after start are killed

# Gated.  The times are CPU time (user + system, all threads, from
# `os.wait4`), not wall time: on a shared host the wall time of the same
# command grows by up to half while the host takes the vCPUs away (steal
# time), which CPU time leaves out.  The commands run one at a time; only
# `check-rectangle` runs threads, and its CPU time is about 10 % above its
# wall time.  The wall times are printed and stored next to them.
END_TO_END = {"setup_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}
# Reported and stored, not gated: the wall times `setup_wall_s`, `pass_s`
# and, per command kind (not every workload runs every command):
BY_COMMAND = {"rank": "rank_s", "decompose-rectangles": "decompose_s", "check-rectangle": "check_s"}

SPANS = (
    "resolution.read_fres",
    "bifiltration.read_bif",
    "resolution.free_resolution",
    "rank_dp.rank_from_resolution",
    "grid_module.rank_to_text",
    "grid_module.rank_from_text",
    "rect_decomp.decompose",
    "rect_decomp.barcode_to_text",
    "weakexact.kappa_iota_from_zigzags",
    "weakexact.check_rectangle_decomposable",
)
COUNTS = {
    "rank_dp.sweeps": "count",
    "rank_dp.sweep_columns": "count",
    "resolution.gens": "count",
    "resolution.rels": "count",
    "resolution.relrels": "count",
    "grid_module.rank_bytes": "bytes",
    "grid_module.table_bytes": "bytes",
    "rect_decomp.pairs": "count",
    "rect_decomp.rectangles": "count",
    "rect_decomp.negative": "count",
    "weakexact.zigzags": "count",
    "weakexact.stations": "count",
    "weakexact.pairs_scanned": "count",
}


def git_tree_id(path: Path) -> str:
    """Git's tree id for a directory, skipping what `.gitignore` names.

    It equals `git rev-parse <commit>:src` for the commit the files came
    from, so a run made outside a git repository still names its source.
    """
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.name.endswith((".pyc", ".egg-info")):
            continue
        if child.is_dir() and not child.is_symlink():
            if not any(child.iterdir()):
                continue
            mode, sha, key = "40000", git_tree_id(child), child.name + "/"
        else:
            data = os.readlink(child).encode() if child.is_symlink() else child.read_bytes()
            mode = "120000" if child.is_symlink() else ("100755" if os.access(child, os.X_OK) else "100644")
            sha, key = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest(), child.name
        entries.append((key.encode(), f"{mode} {child.name}".encode() + b"\0" + bytes.fromhex(sha)))
    body = b"".join(e for _, e in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def source_revision() -> dict:
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "src_tree": git_tree_id(SRC)}


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def probe_setup(cli) -> list[Outcome]:
    """No-work invocations: the time from process start to a ready CLI."""
    out = []
    for i in range(SETUP_PROBES):
        res = cli.run(["validate", "tiny.bif"])
        ok = res.code == 0 and res.stdout.strip() == "ok"
        out.append(res.outcome(f"validate-{i}", ok, "" if ok else f"exit {res.code}"))
    return out


def measure(wl, cli, seconds: float, probes: list) -> tuple[dict, dict, list]:
    passes = []
    spent = 0.0
    while True:
        outs = wl.cli_pass(cli, trace=False)
        passes.append(outs)
        took = sum(o.wall_s for o in outs)
        spent += took
        if spent + took > seconds or time.monotonic() + 1.5 * took > cli.deadline:
            break
    metrics = {
        "setup_s": statistics.median(o.cpu_s for o in probes),
        "pass_cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in passes),
        "peak_rss_mb": max(o.maxrss_mb for o in probes + sum(passes, [])),
    }
    extra = {
        "setup_wall_s": statistics.median(o.wall_s for o in probes),
        "pass_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
    }
    for kind, name in BY_COMMAND.items():
        if any(o.kind == kind for o in passes[0]):
            extra[name] = statistics.median(sum(o.wall_s for o in p if o.kind == kind) for p in passes)
    extra["passes"] = len(passes)
    return metrics, extra, probes + sum(passes, [])


def measure_traced(wl, cli) -> tuple[dict, dict, list]:
    """One CLI pass, then its traced replay, one fresh process per command."""
    cli_outs = wl.cli_pass(cli, trace=True)
    tracer = Tracer()
    replays = wl.traced_pass(cli, tracer)
    cli_cpu = {o.key: o.cpu_s for o in cli_outs}
    both = [r for r in replays if r.key in cli_cpu]
    overhead = sum(r.cpu_s - cli_cpu[r.key] for r in both)
    selfs = tracer.self_times()
    counts = tracer.all_counts()
    metrics = {f"{name}_s": selfs.get(name, 0.0) for name in SPANS}
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    metrics["trace.overhead_s"] = overhead
    trace = dict(tracer.to_json(), self_time_s=selfs, overhead_s=overhead,
                 overhead_commands=[r.key for r in both])
    return metrics, trace, cli_outs + replays


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return COUNTS.get(name, "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0, help="command time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "bipersist" / "cli.py").is_file():
        print(f"error: no bipersist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bipersist as bp

    if Path(bp.__file__).resolve().parent != SRC / "bipersist":
        print(f"error: imported bipersist from {bp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]()
    seed = wl.default_seed if args.seed is None else args.seed
    work = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    results = ROOT / ".bench_results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        (work / "tiny.bif").write_text(inputs.TINY_BIF)
        with Cli(SRC, work, started + RUN_LIMIT_S) as cli:
            try:
                probes = [] if args.trace else probe_setup(cli)
                t0 = time.perf_counter()
                wl.prepare(seed, work, bp)
                prepare_s = time.perf_counter() - t0
                if args.trace:
                    metrics, trace, outcomes = measure_traced(wl, cli)
                    extra = {}
                else:
                    metrics, extra, outcomes = measure(wl, cli, args.seconds, probes)
            except DeadlineExceeded as e:
                print(f"error: {e} was still running {RUN_LIMIT_S:.0f} s into the run", file=sys.stderr)
                return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failures = [o for o in outcomes if not o.ok]
    for o in failures:
        print(f"failed: {o.kind} {o.key}: {o.why}", file=sys.stderr)
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **source_revision(),
        "machine": machine(),
        "prepare_s": prepare_s,
        "metrics": metrics,
        **extra,
        "attempted": len(outcomes),
        "failed": len(failures),
        "commands": [vars(o) for o in outcomes],
    }
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        trace.update(workload=wl.name, seed=seed, src_tree=record["src_tree"])
        (results / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(trace) + "\n")

    print(f"workload {wl.name} seed {seed} trace {args.trace} src_tree {record['src_tree']}")
    for name, value in list(metrics.items()) + [(k, v) for k, v in extra.items() if k != "passes"]:
        print(f"{name} {value} {unit_of(name)}")
    print(f"ops {len(outcomes)} count")
    print(f"failed_ops {len(failures)} count")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
