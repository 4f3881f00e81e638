"""Runs `bipersist` CLI commands as child processes, one at a time.

Each command is timed from spawn to exit, and its CPU time and peak
resident set come from `os.wait4`; both are taken in the small `spawn.py` process
(see there why).  A command still running at the run's deadline is
killed and the run stops, so one run always ends in time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Outcome

HERE = Path(__file__).resolve().parent


@dataclass
class CommandResult:
    kind: str
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float

    def outcome(self, key: str, ok: bool, why: str) -> Outcome:
        return Outcome(key, self.kind, self.wall_s, self.cpu_s, self.maxrss_mb, ok, why)


class DeadlineExceeded(Exception):
    pass


class Cli:
    """The CLI under test, started through one `spawn.py` process; close() ends it."""

    def __init__(self, src, work, deadline: float):
        self.work = work
        self.deadline = deadline  # time.monotonic() value
        # numpy's BLAS pool is held to one thread.  The program's linear
        # algebra is over Z/p in int64, which BLAS never runs; the pool's
        # only effect is a helper thread spinning about 0.1 s after import,
        # on the second core when it is free, which makes a command's CPU
        # time (and start-up wall time) depend on the other tenants' load.
        self.env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        self.argv = [sys.executable, "-m", "bipersist.cli"]
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, args: list[str]) -> CommandResult:
        """One `bipersist` subcommand."""
        return self._spawn(args[0], self.argv + args)

    def replay(self, tracer, name: str, args: list[str]):
        """One traced replay (see traced.py) in a fresh process, as the CLI runs.

        Merges its spans and counts into `tracer`.  Returns the command
        result and the replay's record: {"result": ...} or {"error": ...}.
        """
        record_path = self.work / "replay.json"
        record_path.unlink(missing_ok=True)
        res = self._spawn("replay", [sys.executable, str(HERE / "traced.py"), str(record_path), name] + args)
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = {"error": f"exit {res.code}, no replay record: {res.stderr.strip()}"}
        if "error" not in record:
            tracer.merge(record.pop("trace"))
        return res, record

    def _spawn(self, kind: str, argv: list[str]) -> CommandResult:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(kind)
        out_path, err_path = self.work / "cmd.stdout", self.work / "cmd.stderr"
        request = {"argv": argv, "cwd": str(self.work), "env": self.env, "timeout": remaining,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        if reply["code"] < 0 and time.monotonic() >= self.deadline:
            raise DeadlineExceeded(kind)
        return CommandResult(
            kind, reply["code"],
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
            reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024.0,
        )
