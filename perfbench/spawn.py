"""Starts the benchmark's child processes and reports their wall time, CPU time and peak RSS.

Linux charges a child's `ru_maxrss` with the peak resident set of the
process that forked it, so children started straight from the benchmark
(which holds the oracles' tables) would report the benchmark's peak, not
their own.  This process stays small: it reads one JSON request per line
on stdin, runs the command with its stdout and stderr sent to files, and
answers one JSON line on stdout: exit code, wall time, CPU time (user +
system, all threads) and peak RSS.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=req["cwd"], env=req["env"],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
