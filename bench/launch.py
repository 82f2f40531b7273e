"""Run one command; record its wall time, exit code and peak resident set.

    python3 -S bench/launch.py RESULT.json CMD [ARG ...]

A process's ``ru_maxrss`` starts from the resident set of the process
that spawned it, and the benchmark's own process holds whole scenarios.
So program children are started from this small process, which waits
for the child with ``os.wait4`` (the maximum over the child and every
descendant it reaped) and writes ``{"wall_s", "exit_code",
"peak_rss_mb"}`` to RESULT.json.  SIGTERM is forwarded to the child.
Only the standard library is imported, to keep this process small.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    result_path, command = sys.argv[1], sys.argv[2:]
    child = None

    def forward(signum, frame):
        if child is not None:
            child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    started = time.perf_counter()
    child = subprocess.Popen(command)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "exit_code": child.returncode,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
