"""Shared plumbing: checkout paths, child processes, statistics, metric table.

The benchmark drives the program only from outside: ``python -m repro``
child processes for end-to-end numbers, and a handful of public library
calls (``Scenario``, ``run_experiment(s)``, ``validate_scenario``,
``result_digest``, ``resolve_many``, ``trace``/``metrics``,
``validate_envelope``) for set-up, correctness checks and the traced
breakdown.  Everything it writes lives under ``.bench_work/`` in the
checkout and is removed when a run ends.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: How long a child may take to exit after SIGTERM before it is killed.
STOP_GRACE_S = 30.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, dead child)."""


def require_program() -> None:
    """Point imports and temp files at this checkout, or fail.

    A directory holding only the benchmark has no ``src/repro``: the run
    must then exit non-zero without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from a checkout root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Trace shards and other temporaries stay inside the checkout.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)


def fresh_dir(prefix: str) -> Path:
    """A fresh directory under ``.bench_work/``."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def child_env() -> dict:
    """Environment for program children: this checkout's source, no chaos."""
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "ANYCAST_REPRO_NO_CACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    # Any path the program would default to stays inside the checkout too.
    env["ANYCAST_REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


#: Starts every program child; see its docstring for why.
LAUNCHER = BENCH_DIR / "launch.py"


@dataclass(slots=True)
class ChildRun:
    """One finished program child, as the launcher measured it."""

    wall_s: float  #: spawn to exit
    exit_code: int
    peak_rss_mb: float  #: largest resident set in the child's process tree


class Child:
    """A program child, started through ``launch.py`` in a process group of its own."""

    def __init__(self, cmd: list[str], result: Path, *, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL):
        self.result = result
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER), str(result), *cmd],
            env=child_env(), cwd=ROOT, stdout=stdout, stderr=stderr,
            start_new_session=True,
        )

    def kill(self) -> None:
        """SIGKILL the whole group: the launcher, the child and its workers."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout_s: float) -> ChildRun:
        """Reap the child; past ``timeout_s`` its group is killed and it counts as failed."""
        timer = threading.Timer(timeout_s, self.kill)
        timer.start()
        try:
            self.proc.wait()
        finally:
            timer.cancel()
            self.kill()  # anything of the group that outlived the launcher
        try:
            measured = json.loads(self.result.read_text())
        except (OSError, ValueError):
            return ChildRun(wall_s=timeout_s, exit_code=self.proc.returncode or -1,
                            peak_rss_mb=0.0)
        self.result.unlink()
        return ChildRun(**measured)

    def terminate(self) -> ChildRun:
        """SIGTERM (forwarded to the child) and reap; SIGKILL after :data:`STOP_GRACE_S`."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(STOP_GRACE_S)


def run_child(cmd: list[str], *, log: Path, timeout_s: float = 170.0) -> ChildRun:
    """Run one program child to completion; its stderr is appended to ``log``."""
    with open(log, "ab") as stderr:
        return Child(cmd, log.with_suffix(".result.json"), stderr=stderr).wait(timeout_s)


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def log_tail(path: Path, chars: int = 1500) -> str:
    """The end of a child's stderr log, for an error message (logs are removed)."""
    try:
        return path.read_text(errors="replace")[-chars:].strip()
    except OSError:
        return ""


@dataclass(slots=True)
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    values: dict  #: metric name -> number (end-to-end or per-layer)
    attempted: int
    failed: int
    problems: list  #: correctness failures, as messages
    diagnostics: dict
    digests: dict | None = None  #: experiment id -> result digest (batch)


# -- statistics ---------------------------------------------------------------

#: Percentiles the report may print as a distribution's tail.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 9) >= 10.0:
            return q
    return None


def summarize(values) -> dict:
    """Median, p90, p99 and the best-supported tail of a latency sample."""
    values = list(values)
    if not values:
        return {"n": 0}
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "tail_q": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


# -- the metric table ---------------------------------------------------------


def load_spec(path: Path = BENCHMARK_FILE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(trace: bool, spec: dict) -> list[dict]:
    """The metrics a run reports: every end-to-end one, or every per-layer one."""
    return spec["per_layer"] if trace else spec["end_to_end"]


def shape_metrics(values: dict, trace: bool, spec: dict) -> dict:
    """``{name: {"value", "unit"}}`` in table order; a missing name is a bug."""
    shaped = {}
    for row in metric_table(trace, spec):
        name = row["name"]
        if name not in values:
            raise BenchError(f"workload did not measure {name}")
        shaped[name] = {"value": float(values[name]), "unit": row["unit"]}
    return shaped


def commit_id() -> str | None:
    """The checkout's git commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None
