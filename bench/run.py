"""Run the benchmark: end-to-end metrics, or (``--trace 1``) the per-layer breakdown.

    python3 bench/run.py --workload all-cold --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --repeat 10 --out bench/results/set-a.json   # every workload

Each run prints a human-readable report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--out``
additionally writes a result document (machine, commit, every run with
its diagnostics and result digests) that ``bench/compare.py`` reads.
The exit code is 0 only when every run's outputs checked out and no
operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time

from harness import (
    BenchError,
    commit_id,
    load_spec,
    metric_table,
    require_program,
    shape_metrics,
)

WORKLOADS = ("all-cold", "all-warm", "serve-resolve", "serve-mixed")
#: A run that has not finished by now is abandoned (children are still reaped).
RUN_DEADLINE_S = 150


def _abandon(signum, frame):
    """SIGALRM (the run deadline) or SIGTERM: unwind so children are reaped."""
    reason = f"run exceeded {RUN_DEADLINE_S} s" if signum == signal.SIGALRM else "terminated"
    raise BenchError(reason)


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    import batch
    import serving

    if workload in ("all-cold", "all-warm"):
        if trace:
            return batch.traced(workload)
        return batch.all_cold(seconds) if workload == "all-cold" else batch.all_warm(seconds)
    if trace:
        return serving.traced(workload, seed, seconds)
    return serving.measure(workload, seed, seconds)


def _values(outcome, trace: bool, spec: dict) -> dict:
    """Every table metric; with ``trace``, layers a workload never touched read 0."""
    if not trace:
        return outcome.values
    names = [row["name"] for row in metric_table(True, spec)]
    unknown = set(outcome.values) - set(names)
    if unknown:
        raise BenchError(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {**dict.fromkeys(names, 0.0), **outcome.values}


def _report(workload: str, seed: int, metrics: dict, outcome) -> None:
    print(f"== {workload} (seed {seed}) ==")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in outcome.diagnostics.items():
        print(f"  [{name}] {json.dumps(value, default=float)}")
    for problem in outcome.problems:
        print(f"  INCORRECT: {problem}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: request schedules and samples derive from it")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run each workload K times, with seeds seed..seed+K-1")
    parser.add_argument("--out", default=None, metavar="FILE.json",
                        help="also write every run into a result document")
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    from repro.engine import code_version

    trace = bool(args.trace)
    document = {
        "commit": commit_id(),
        "code_version": code_version(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": [],
    }
    ok = True
    previous = {sig: signal.signal(sig, _abandon) for sig in (signal.SIGALRM, signal.SIGTERM)}
    try:
        for workload in args.workload or WORKLOADS:
            for seed in range(args.seed, args.seed + args.repeat):
                signal.alarm(RUN_DEADLINE_S)
                try:
                    outcome = run_one(workload, seed, args.seconds, trace)
                finally:
                    signal.alarm(0)
                metrics = shape_metrics(_values(outcome, trace, spec), trace, spec)
                correct = not outcome.problems
                ok = ok and correct and outcome.failed == 0
                _report(workload, seed, metrics, outcome)
                document["runs"].append({
                    "workload": workload,
                    "seed": seed,
                    "correct": correct,
                    "problems": outcome.problems,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "metrics": metrics,
                    "diagnostics": outcome.diagnostics,
                    "digests": outcome.digests,
                })
                print(json.dumps({
                    "correct": correct,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "metrics": metrics,
                }), flush=True)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, default=float)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
