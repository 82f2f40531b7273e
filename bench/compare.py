"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py bench/results/set-a.json bench/results/set-b.json

For every (workload, end-to-end metric) it prints each set's median and
quartiles next to the metric's bound from ``BENCHMARK.json``, and flags

* ``differs``: the medians are further apart than the bound, in either
  direction (two sets of one commit should agree);
* ``unresolved``: a set's spread (interquartile range over median)
  exceeds the bound, so the bound cannot separate a change from noise.
  Set-up time is judged on its medians only: a boot is short and its
  spread is wide, which is why it carries the largest bound.

It also requires every run to have checked out correct, identical
result-digest maps in both sets (the batch world does not depend on the
workload seed, so every map must match), and the same failed fraction
per workload.  The exit code is 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from harness import load_spec

#: Metrics whose sets are compared by median alone, never called unresolved.
MEDIAN_ONLY = ("setup_s",)


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _by_workload(document: dict) -> dict:
    grouped: dict = {}
    for run in document["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare(a: dict, b: dict, spec: dict) -> tuple[list, list]:
    """Returns (table rows, problems); no problems means the sets agree."""
    rows, problems = [], []
    runs_a, runs_b = _by_workload(a), _by_workload(b)
    for workload in sorted(set(runs_a) ^ set(runs_b)):
        problems.append(f"{workload}: present in only one set")
    for document, label in ((a, "A"), (b, "B")):
        for run in document["runs"]:
            if not run["correct"]:
                problems.append(f"set {label} {run['workload']} seed {run['seed']}: incorrect")
    for workload in sorted(set(runs_a) & set(runs_b)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [run["metrics"][name]["value"] for run in runs_a[workload]]
            vb = [run["metrics"][name]["value"] for run in runs_b[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            verdict = "ok"
            if name not in MEDIAN_ONLY and max(spread(va), spread(vb)) > bound:
                verdict = "unresolved"
            elif abs(delta) > bound:
                verdict = "differs"
            rows.append((workload, name, metric["unit"], qa, qb, delta, bound, verdict))
            if verdict != "ok":
                problems.append(f"{workload} {name}: {verdict} ({delta:+.1%}, bound {bound:.0%})")
        frac_a = _failed_fraction(runs_a[workload])
        frac_b = _failed_fraction(runs_b[workload])
        if frac_a != frac_b:
            problems.append(f"{workload}: failed fraction {frac_a:g} vs {frac_b:g}")
    maps = [json.dumps(run["digests"], sort_keys=True)
            for document in (a, b) for run in document["runs"] if run.get("digests")]
    if len(set(maps)) > 1:
        problems.append(f"result digest maps differ ({len(set(maps))} distinct)")
    return rows, problems


def _failed_fraction(runs: list) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def render(rows: list) -> str:
    lines = [f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'delta':>8} {'bound':>6}  verdict"]
    for workload, name, unit, qa, qb, delta, bound, verdict in rows:
        cell_a = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] {unit}"
        cell_b = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {unit}"
        lines.append(f"{workload:<14} {name:<18} {cell_a:>30} {cell_b:>30} "
                     f"{delta:>+8.1%} {bound:>6.0%}  {verdict}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two bench result sets")
    parser.add_argument("a", help="baseline result document")
    parser.add_argument("b", help="result document to compare against it")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, problems = compare(*documents, load_spec())
    print(render(rows))
    for problem in problems:
        print(f"DISAGREE: {problem}")
    print("sets agree" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
