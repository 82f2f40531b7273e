"""Experiment result container and the experiment table.

``run_experiment`` is the single-experiment entry point; it routes
through the same engine path as :func:`repro.engine.run_experiments`
(a one-element batch), so both populate ``result.report`` and the
scenario's :class:`RunReport` identically.  Both consult the scenario's
content-addressed artifact cache: a rerun of an experiment whose
``(id, scale, seed, params, code)`` key is already cached replays the
stored result instead of recomputing it.

:data:`EXPERIMENT_MODULES` names every experiment and the module that
defines it.  A runner module is imported only when its result misses the
cache, so listing experiments or replaying cached results never imports
the substrate.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from importlib import import_module

from .. import faults
from ..engine import ExperimentRecord
from ..obs import get_logger, metrics, trace
from .scenario import Scenario

__all__ = [
    "EXPERIMENT_MODULES",
    "RESULT_SCHEMA_VERSION",
    "ExperimentResult",
    "execute_experiment",
    "run_experiment",
    "list_experiments",
    "write_series_csv",
]

#: Bumped whenever the ExperimentResult field layout changes; cached
#: results carrying an older version are ignored and recomputed.
#: (v3: the ``experiment_id`` field was renamed to ``id``; v4: the
#: deprecated ``experiment_id`` alias was removed.)
RESULT_SCHEMA_VERSION = 4

_log = get_logger("engine.experiment")

#: Experiment id → the module under ``repro/experiments/`` that defines
#: it, as a function named after the id taking a :class:`Scenario`.
EXPERIMENT_MODULES: dict[str, str] = {
    "appc": "figures_local",
    "fig01": "figures_cdn",
    "fig02a": "figures_roots",
    "fig02b": "figures_roots",
    "fig03": "figures_roots",
    "fig04a": "figures_cdn",
    "fig04b": "figures_cdn",
    "fig05a": "figures_cdn",
    "fig05b": "figures_cdn",
    "fig06a": "figures_system",
    "fig06b": "figures_system",
    "fig07a": "figures_system",
    "fig07b": "figures_system",
    "fig08": "figures_roots",
    "fig09": "figures_roots",
    "fig10": "figures_roots",
    "fig11a": "figures_roots",
    "fig11b": "figures_roots",
    "fig12": "figures_local",
    "fig13": "figures_local",
    "fig14": "figures_cdn",
    "table1": "tables",
    "table2": "tables",
    "table3": "tables",
    "table4": "tables",
    "table5": "figures_local",
    "whatif01": "whatif",
}


@dataclass(slots=True)
class ExperimentResult:
    """What one table/figure reproduction produced.

    ``sections`` carry the human-readable rows/series the paper reports;
    ``data`` carries the machine-readable key numbers tests and
    EXPERIMENTS.md assert on; ``report`` carries the engine's
    observability record (wall time, cache hit/miss) for this run.
    """

    id: str
    title: str
    sections: list[tuple[str, str]] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    #: plottable line series: line label → [(x, y), ...] — the exact
    #: points a figure would draw.
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    version: int = RESULT_SCHEMA_VERSION
    report: ExperimentRecord | None = None

    def add(self, heading: str, body: str) -> None:
        self.sections.append((heading, body))

    def add_series(self, label: str, points: list[tuple[float, float]]) -> None:
        self.series[label] = points

    def to_text(self) -> str:
        lines = [f"== {self.id}: {self.title} =="]
        for heading, body in self.sections:
            lines.append(f"-- {heading} --")
            lines.append(body)
        return "\n".join(lines)


def write_series_csv(result: ExperimentResult, directory: str) -> list[str]:
    """Write each line series of ``result`` to ``directory`` as CSV.

    Returns the written paths.  File names are
    ``<experiment>__<line>.csv`` with a sanitised line label.
    """
    if not result.series:
        return []
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    for label, points in result.series.items():
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in label)
        path = os.path.join(directory, f"{result.id}__{safe}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            writer.writerows(points)
        written.append(path)
    return written


def execute_experiment(experiment_id: str, scenario: Scenario) -> ExperimentResult:
    """The engine's execution core: run one experiment, cache-aware.

    Results are content-addressed like any other stage: when the
    scenario's cache already holds a result for ``(experiment_id, scale,
    seed, params, code)``, that result is replayed without touching the
    substrate.  Either way the returned result carries a fresh
    ``.report`` record and the run is appended to ``scenario.report``.
    Only a miss imports the experiment's module.

    Both :func:`run_experiment` and
    :func:`repro.engine.run_experiments` (serial and pooled) funnel
    through this one function, so report population is identical no
    matter which entry point is used.
    """
    if experiment_id not in EXPERIMENT_MODULES:
        known = ", ".join(list_experiments())
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")

    with trace.span(
        f"experiment.{experiment_id}", kind="experiment", experiment=experiment_id
    ) as span:
        # Chaos chokepoints: an injected hang stalls here (the engine's
        # per-experiment timeout is what contains it); an injected
        # exception takes the same path a genuinely buggy experiment would.
        hang = faults.maybe_fire("worker_hang", experiment_id)
        if hang is not None:
            time.sleep(hang.delay())
        if faults.maybe_fire("worker_exception", experiment_id) is not None:
            raise faults.InjectedFault(
                f"injected worker_exception in {experiment_id} "
                f"(attempt {faults.current_attempt()})"
            )
        key = scenario.stage_key(f"result__{experiment_id}")

        def _usable(hit, cached):
            return (
                hit
                and isinstance(cached, ExperimentResult)
                and cached.version == RESULT_SCHEMA_VERSION
            )

        hit, cached = scenario.cache.load(key)
        if _usable(hit, cached):
            result = cached
            size = scenario.cache.size_of(key)
        else:
            # Single-flight across processes (double-checked locking):
            # a concurrent invocation computing the same result key
            # blocks here, then replays the winner's artifact.
            with scenario.cache.lock(key):
                hit, cached = scenario.cache.load(key)
                if _usable(hit, cached):
                    result = cached
                    size = scenario.cache.size_of(key)
                else:
                    hit = False
                    module = import_module(
                        f".{EXPERIMENT_MODULES[experiment_id]}", __package__
                    )
                    result = getattr(module, experiment_id)(scenario)
                    size = scenario.cache.store(key, result)
        span.set(cache_hit=hit, size_bytes=size)
        metrics.counter("engine.experiments.total").inc()
        if hit:
            metrics.counter("engine.experiments.cache_hits.total").inc()
    record = ExperimentRecord.from_span(span)
    result.report = record
    scenario.report.add_experiment(record)
    _log.debug(
        "experiment %s: %s in %.3fs", experiment_id, "replayed" if hit else "ran", span.dur_s
    )
    return result


def run_experiment(experiment_id: str, scenario: Scenario) -> ExperimentResult:
    """Run one experiment against a scenario.

    A thin wrapper over the engine: equivalent to
    ``run_experiments([experiment_id], scenario)[0]``, so the returned
    result's ``report`` is populated exactly as the batch entry point
    would.  Unlike the batch entry point — which degrades to partial
    results — this strict single-experiment form raises
    :class:`~repro.engine.ExperimentFailure` if the experiment is
    quarantined after the engine's retries.
    """
    from ..engine import ExperimentFailure, run_experiments

    results = run_experiments([experiment_id], scenario)
    if results[0] is None:
        raise ExperimentFailure(results.report.experiments[-1])
    return results[0]


def list_experiments() -> list[str]:
    return sorted(EXPERIMENT_MODULES)
