"""Parallel experiment runner with failure containment.

``run_experiments`` fans independent experiment ids out across a
:class:`~repro.engine.pool.MonitoredPool`.  Workers coordinate through
the shared on-disk artifact cache: the parent pre-warms the scenario's
substrate stages once (writing them to the cache), each worker then
loads them instead of rebuilding.  Results come back in input order and
are byte-identical regardless of worker count — every stage and
experiment is a deterministic function of ``(scale, seed, params,
code)``.

Failure semantics (serial and pooled paths agree):

* an experiment that raises — or whose worker process dies, or that
  blows the per-experiment ``timeout`` (pooled runs only) — is retried
  up to ``retries`` times with exponential backoff;
* an experiment still failing after that is **quarantined**: its slot in
  the returned list is ``None``, its
  :class:`~repro.engine.report.ExperimentRecord` carries a terminal
  ``status`` (``failed`` or ``timeout``) plus the last error, and the
  run completes with every other result intact instead of crashing;
* per-experiment ``status`` is one of ``ok`` / ``retried`` / ``failed``
  / ``timeout``; retry and quarantine totals land in the metrics
  registry (``engine.retries.total``, ``engine.quarantined.total``,
  ``engine.worker_crashes.total``, ``engine.timeouts.total``).

Durability (PR 5): pass ``journal=`` a
:class:`~repro.engine.journal.RunJournal` and every terminal outcome is
fsync'd to the run's write-ahead journal as it lands; a journal opened
with ``RunJournal.resume`` hydrates already-journaled results from the
artifact cache and only the remainder executes.  ``deadline=`` (wall
seconds), ``signals=True`` (SIGINT/SIGTERM), and the ``preempt`` fault
kind all trigger the same graceful drain: stop dispatching, give
in-flight attempts ``grace=`` seconds, mark the rest ``preempted``, and
return partial results (``ExperimentResults.preempt_reason`` set, the
CLI maps it to exit code 4).  A second signal hard-kills the process.

Chaos hooks: the :mod:`repro.faults` plan in force (installed, or via
``REPRO_FAULTS``) is forwarded to every worker, and the ``worker_crash``
chokepoint lives here — a real ``os._exit`` in pool workers, a
:class:`~repro.faults.WorkerCrash` exception in-process.  The
``preempt`` chokepoint is parent-side, evaluated per experiment id at
the dispatch point (serial and pooled dispatch both walk ids in input
order, so a given plan seed drains at the same experiment regardless of
worker count).

The pool uses the ``fork`` start method where available so workers share
the parent's interpreter state (including its hash seed, which keeps any
set-iteration order identical across workers).

Observability: the whole run is one ``engine.run`` span.  Pool workers
shard their spans into the tracer's shard directory (re-rooted under the
run span via :meth:`~repro.obs.trace.Tracer.adopt`) and ship a metrics
snapshot *delta* back with each attempt — failed attempts included, so
fault-fire and cache counters survive the retry path; the parent merges
the deltas so ``repro.obs.metrics`` totals match a serial run, and
attributes each worker task's wall time to the run span so exclusive
times keep telescoping across process boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as _signal
import time
from dataclasses import dataclass

from .. import faults
from ..obs import get_logger, metrics, trace
from .cache import ArtifactCache
from .pool import MonitoredPool
from .report import ExperimentRecord, RunReport

__all__ = ["ExperimentFailure", "ExperimentResults", "run_experiments"]

_log = get_logger("engine.runner")


class ExperimentFailure(RuntimeError):
    """A single requested experiment was quarantined.

    Raised by strict single-experiment entry points
    (:func:`repro.experiments.run_experiment`); batch callers inspect
    :attr:`ExperimentResults.failed_ids` instead.  Carries the terminal
    :class:`~repro.engine.report.ExperimentRecord` as ``record``.
    """

    def __init__(self, record: ExperimentRecord):
        self.record = record
        super().__init__(
            f"experiment {record.experiment_id!r} {record.status} after "
            f"{record.attempts} attempt(s): {record.error}"
        )


class ExperimentResults(list):
    """A list of :class:`ExperimentResult` plus the run's :class:`RunReport`.

    Quarantined experiments occupy their input-order slot as ``None``;
    ``report.experiments`` carries a status record for every id either way.
    """

    def __init__(self, results=(), report: RunReport | None = None):
        super().__init__(results)
        self.report = report if report is not None else RunReport()
        #: why the run drained early, or ``None`` for a run that finished.
        self.preempt_reason: str | None = None

    @property
    def statuses(self) -> dict[str, str]:
        """Experiment id → terminal status (``ok``/``retried``/``failed``/
        ``timeout``/``preempted``)."""
        return {r.experiment_id: r.status for r in self.report.experiments}

    @property
    def failed_ids(self) -> list[str]:
        """Ids that were quarantined, in input order."""
        return [
            r.experiment_id
            for r in self.report.experiments
            if r.status in ("failed", "timeout")
        ]

    @property
    def preempted_ids(self) -> list[str]:
        """Ids a drain cut short (re-executed by ``--resume``)."""
        return [
            r.experiment_id
            for r in self.report.experiments
            if r.status == "preempted"
        ]

    @property
    def preempted(self) -> bool:
        """True when the run drained before every experiment finished."""
        return bool(self.preempted_ids)

    @property
    def ok(self) -> bool:
        """True when no experiment was quarantined or preempted."""
        return not self.failed_ids and not self.preempted_ids


@dataclass(frozen=True, slots=True)
class _WorkerSpec:
    """Everything a worker needs to reconstruct the scenario."""

    params: object  #: ScenarioParams
    cache_root: str
    cache_enabled: bool
    trace_dir: str | None = None  #: tracer shard directory, None when tracing is off
    trace_parent: str | None = None  #: engine.run span id workers re-root under
    fault_plan: str | None = None  #: serialized FaultPlan, None when no chaos


_WORKER_SCENARIO = None


def _init_worker(spec: _WorkerSpec) -> None:
    global _WORKER_SCENARIO
    from ..experiments import Scenario

    trace.adopt(spec.trace_dir, spec.trace_parent)
    if spec.fault_plan is not None:
        faults.install(faults.FaultPlan.from_string(spec.fault_plan))
    else:
        faults.install(None)
    cache = ArtifactCache(root=spec.cache_root, enabled=spec.cache_enabled)
    _WORKER_SCENARIO = Scenario(params=spec.params, cache=cache)


def _run_in_worker(experiment_id: str, attempt: int):
    """One pooled attempt; returns ``(ok, payload)`` for the MonitoredPool.

    The payload always carries the stages this attempt materialised, the
    metrics the attempt moved (as a delta, so fork-inherited counts are
    not double-merged), and the attempt's wall time — even when the
    experiment itself failed, so the parent's RunReport and metric
    totals cover work done by failed attempts too.
    """
    from ..experiments import execute_experiment

    scenario = _WORKER_SCENARIO
    faults.set_attempt(attempt)
    stage_mark = len(scenario.report.stages)
    metrics_mark = metrics.snapshot()
    result, error = None, None
    with trace.span("engine.worker", experiment=experiment_id, attempt=attempt) as span:
        if faults.maybe_fire("worker_crash", experiment_id) is not None:
            os._exit(faults.CRASH_EXIT_CODE)  # a real worker death, not an exception
        try:
            result = execute_experiment(experiment_id, scenario)
        except Exception as err:
            error = f"{type(err).__name__}: {err}"
    if result is not None and result.report is not None:
        result.report.worker = os.getpid()
    delta = metrics.diff(metrics.snapshot(), metrics_mark)
    payload = (result, error, scenario.report.stages[stage_mark:], delta, span.dur_s)
    return error is None, payload


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _finalise_record(result, outcome, experiment_id) -> ExperimentRecord:
    """Fold an outcome's status/attempts into the experiment's record."""
    if result is not None and result.report is not None:
        record = result.report
    else:
        record = ExperimentRecord(
            experiment_id=experiment_id,
            wall_s=outcome.elapsed_s,
            cache_hit=False,
        )
    record.status = outcome.status
    record.attempts = outcome.attempts
    record.error = outcome.error
    return record


class _DrainState:
    """One sticky drain request shared by signal handler, deadline, and fault."""

    __slots__ = ("reason",)

    def __init__(self):
        self.reason: str | None = None

    @property
    def requested(self) -> bool:
        return self.reason is not None

    def request(self, reason: str) -> None:
        if self.reason is None:
            self.reason = reason
            _log.warning("drain requested: %s", reason)


def _hydrate_from_journal(journal, ids, scenario, report):
    """Replay journaled-ok results from the artifact cache (``--resume``).

    Returns ``{experiment_id: ExperimentResult}`` for every id whose
    journal record could be verified against the cache: the artifact
    must load, carry the current schema version, and hash to the
    journaled result digest.  Anything else silently falls through to
    re-execution — a resume never trusts bytes it cannot verify.
    """
    from ..experiments import ExperimentResult, RESULT_SCHEMA_VERSION
    from ..experiments.digest import result_digest

    hydrated = {}
    records = journal.completed_ok()
    for experiment_id in ids:
        record = records.get(experiment_id)
        if record is None:
            continue
        hit, cached = scenario.cache.load(scenario.stage_key(f"result__{experiment_id}"))
        if (
            not hit
            or not isinstance(cached, ExperimentResult)
            or cached.version != RESULT_SCHEMA_VERSION
        ):
            _log.warning(
                "resume: journaled %s not replayable from cache; re-running",
                experiment_id,
            )
            continue
        digest = record.get("digest")
        if digest is not None and result_digest(cached) != digest:
            _log.warning(
                "resume: cached %s does not match journaled digest; re-running",
                experiment_id,
            )
            continue
        size = scenario.cache.size_of(scenario.stage_key(f"result__{experiment_id}"))
        cached.report = ExperimentRecord(
            experiment_id=experiment_id,
            wall_s=0.0,
            cache_hit=True,
            size_bytes=size,
            status=record.get("status", "ok"),
            attempts=int(record.get("attempts", 1)),
        )
        report.add_experiment(cached.report)
        report.resumed += 1
        metrics.counter("engine.resumed_experiments.total").inc()
        hydrated[experiment_id] = cached
    return hydrated


def _journal_outcome(journal, scenario, experiment_id, *, status, attempts, result, error):
    """Append one terminal outcome to the run journal (fsync'd).

    Preempted outcomes are *not* journaled as experiment records — they
    are the remainder a resume re-executes; the drain itself lands as a
    single ``preempt`` record instead.
    """
    if journal is None or status == "preempted":
        return
    from ..experiments.digest import result_digest

    journal.record_experiment(
        experiment_id,
        status=status,
        attempts=attempts,
        digest=result_digest(result) if result is not None else None,
        artifact=scenario.stage_key(f"result__{experiment_id}").filename(),
        error=error,
    )


def _run_serial(ids, scenario, report, *, retries: int, backoff: float,
                drain=None, on_complete=None):
    """In-process execution with the same retry/quarantine semantics as the pool.

    ``worker_crash`` degrades to a :class:`~repro.faults.WorkerCrash`
    exception here (killing the only process would kill the run), and
    ``timeout`` is not enforced — hang containment needs a process to kill.
    ``drain`` is consulted before each dispatch and between retries; once
    it returns True the current and all remaining ids are marked
    ``preempted`` without running.
    """
    from ..experiments import execute_experiment
    from .pool import AttemptFailure, TaskOutcome

    results = []
    draining = False
    for index, experiment_id in enumerate(ids):
        outcome = TaskOutcome()
        result = None
        if not draining and drain is not None and drain(index):
            draining = True
        if draining:
            outcome.status = "preempted"
            metrics.counter("engine.preempted.total").inc()
            record = _finalise_record(None, outcome, experiment_id)
            report.add_experiment(record)
            if on_complete is not None:
                on_complete(experiment_id, outcome, None)
            results.append(None)
            continue
        while True:
            outcome.attempts += 1
            attempt = outcome.attempts - 1
            faults.set_attempt(attempt)
            stage_mark = len(scenario.report.stages)
            started = time.perf_counter()
            error = None
            try:
                if faults.maybe_fire("worker_crash", experiment_id) is not None:
                    raise faults.WorkerCrash(
                        f"injected worker_crash in {experiment_id} (attempt {attempt})"
                    )
                result = execute_experiment(experiment_id, scenario)
            except Exception as err:
                error = f"{type(err).__name__}: {err}"
            outcome.elapsed_s += time.perf_counter() - started
            report.stages.extend(scenario.report.stages[stage_mark:])
            if error is None:
                outcome.status = "retried" if outcome.attempts > 1 else "ok"
                break
            outcome.failures.append(AttemptFailure("error", error))
            if outcome.attempts <= retries:
                if drain is not None and drain(None):
                    # Draining: don't start another attempt; the resume
                    # re-runs this id from scratch.
                    draining = True
                    outcome.status = "preempted"
                    metrics.counter("engine.preempted.total").inc()
                    result = None
                    break
                metrics.counter("engine.retries.total").inc()
                delay = backoff * (2 ** (outcome.attempts - 1))
                _log.warning(
                    "experiment %s attempt %d failed (%s); retrying in %.2fs",
                    experiment_id, outcome.attempts, error, delay,
                )
                time.sleep(delay)
                continue
            outcome.status = "failed"
            metrics.counter("engine.quarantined.total").inc()
            _log.error(
                "experiment %s quarantined after %d attempts: %s",
                experiment_id, outcome.attempts, error,
            )
            result = None
            break
        faults.set_attempt(0)
        report.add_experiment(_finalise_record(result, outcome, experiment_id))
        if on_complete is not None:
            on_complete(experiment_id, outcome, result)
        results.append(result)
    return results


def run_experiments(
    experiment_ids,
    scenario=None,
    *,
    scale: str = "small",
    seed: int = 0,
    workers: int = 1,
    cache: ArtifactCache | None = None,
    prewarm: bool | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.05,
    journal=None,
    deadline: float | None = None,
    grace: float = 30.0,
    signals: bool = False,
) -> ExperimentResults:
    """Run many experiments, optionally fanned out across processes.

    Parameters
    ----------
    experiment_ids:
        Iterable of ids from ``list_experiments()``; results come back
        in the same order.  Unknown ids raise ``KeyError`` before
        anything runs.
    scenario:
        The :class:`Scenario` to run against.  When omitted, one is
        built from ``scale``/``seed``/``cache``.
    workers:
        ``1`` runs serially in-process; ``N > 1`` uses a monitored
        process pool that survives worker crashes and hangs.
    prewarm:
        Materialise the scenario's substrate stages in the parent (so
        workers hit the cache instead of each rebuilding the world).
        By default this happens when the cache is enabled and enough
        results miss it (≥ 8 ids) for the shared substrate to pay off.
    timeout:
        Per-experiment attempt deadline in seconds (pooled runs only —
        a hung worker is killed and the experiment retried).  ``None``
        disables the deadline.
    retries:
        How many times a failed/crashed/timed-out experiment is re-run
        before being quarantined.
    backoff:
        Base of the exponential retry delay (``backoff * 2**(attempt-1)``
        seconds).
    journal:
        A :class:`~repro.engine.journal.RunJournal` to make this run
        durable: journaled-ok experiments (from ``RunJournal.resume``)
        are hydrated from the artifact cache instead of re-executed, and
        every terminal outcome is fsync'd to the journal as it lands.
    deadline:
        Wall-clock budget in seconds for the whole call; when it expires
        the run drains gracefully and the remainder is ``preempted``.
    grace:
        How long in-flight pooled attempts may keep running once a drain
        starts before being abandoned.
    signals:
        Install SIGINT/SIGTERM handlers for the duration of the run: the
        first signal triggers the drain, a second hard-kills the process.
    """
    from ..experiments import Scenario, list_experiments

    ids = list(experiment_ids)
    known = set(list_experiments())
    for experiment_id in ids:
        if experiment_id not in known:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known: {', '.join(sorted(known))}"
            )
    if scenario is None:
        scenario = Scenario(scale=scale, seed=seed, cache=cache)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    report = RunReport()
    drain_state = _DrainState()
    deadline_at = time.monotonic() + deadline if deadline is not None else None

    with trace.span(
        "engine.run",
        ids=len(ids),
        workers=workers,
        scale=scenario.params.scale,
        seed=scenario.params.seed,
    ) as run_span:
        hydrated = (
            _hydrate_from_journal(journal, ids, scenario, report)
            if journal is not None
            else {}
        )
        run_ids = [experiment_id for experiment_id in ids if experiment_id not in hydrated]
        if hydrated:
            _log.info(
                "resume %s: hydrated %d journaled result(s), %d left to run",
                journal.run_id, len(hydrated), len(run_ids),
            )

        def drain_check(index):
            """Pool/serial dispatch hook: should the run start draining?

            ``index`` is the task about to dispatch (its preempt-fault
            chokepoint) or ``None`` for a pure state check.
            """
            if drain_state.requested:
                return True
            if deadline_at is not None and time.monotonic() >= deadline_at:
                drain_state.request(f"deadline ({deadline:g}s) expired")
                return True
            if index is not None:
                experiment_id = run_ids[index]
                if faults.maybe_fire("preempt", experiment_id) is not None:
                    drain_state.request(f"injected preempt before {experiment_id}")
                    return True
            return False

        def handle_signal(signum, frame):
            if drain_state.requested:
                os._exit(128 + signum)  # second signal: hard kill
            drain_state.request(f"signal {_signal.Signals(signum).name}")

        def on_complete(experiment_id, outcome, result):
            _journal_outcome(
                journal, scenario, experiment_id,
                status=outcome.status, attempts=outcome.attempts,
                result=result, error=outcome.error,
            )

        previous_handlers = {}
        if signals:
            try:
                for signum in (_signal.SIGINT, _signal.SIGTERM):
                    previous_handlers[signum] = _signal.signal(signum, handle_signal)
            except ValueError:  # pragma: no cover - not the main thread
                previous_handlers = {}
        try:
            if workers == 1 or len(run_ids) <= 1:
                _log.debug("running %d experiment(s) serially", len(run_ids))
                serial_results = _run_serial(
                    run_ids, scenario, report, retries=retries, backoff=backoff,
                    drain=drain_check, on_complete=on_complete,
                )
                executed = dict(zip(run_ids, serial_results))
            else:
                executed = _run_pooled(
                    run_ids, scenario, report, run_span,
                    workers=workers, prewarm=prewarm, timeout=timeout,
                    retries=retries, backoff=backoff, grace=grace,
                    drain=drain_check, on_complete=on_complete,
                )
        finally:
            for signum, handler in previous_handlers.items():
                _signal.signal(signum, handler)

        results = ExperimentResults(
            [hydrated[i] if i in hydrated else executed.get(i) for i in ids],
            report,
        )
        if results.preempted_ids:
            results.preempt_reason = drain_state.reason or "preempted"
            if journal is not None:
                journal.record_preempt(results.preempt_reason)
            _log.warning(
                "run preempted (%s): %d done, %d remaining",
                results.preempt_reason,
                len(ids) - len(results.preempted_ids),
                len(results.preempted_ids),
            )
        elif journal is not None:
            journal.complete(ok=not results.failed_ids)
        return results


def _run_pooled(
    run_ids, scenario, report, run_span, *,
    workers, prewarm, timeout, retries, backoff, grace, drain, on_complete,
):
    """Fan ``run_ids`` across a MonitoredPool; returns ``{id: result}``."""
    if prewarm is None:
        # Prewarming pays off when many experiments share the substrate;
        # for a handful of result misses, let each worker pull only what
        # it needs.  Cached results need no substrate at all.
        misses = sum(
            scenario.cache.size_of(scenario.stage_key(f"result__{experiment_id}")) is None
            for experiment_id in run_ids
        )
        prewarm = scenario.cache.enabled and misses >= 8
    if prewarm:
        stage_mark = len(scenario.report.stages)
        with trace.span("engine.prewarm"):
            scenario.prepare()
        report.stages.extend(scenario.report.stages[stage_mark:])

    plan = faults.active_plan()
    spec = _WorkerSpec(
        params=scenario.params,
        cache_root=str(scenario.cache.root),
        cache_enabled=scenario.cache.enabled,
        trace_dir=str(trace.shard_dir) if trace.enabled else None,
        trace_parent=run_span.span_id if trace.enabled else None,
        fault_plan=plan.to_string() if plan is not None else None,
    )
    _log.debug(
        "running %d experiments across %d workers (prewarm=%s, timeout=%s, retries=%d)",
        len(run_ids), min(workers, len(run_ids)), prewarm, timeout, retries,
    )

    def on_result(index, outcome):
        # Journal each terminal outcome the moment it lands (WAL
        # discipline: the worker's cache write is already fsync'd).
        experiment_id = run_ids[index]
        result = outcome.value[0] if outcome.value is not None else None
        if outcome.quarantined or outcome.status == "preempted":
            result = None
        on_complete(experiment_id, outcome, result)

    with MonitoredPool(
        min(workers, len(run_ids)),
        initializer=_init_worker,
        initargs=(spec,),
        task=_run_in_worker,
        mp_context=_pool_context(),
    ) as pool:
        outcomes = pool.run(
            [(experiment_id,) for experiment_id in run_ids],
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            drain=drain,
            grace=grace,
            on_result=on_result,
        )

    executed = {}
    for experiment_id, outcome in zip(run_ids, outcomes):
        result = None
        # Merge what every attempt shipped back — failed attempts
        # still contribute stage records, metric deltas, and wall
        # time, so the parent's view matches a serial run.
        payloads = []
        for failure in outcome.failures:
            if failure.payload is None:
                continue
            payloads.append(failure.payload)
            if failure.detail is None:
                failure.detail = failure.payload[1]  # the worker's exception string
        if outcome.value is not None:
            payloads.append(outcome.value)
        for payload in payloads:
            attempt_result, _, worker_stages, delta, task_dur_s = payload
            report.stages.extend(worker_stages)
            metrics.merge(delta)
            # The worker's top-level span ran under this run span (by
            # id); attribute its wall time here so Σ self_s still
            # telescopes to total wall time across processes.
            run_span.child_s += task_dur_s
            if attempt_result is not None:
                result = attempt_result
        if outcome.quarantined or outcome.status == "preempted":
            result = None
        report.add_experiment(_finalise_record(result, outcome, experiment_id))
        executed[experiment_id] = result
    return executed
