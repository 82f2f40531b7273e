"""Command-line interface.

Examples::

    anycast-repro list
    anycast-repro run fig02a --scale small
    anycast-repro all --scale medium --workers 4 --report
    anycast-repro all --scale medium --out results.txt
    anycast-repro run fig02a --trace trace.jsonl --metrics metrics.json
    anycast-repro inspect trace.jsonl
    anycast-repro summary
    anycast-repro serve --scale small --port 8459 --workers 2
    anycast-repro serve --trace daemon.jsonl --access-log access.jsonl

Heavy substrates and experiment results are cached on disk (default
``~/.cache/anycast-repro``); rerunning any experiment is near-instant.
Use ``--cache-dir`` / ``--no-cache`` (or ``ANYCAST_REPRO_CACHE_DIR`` /
``ANYCAST_REPRO_NO_CACHE=1``) to control the cache.

Observability: ``--trace FILE.jsonl`` records every span the run opened
(merged across worker processes), ``--metrics FILE.json`` dumps the
metrics registry, ``repro inspect FILE`` analyses a recorded trace or a
serve access log (it sniffs which), ``-v`` turns on DEBUG logging for
the ``repro`` logger tree, and ``--log-json`` switches that logging to
one JSON object per line (with the request's trace id attached inside
the daemon).  ``repro serve`` adds ``--trace`` (request-rooted span
trees, merged across the worker pool at shutdown), ``--access-log``
(one JSON record per request), and ``GET /v1/debug/{tracez,statusz,
vars}``.  Benchmarks run from outside the package: ``python3
bench/run.py`` (see ``bench/README.md``).

Failure semantics: experiments that crash, raise, or blow ``--timeout``
are retried ``--retries`` times with exponential backoff, then
quarantined — the run completes with every other result intact.  Chaos
drills are driven by ``--inject SPEC`` (repeatable) or the
``REPRO_FAULTS`` environment variable, e.g.
``--inject worker_crash:p=0.3:seed=1``.

Durable runs: ``run``/``all`` journal every completed experiment into a
run directory (default ``<cache>/runs/<run-id>``; ``--run-dir`` to
override, ``--no-journal`` to opt out).  SIGINT/SIGTERM — or an expired
``--deadline`` — drains the run gracefully: in-flight experiments get
``--grace`` seconds to finish, the journal is flushed, and the process
exits 4 with a printed ``--resume RUN_ID`` hint; a second signal
hard-kills.  ``repro runs`` lists run directories, ``repro runs gc``
prunes completed ones.

Service mode: ``repro serve`` turns the library into a long-running
HTTP daemon answering resolve/catchment/inflation/what-if queries under
``/v1/`` (see docs/API.md, *Service API*).  Machine-readable outputs —
``run --json`` and every ``/v1`` JSON response — share one versioned
envelope (``repro.serve.schema``, checked against
``docs/serve.schema.json``).

Exit codes: 0 success · 1 I/O error (unwritable ``--out``/``--csv``/
``--trace``/``--metrics``/``--access-log``, unbindable ``serve`` port)
· 2 usage (unknown command/experiment, ``--resume`` mismatch) · 3 one
or more experiments quarantined (partial results were produced) · 4
run preempted / serve grace expired (journal written; resumable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import faults
from .engine import (
    ArtifactCache,
    ExperimentFailure,
    JournalError,
    JournalMismatch,
    RunJournal,
    default_cache_dir,
    new_run_id,
    run_experiments,
    runs_root,
)
from .experiments import Scenario, list_experiments, run_experiment, write_series_csv
from .obs import configure_logging, metrics, rss_peak_bytes, trace
from .obs.inspect import looks_like_access_log, render_access_log, render_trace
from .obs.trace import load_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anycast-repro",
        description=(
            "Reproduce the tables and figures of 'Anycast in Context: "
            "A Tale of Two Systems' (SIGCOMM 2021) on a synthetic Internet."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_verbose_arg(sub.add_parser("list", help="list available experiments"))

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. fig02a")
    run.add_argument("--json", action="store_true",
                     help="emit the machine-readable data dict as JSON")
    run.add_argument("--csv", metavar="DIR",
                     help="also write the figure's line series as CSVs")
    run.add_argument("--plot", action="store_true",
                     help="render the figure's line series as a terminal chart")
    run.add_argument("--report", action="store_true",
                     help="print the engine's per-stage RunReport afterwards")
    _add_scenario_args(run)
    _add_obs_args(run)
    _add_resilience_args(run)
    _add_durability_args(run)

    everything = sub.add_parser("all", help="run every experiment")
    _add_scenario_args(everything)
    _add_obs_args(everything)
    _add_resilience_args(everything)
    _add_durability_args(everything)
    everything.add_argument("--out", help="write the report to this file")
    everything.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                            help="fan experiments out across N processes")
    everything.add_argument("--report", action="store_true",
                            help="print the engine's per-stage RunReport afterwards")

    inspect = sub.add_parser(
        "inspect",
        help="analyse a --trace span file or a serve --access-log file",
    )
    inspect.add_argument("trace",
                         help="merged trace JSONL or access-log JSONL file")
    inspect.add_argument("--top", type=_positive_int, default=10, metavar="N",
                         help="how many slowest spans/requests to list (default 10)")
    _add_verbose_arg(inspect)

    summary = sub.add_parser("summary", help="key headline numbers only")
    _add_scenario_args(summary)

    drills = sub.add_parser(
        "drills",
        help="extension studies: failure, hijack, RFC 8806, unicast",
    )
    _add_scenario_args(drills)

    validate = sub.add_parser(
        "validate",
        help="check every qualitative claim of the paper against this world",
    )
    _add_scenario_args(validate)

    daemon = sub.add_parser(
        "serve", help="long-running HTTP service answering /v1 queries"
    )
    _add_scenario_args(daemon)
    daemon.add_argument("--host", default="127.0.0.1",
                        help="address to bind (default 127.0.0.1)")
    daemon.add_argument("--port", type=int, default=8459, metavar="P",
                        help="TCP port to listen on (default 8459; 0 = ephemeral)")
    daemon.add_argument("--workers", type=int, default=2, metavar="N",
                        help="query worker processes forked after warm-up, "
                             "and as many concurrent queries; the rest wait "
                             "in the admission queue (default 2; 0 = one "
                             "in-process thread)")
    daemon.add_argument("--grace", type=float, default=30.0, metavar="SECONDS",
                        help="drain window for in-flight requests on "
                             "SIGTERM/SIGINT (default 30)")
    daemon.add_argument("--max-queue", type=int, default=64, metavar="N",
                        help="admission-queue depth; requests beyond it are "
                             "shed with 429 + Retry-After (default 64)")
    daemon.add_argument("--breaker-threshold", type=int, default=5, metavar="N",
                        help="consecutive pool failures that open the circuit "
                             "breaker and switch to degraded in-process "
                             "answers (default 5)")
    daemon.add_argument("--breaker-cooldown", type=float, default=30.0,
                        metavar="SECONDS",
                        help="seconds the breaker stays open before a "
                             "half-open probe tries the pool again (default 30)")
    daemon.add_argument("--deadline-ms", type=int, default=None, metavar="MS",
                        help="override every per-endpoint compute-budget "
                             "default (clients can still set X-Deadline-Ms "
                             "per request)")
    daemon.add_argument(
        "--inject", metavar="SPEC", action="append", default=None,
        help="inject a deterministic fault, e.g. slow_request:s=2 "
             "(repeatable; also honours the REPRO_FAULTS env var)",
    )
    daemon.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="trace the daemon: request-rooted span trees, merged "
             "across pool workers into FILE at shutdown",
    )
    daemon.add_argument(
        "--access-log", metavar="FILE.jsonl", default=None,
        help="append one JSON record per request (feed to repro inspect)",
    )

    runs = sub.add_parser(
        "runs", help="list run directories (journals), or prune completed ones"
    )
    runs.add_argument(
        "action", nargs="?", choices=("list", "gc"), default="list",
        help="list (default) shows every run with its status; gc prunes "
             "completed run directories",
    )
    runs.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache root whose runs/ directory to scan "
             "(default ~/.cache/anycast-repro)",
    )
    _add_verbose_arg(runs)

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_verbose_arg(parser: argparse.ArgumentParser) -> None:
    # On every subparser (not the main parser): a subparser's default
    # would otherwise overwrite a pre-subcommand -v during parse_args.
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="DEBUG logging for the repro logger tree",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="structured logging: one JSON object per line on stderr "
             "(ts, level, logger, msg, trace_id when serving a request)",
    )


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    _add_verbose_arg(parser)
    parser.add_argument(
        "--scale", choices=("small", "medium"), default="small",
        help="world size: small (seconds) or medium (paper scale, minutes)",
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact cache location (default ~/.cache/anycast-repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk artifact cache for this run",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject", metavar="SPEC", action="append", default=None,
        help="inject a deterministic fault, e.g. worker_crash:p=0.3:seed=1 "
             "(repeatable; also honours the REPRO_FAULTS env var)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment attempt deadline (pooled runs kill and retry "
             "hung workers; unset = unbounded)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-runs before a failing experiment is quarantined (default 2)",
    )


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="run directory for the write-ahead journal "
             "(default <cache>/runs/<run-id>)",
    )
    parser.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="resume a preempted run: skip journaled-ok experiments and "
             "execute only the remainder",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on expiry the run drains gracefully and "
             "exits 4 (resumable)",
    )
    parser.add_argument(
        "--grace", type=float, default=30.0, metavar="SECONDS",
        help="how long in-flight experiments may finish once a drain "
             "starts (default 30)",
    )
    parser.add_argument(
        "--no-journal", action="store_true",
        help="disable the write-ahead run journal for this invocation",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="record every span of this run into a merged trace file",
    )
    parser.add_argument(
        "--metrics", metavar="FILE.json", default=None,
        help="dump the metrics registry (counters/gauges/histograms) as JSON",
    )


def _build_scenario(args: argparse.Namespace) -> Scenario:
    cache = ArtifactCache(root=args.cache_dir, enabled=not args.no_cache)
    return Scenario(scale=args.scale, seed=args.seed, cache=cache)


#: The headline claims the paper leads with, as (experiment, key, label).
_HEADLINES = (
    ("fig02a", "all/frac_any_inflation", "root users with some geographic inflation"),
    ("fig02b", "all/frac_over_100ms", "root users >100 ms latency inflation (All Roots)"),
    ("fig03", "cdn/median", "median root queries per user per day"),
    ("fig05a", "R110/zero_mass", "CDN users with zero geographic inflation (R110)"),
    ("fig05b", "R110/frac_under_100ms", "CDN users <100 ms latency inflation (R110)"),
    ("fig06a", "CDN/share_2as", "2-AS paths to the CDN"),
    ("appc", "lower_bound", "RTTs per page load (lower bound)"),
)


def _print_report(report) -> None:
    """The single choke point both ``run --report`` and ``all --report`` use."""
    print()
    print(report.to_text())


def _print_failures(results) -> None:
    """Describe every quarantined experiment on stderr."""
    for record in results.report.quarantined:
        print(
            f"experiment {record.experiment_id} {record.status} after "
            f"{record.attempts} attempt(s): {record.error}",
            file=sys.stderr,
        )


def _open_journal(args: argparse.Namespace, scenario: Scenario, ids):
    """Create or resume the run journal; returns ``(journal, exit_code)``.

    ``exit_code`` is ``None`` on success; a failed ``--resume`` (header
    mismatch, missing journal) reports on stderr and returns 2.
    Journaling is on by default whenever the cache is enabled — without
    the cache there is nothing to hydrate a resume from, so a plain run
    skips it unless ``--run-dir`` asks for one explicitly.
    """
    if args.no_journal:
        if args.resume:
            print("--resume and --no-journal are contradictory", file=sys.stderr)
            return None, 2
        return None, None
    if args.resume:
        run_dir = Path(args.run_dir) if args.run_dir else (
            runs_root(scenario.cache.root) / args.resume
        )
        try:
            return RunJournal.resume(run_dir, scenario, ids), None
        except JournalMismatch as error:
            print(f"--resume refused: {error}", file=sys.stderr)
            return None, 2
        except JournalError as error:
            print(f"--resume failed: {error}", file=sys.stderr)
            return None, 2
    if not scenario.cache.enabled and args.run_dir is None:
        return None, None
    run_id = new_run_id()
    run_dir = Path(args.run_dir) if args.run_dir else (
        runs_root(scenario.cache.root) / run_id
    )
    try:
        return RunJournal.create(run_dir, scenario, ids, run_id=run_id), None
    except (JournalError, OSError) as error:
        print(f"cannot create run journal in {run_dir}: {error}", file=sys.stderr)
        return None, 2 if isinstance(error, JournalError) else 1


def _resume_hint(args: argparse.Namespace, journal) -> str:
    """The exact command line that resumes this preempted run."""
    parts = ["anycast-repro", args.command]
    if args.command == "run":
        parts.append(args.experiment)
    parts += ["--scale", args.scale, "--seed", str(args.seed)]
    if args.cache_dir:
        parts += ["--cache-dir", args.cache_dir]
    if args.run_dir:
        parts += ["--run-dir", args.run_dir]
    workers = getattr(args, "workers", 1)
    if workers != 1:
        parts += ["--workers", str(workers)]
    parts += ["--resume", journal.run_id]
    return " ".join(parts)


def _print_preempted(results, journal, args: argparse.Namespace) -> None:
    """Exit-code-4 epilogue: what drained, and how to pick it back up."""
    done = len(results.report.experiments) - len(results.preempted_ids)
    print(
        f"run preempted ({results.preempt_reason}): {done} experiment(s) "
        f"journaled, {len(results.preempted_ids)} remaining",
        file=sys.stderr,
    )
    if journal is not None:
        print(f"resume with: {_resume_hint(args, journal)}", file=sys.stderr)


def _run_observed(args: argparse.Namespace, command, scenario: Scenario) -> int:
    """Execute a run/all command under the --trace / --metrics sinks."""
    metrics.reset()
    if args.trace:
        try:
            with trace.capture(
                args.trace, name=f"cli.{args.command}", command=args.command
            ):
                code = command(args, scenario)
        except OSError as error:
            print(f"cannot write trace to {args.trace}: {error}", file=sys.stderr)
            return 1
        print(f"wrote {args.trace}", file=sys.stderr)
    else:
        code = command(args, scenario)
    if args.metrics:
        rss = rss_peak_bytes()
        if rss is not None:
            metrics.gauge("process.peak_rss.bytes").set_max(rss)
        try:
            metrics.dump(args.metrics)
        except OSError as error:
            print(f"cannot write metrics to {args.metrics}: {error}", file=sys.stderr)
            return 1
        print(f"wrote {args.metrics}", file=sys.stderr)
    return code


def _cmd_run(args: argparse.Namespace, scenario: Scenario) -> int:
    journal, code = _open_journal(args, scenario, [args.experiment])
    if code is not None:
        return code
    try:
        results = run_experiments(
            [args.experiment], scenario, timeout=args.timeout, retries=args.retries,
            journal=journal, deadline=args.deadline, grace=args.grace, signals=True,
        )
    finally:
        if journal is not None:
            journal.close()
    if results.preempted:
        _print_preempted(results, journal, args)
        return 4
    result = results[0]
    if result is None:
        _print_failures(results)
        return 3
    if args.csv:
        try:
            for path in write_series_csv(result, args.csv):
                print(f"wrote {path}", file=sys.stderr)
        except OSError as error:
            print(f"cannot write CSVs to {args.csv}: {error}", file=sys.stderr)
            return 1
    if args.plot and result.series:
        from .core import render_series

        logx = args.experiment in ("fig03", "fig08", "fig09")
        print(render_series(result.series, x_label="ms" if not logx else "q/user/day",
                            logx=logx))
        print()
    if args.json:
        from .serve.schema import envelope

        payload = envelope("cli.run", {
            "experiment": result.id,
            "title": result.title,
            "data": {k: v for k, v in result.data.items()
                     if isinstance(v, (int, float, str, list, tuple))},
        })
        print(json.dumps(payload, indent=2, default=list))
    else:
        print(result.to_text())
    if args.report:
        _print_report(scenario.report)
    return 0


def _cmd_all(args: argparse.Namespace, scenario: Scenario) -> int:
    out_handle = None
    if args.out:
        try:
            out_handle = open(args.out, "w", encoding="utf-8")
        except OSError as error:
            print(f"cannot write report to {args.out}: {error}", file=sys.stderr)
            return 1
    journal, code = _open_journal(args, scenario, list_experiments())
    if code is not None:
        if out_handle is not None:
            out_handle.close()
        return code
    try:
        results = run_experiments(
            list_experiments(), scenario, workers=args.workers,
            timeout=args.timeout, retries=args.retries,
            journal=journal, deadline=args.deadline, grace=args.grace, signals=True,
        )
    finally:
        if journal is not None:
            journal.close()
    chunks = []
    for result in results:
        if result is None:  # quarantined: reported via _print_failures below
            continue
        cached = ", cached" if result.report and result.report.cache_hit else ""
        elapsed = result.report.wall_s if result.report else 0.0
        chunks.append(result.to_text())
        chunks.append(f"(elapsed: {elapsed:.1f}s{cached})\n")
    report = "\n".join(chunks)
    if out_handle is not None:
        with out_handle:
            out_handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    if args.report:
        _print_report(results.report)
    if results.preempted:
        _print_failures(results)
        _print_preempted(results, journal, args)
        return 4
    if not results.ok:
        _print_failures(results)
        return 3
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from .engine import code_version, gc_runs, scan_runs

    root = args.cache_dir if args.cache_dir else default_cache_dir()
    if args.action == "gc":
        pruned = gc_runs(root)
        for info in pruned:
            print(f"pruned {info.run_id} ({info.done}/{info.total})")
        print(f"{len(pruned)} completed run(s) pruned")
        return 0
    infos = scan_runs(root, code=code_version())
    if not infos:
        print(f"no runs under {runs_root(root)}")
        return 0
    print(f"{'RUN':<26} {'STATUS':<10} {'SCALE':<7} {'SEED':>5} {'DONE':>9}  CREATED")
    for info in infos:
        created = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info.created))
            if info.created
            else "?"
        )
        seed = "?" if info.seed is None else info.seed
        print(
            f"{info.run_id:<26} {info.status:<10} {info.scale:<7} {seed:>5} "
            f"{f'{info.done}/{info.total}':>9}  {created}"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        records = load_trace(args.trace)
    except OSError as error:
        print(f"cannot read trace {args.trace}: {error}", file=sys.stderr)
        return 1
    if not records:
        print(f"no span records in {args.trace}", file=sys.stderr)
        return 1
    if looks_like_access_log(records):
        print(render_access_log(records, top=args.top))
    else:
        print(render_trace(records, top=args.top))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, serve

    metrics.reset()
    config = ServeConfig(
        scale=args.scale,
        seed=args.seed,
        host=args.host,
        port=args.port,
        workers=args.workers,
        grace=args.grace,
        max_queue=args.max_queue,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        deadline_ms=args.deadline_ms,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        trace=args.trace,
        access_log=args.access_log,
    )
    if config.port < 0 or config.workers < 0 or config.grace < 0:
        print("serve: --port, --workers and --grace must be >= 0", file=sys.stderr)
        return 2
    if config.max_queue < 0 or config.breaker_threshold < 1 or config.breaker_cooldown < 0:
        print("serve: --max-queue must be >= 0, --breaker-threshold >= 1, "
              "--breaker-cooldown >= 0", file=sys.stderr)
        return 2
    if config.deadline_ms is not None and config.deadline_ms < 1:
        print("serve: --deadline-ms must be >= 1", file=sys.stderr)
        return 2
    return serve(config)


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Output piped into e.g. `head` and the reader closed first; not
        # an error worth a traceback.  Point stdout at devnull so the
        # interpreter's shutdown flush does not trip over the dead pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        getattr(args, "verbose", 0),
        json_lines=getattr(args, "log_json", False),
    )

    if args.command == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.command == "inspect":
        return _cmd_inspect(args)

    if args.command == "runs":
        return _cmd_runs(args)

    if getattr(args, "inject", None):
        try:
            faults.install(faults.FaultPlan.from_string(";".join(args.inject)))
        except ValueError as error:
            print(f"bad --inject spec: {error}", file=sys.stderr)
            return 2

    if args.command == "serve":
        return _cmd_serve(args)

    scenario = _build_scenario(args)

    if args.command == "run":
        if args.experiment not in list_experiments():
            print(f"unknown experiment: {args.experiment}", file=sys.stderr)
            print(f"known: {', '.join(list_experiments())}", file=sys.stderr)
            return 2
        return _run_observed(args, _cmd_run, scenario)

    if args.command == "all":
        return _run_observed(args, _cmd_all, scenario)

    if args.command == "summary":
        cache: dict[str, dict] = {}
        for experiment_id, key, label in _HEADLINES:
            if experiment_id not in cache:
                try:
                    cache[experiment_id] = run_experiment(experiment_id, scenario).data
                except ExperimentFailure as error:
                    print(error, file=sys.stderr)
                    return 3
            value = cache[experiment_id].get(key)
            if isinstance(value, float):
                rendered = f"{value:.3f}"
            else:
                rendered = str(value)
            print(f"{label:>55}: {rendered}")
        return 0

    if args.command == "drills":
        _run_drills(scenario)
        return 0

    if args.command == "validate":
        from .experiments import validate_scenario

        report = validate_scenario(scenario)
        print(report.to_text())
        return 0 if report.all_passed else 1

    return 2  # pragma: no cover - argparse enforces the choices


def _run_drills(scenario: Scenario) -> None:
    """The extension studies, summarised."""
    from .anycast import (
        failure_impact,
        hijack_cdn,
        hijack_letter,
        withdraw_sites,
    )
    from .core import compare_with_unicast, simulate_local_root_adoption
    from .topology import ASKind

    letter = scenario.letters_2018["K"]
    degraded = withdraw_sites(letter, [0, 1])
    impact = failure_impact(letter, degraded, scenario.user_base)
    print(
        f"failure drill (K root, 2 sites): {impact.rerouted_fraction:.1%} of "
        f"users rerouted, median {impact.median_rtt_before_ms:.1f} -> "
        f"{impact.median_rtt_after_ms:.1f} ms"
    )

    hijacker = scenario.internet.topology.ases_of_kind(ASKind.TRANSIT)[0]
    cdn_hit = hijack_cdn(scenario.cdn.fabric, hijacker).measure(scenario.user_base)
    letter_hit = hijack_letter(letter, hijacker).measure(scenario.user_base)
    print(
        f"prefix hijack by AS{hijacker}: captures {letter_hit.user_capture_fraction:.1%} "
        f"of K-root users, {cdn_hit.user_capture_fraction:.1%} of CDN users"
    )

    adoption = simulate_local_root_adoption(scenario.joined_2018, scenario.zone, 0.1)
    print(
        f"RFC 8806 at the top 10% of recursives: root traffic "
        f"-{adoption.traffic_reduction:.1%}, Fig.3 median "
        f"{adoption.qpud_before.median:.2f} -> {adoption.qpud_after.median:.4f} q/user/day"
    )

    comparison = compare_with_unicast(scenario.letters_2018["M"], scenario.user_base)
    print(
        f"anycast vs best unicast (M root): median penalty "
        f"{comparison.median_penalty_ms:.1f} ms; "
        f"{comparison.fraction_optimal_site:.0%} of users already at their "
        f"best-unicast site"
    )

    from .anycast import build_botnet, simulate_attack

    botnet = build_botnet(scenario.internet, n_bots=600, seed=scenario.seed + 21)
    small_hit = simulate_attack(scenario.letters_2018["B"], botnet)
    large_hit = simulate_attack(scenario.letters_2018["L"], botnet)
    print(
        f"DDoS dilution: B root's busiest site absorbs "
        f"{small_hit.max_site_share:.0%} of the attack vs "
        f"{large_hit.max_site_share:.0%} for L root "
        f"({small_hit.n_global_sites} vs {large_hit.n_global_sites} sites)"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
