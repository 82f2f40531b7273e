"""repro.obs: span tracing, metrics registry, logging, trace analysis."""

import io
import json
import logging
import time
from pathlib import Path

import pytest

from repro.engine import ArtifactCache, RunReport, run_experiments
from repro.experiments import Scenario, list_experiments
from repro.obs import (
    JsonLineFormatter,
    MetricsRegistry,
    Tracer,
    configure_logging,
    current_trace_id,
    sample_process_stats,
    set_trace_id,
    trace,
)
from repro.obs.inspect import (
    aggregate_by_name,
    aggregate_endpoints,
    cache_effectiveness,
    looks_like_access_log,
    render_access_log,
    render_trace,
    top_spans,
)
from repro.obs.schema import (
    validate,
    validate_jsonl_file,
    validate_metrics_file,
    validate_trace_file,
)
from repro.obs.trace import load_trace

DOCS = Path(__file__).parent.parent / "docs"


def _schema(name: str) -> dict:
    with open(DOCS / name, encoding="utf-8") as handle:
        return json.load(handle)


class TestSpan:
    def test_nesting_and_exclusive_times(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child", depth=1) as child:
                time.sleep(0.005)
        assert child.parent is root
        assert root.child_s == pytest.approx(child.dur_s)
        assert root.self_s == pytest.approx(root.dur_s - child.dur_s)
        assert child.self_s == pytest.approx(child.dur_s)
        assert child.attrs == {"depth": 1}

    def test_siblings_sum_into_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert root.child_s == pytest.approx(a.dur_s + b.dur_s)

    def test_set_merges_attrs(self):
        tracer = Tracer()
        with tracer.span("s", x=1) as span:
            span.set(y=2)
        assert span.attrs == {"x": 1, "y": 2}

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("no")
        assert span.attrs["error"] == "ValueError"
        assert span.dur_s > 0

    def test_tally_children_sums_direct_children_by_name(self):
        tracer = Tracer()
        with tracer.span("root").tally_children() as root:
            with tracer.span("a") as first:
                with tracer.span("a") as grandchild:
                    time.sleep(0.002)
            with pytest.raises(ValueError):
                with tracer.span("a") as second:
                    raise ValueError("a phase that fails still counts")
            with tracer.span("b") as b:
                pass
        # The grandchild shares a child's name but lands in its own parent.
        assert root.child_tally == {"a": first.dur_s + second.dur_s, "b": b.dur_s}
        assert first.dur_s > grandchild.dur_s > 0
        # A span that did not opt in keeps no tally, with children or not.
        assert first.child_tally is None and grandchild.child_tally is None

    def test_disabled_tracer_times_but_emits_nothing(self, tmp_path):
        tracer = Tracer()
        assert not tracer.enabled
        with tracer.span("quiet") as span:
            pass
        assert span.dur_s >= 0
        assert list(tmp_path.iterdir()) == []


class TestCapture:
    def test_merged_file_has_single_root_and_ordered_records(self, tmp_path):
        out = tmp_path / "t.jsonl"
        tracer = Tracer()
        with tracer.capture(out, name="the-root", run=7):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        assert not tracer.enabled
        records = load_trace(out)
        assert [r["name"] for r in records] == ["the-root", "outer", "inner"]
        roots = [r for r in records if r["parent"] is None]
        assert len(roots) == 1 and roots[0]["attrs"] == {"run": 7}
        by_id = {r["id"]: r for r in records}
        for record in records:
            if record["parent"] is not None:
                assert record["parent"] in by_id
        assert len(by_id) == len(records)

    def test_exclusive_times_telescope_to_root(self, tmp_path):
        out = tmp_path / "t.jsonl"
        tracer = Tracer()
        with tracer.capture(out):
            with tracer.span("a"):
                with tracer.span("b"):
                    time.sleep(0.002)
            with tracer.span("c"):
                pass
        records = load_trace(out)
        root = next(r for r in records if r["parent"] is None)
        assert sum(r["self_s"] for r in records) == pytest.approx(root["dur_s"], rel=1e-6)

    def test_unwritable_destination_fails_before_running(self, tmp_path):
        target = tmp_path / "missing" / "t.jsonl"
        tracer = Tracer()
        with pytest.raises(OSError):
            with tracer.capture(target):
                pytest.fail("block must not run when the sink is unwritable")

    def test_records_validate_against_checked_in_schema(self, tmp_path):
        out = tmp_path / "t.jsonl"
        tracer = Tracer()
        with tracer.capture(out, name="r"):
            with tracer.span("s", n=3):
                pass
        assert validate_trace_file(out, _schema("trace.schema.json")) == []


class TestForkWorkerMerge:
    """A workers=4 run folds every worker's shard into one coherent trace."""

    @pytest.fixture(scope="class")
    def merged(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("obs-fork")
        out = tmp_path / "trace.jsonl"
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        scenario = Scenario(scale="small", seed=0, cache=cache)
        ids = list_experiments()[:4]
        with trace.capture(out, name="test-run"):
            results = run_experiments(ids, scenario, workers=4)
        assert len(results) == len(ids)
        return load_trace(out)

    def test_single_root_and_no_duplicate_ids(self, merged):
        ids = {r["id"] for r in merged}
        assert len(ids) == len(merged)
        roots = [r for r in merged if r["parent"] not in ids]
        assert len(roots) == 1 and roots[0]["name"] == "test-run"

    def test_spans_from_multiple_processes(self, merged):
        assert len({r["pid"] for r in merged}) >= 2

    def test_worker_spans_parented_to_engine_run(self, merged):
        run = next(r for r in merged if r["name"] == "engine.run")
        workers = [r for r in merged if r["name"] == "engine.worker"]
        assert workers
        assert all(w["parent"] == run["id"] for w in workers)

    def test_merged_records_are_time_ordered(self, merged):
        ts = [r["ts"] for r in merged]
        assert ts == sorted(ts)

    def test_exclusive_times_telescope_across_processes(self, merged):
        roots = [r for r in merged if r["parent"] is None]
        wall = sum(r["dur_s"] for r in roots)
        assert sum(r["self_s"] for r in merged) == pytest.approx(wall, rel=0.05)

    def test_report_rebuilds_from_trace(self, merged):
        report = RunReport.from_trace(merged)
        experiment_spans = [
            r for r in merged if (r.get("attrs") or {}).get("kind") == "experiment"
        ]
        assert len(report.experiments) == len(experiment_spans)
        summary = report.summary()
        assert set(summary) == {
            "stages", "experiments", "cache_hits", "cache_misses", "wall_s",
            "artifact_bytes", "resumed", "preempted",
        }
        assert {e.worker for e in report.experiments} == {
            r["pid"] for r in experiment_spans
        }


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set_max(10)
        registry.gauge("g").set_max(3)
        registry.histogram("h").observe(5)
        registry.histogram("h").observe(500)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 10
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["sum"] == 505
        assert snap["histograms"]["h"]["min"] == 5
        assert snap["histograms"]["h"]["max"] == 500
        assert snap["histograms"]["h"]["buckets"]["10.0"] == 1
        assert snap["histograms"]["h"]["buckets"]["1000.0"] == 1

    def test_diff_isolates_a_window(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(10)
        registry.histogram("h").observe(1)
        before = registry.snapshot()
        registry.counter("c").inc(7)
        registry.histogram("h").observe(2)
        delta = MetricsRegistry.diff(registry.snapshot(), before)
        assert delta["counters"]["c"] == 7
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 2

    def test_diff_carries_only_gauges_the_window_set(self):
        registry = MetricsRegistry()
        registry.gauge("inherited").set(2)
        registry.gauge("moved").set(1)
        before = registry.snapshot()
        registry.gauge("moved").set(3)
        registry.gauge("fresh").set(4)
        delta = MetricsRegistry.diff(registry.snapshot(), before)
        assert delta["gauges"] == {"moved": 3.0, "fresh": 4.0}

    def test_merge_adds_counts_and_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(5)
        a.histogram("h").observe(10)
        b.counter("c").inc(3)
        b.gauge("g").set(9)
        b.histogram("h").observe(2_000_000)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 9
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 10
        assert snap["histograms"]["h"]["max"] == 2_000_000

    def test_parallel_merge_matches_serial_totals(self):
        serial = MetricsRegistry()
        for value in range(20):
            serial.counter("n").inc()
            serial.histogram("v").observe(value)
        sharded = MetricsRegistry()
        for shard in range(4):
            worker = MetricsRegistry()
            for value in range(shard * 5, shard * 5 + 5):
                worker.counter("n").inc()
                worker.histogram("v").observe(value)
            sharded.merge(worker.snapshot())
        assert sharded.snapshot() == serial.snapshot()

    def test_to_text_is_prometheus_shaped(self):
        registry = MetricsRegistry()
        registry.counter("cache.read.total").inc(2)
        registry.histogram("kernel.batch.rows").observe(50)
        text = registry.to_text()
        assert "# TYPE repro_cache_read_total counter" in text
        assert "repro_cache_read_total 2" in text
        assert 'repro_kernel_batch_rows_bucket{le="+Inf"} 1' in text
        assert "repro_kernel_batch_rows_count 1" in text

    def test_dump_validates_against_checked_in_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3)
        path = tmp_path / "m.json"
        registry.dump(path)
        assert validate_metrics_file(path, _schema("metrics.schema.json")) == []

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestSchemaValidator:
    def test_type_mismatch_reported_with_path(self):
        schema = {"type": "object", "properties": {"n": {"type": "integer"}}}
        assert validate({"n": "x"}, schema) == ["$.n: expected integer, got str"]

    def test_bool_is_not_a_number(self):
        assert validate(True, {"type": "integer"})
        assert validate(True, {"type": "number"})
        assert not validate(True, {"type": "boolean"})

    def test_required_and_additional_properties(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "string"}},
            "additionalProperties": False,
        }
        errors = validate({"b": 1}, schema)
        assert any("missing required key 'a'" in e for e in errors)
        assert any("unexpected key 'b'" in e for e in errors)

    def test_union_types_and_items(self):
        schema = {"type": "array", "items": {"type": ["number", "null"]}}
        assert validate([1, None, 2.5], schema) == []
        assert validate([1, "x"], schema)


class TestDeprecations:
    def test_engine_timerstack_removed(self):
        # Graduated deprecation: TimerStack is gone; spans replace it.
        import repro.engine

        with pytest.raises(AttributeError):
            repro.engine.TimerStack
        assert "TimerStack" not in repro.engine.__all__


class TestLogging:
    def test_configure_is_idempotent(self):
        logger = configure_logging(verbose=1)
        configure_logging(verbose=1)
        ours = [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(ours) == 1
        assert logger.level == logging.DEBUG
        configure_logging(verbose=0)
        assert logger.level == logging.WARNING

    def test_loggers_live_under_the_repro_root(self):
        from repro.obs import get_logger

        assert get_logger("bgp.propagation").name == "repro.bgp.propagation"
        assert get_logger().name == "repro"


class TestJsonLogging:
    def test_json_lines_carry_the_bound_trace_id(self):
        from repro.obs import get_logger

        stream = io.StringIO()
        try:
            configure_logging(verbose=1, stream=stream, json_lines=True)
            token = set_trace_id("req-123")
            try:
                get_logger("test").info("hello %s", "world")
            finally:
                set_trace_id(None)
            get_logger("test").warning("outside any request")
        finally:
            configure_logging(verbose=0)
        first, second = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert first["msg"] == "hello world"
        assert first["level"] == "INFO"
        assert first["logger"] == "repro.test"
        assert first["trace_id"] == "req-123"
        assert first["ts"] > 0
        assert second["level"] == "WARNING"
        assert "trace_id" not in second
        assert token is not None

    def test_exceptions_render_into_the_exc_field(self):
        formatter = JsonLineFormatter()
        try:
            raise ValueError("boom")
        except ValueError:
            import sys

            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1,
                "it broke", None, sys.exc_info(),
            )
        entry = json.loads(formatter.format(record))
        assert entry["msg"] == "it broke"
        assert "ValueError: boom" in entry["exc"]

    def test_trace_id_context_is_isolated_by_default(self):
        assert current_trace_id() is None
        token = set_trace_id("abc")
        assert current_trace_id() == "abc"
        set_trace_id(None)
        assert current_trace_id() is None
        assert token is not None


class TestProcessStats:
    def test_sample_shape_and_plausibility(self):
        stats = sample_process_stats()
        assert set(stats) == {"rss_bytes", "rss_is_peak", "open_fds"}
        assert isinstance(stats["rss_is_peak"], bool)
        # A running CPython interpreter is at least a few MB resident
        # and has stdin/stdout/stderr open, wherever procfs exists.
        if stats["rss_bytes"] is not None:
            assert stats["rss_bytes"] > 1_000_000
        if stats["open_fds"] is not None:
            assert stats["open_fds"] >= 3

    def test_sampling_costs_no_fds(self):
        before = sample_process_stats()["open_fds"]
        after = sample_process_stats()["open_fds"]
        if before is not None and after is not None:
            assert after == before


class TestReroot:
    def test_reroot_reparents_subsequent_spans(self, tmp_path):
        out = tmp_path / "t.jsonl"
        tracer = Tracer()
        with tracer.capture(out, name="root"):
            with tracer.span("local"):
                pass
            tracer.reroot("9-99")
            with tracer.span("rerooted"):
                pass
        records = load_trace(out)
        by_name = {r["name"]: r for r in records}
        assert by_name["local"]["parent"] == by_name["root"]["id"]
        assert by_name["rerooted"]["parent"] == "9-99"


def _record(name, id, parent, ts, dur, self_s, attrs=None, pid=1):
    return {
        "name": name, "id": id, "parent": parent, "pid": pid,
        "ts": ts, "dur_s": dur, "self_s": self_s, "attrs": attrs or {},
    }


class TestInspect:
    def _trace(self):
        return [
            _record("root", "1-1", None, 0.0, 10.0, 2.0),
            _record("stage.a", "1-2", "1-1", 0.1, 5.0, 5.0,
                    {"kind": "stage", "cache_hit": False, "size_bytes": 1000}),
            _record("stage.b", "1-3", "1-1", 5.2, 3.0, 3.0,
                    {"kind": "stage", "cache_hit": True, "size_bytes": 500}),
        ]

    def test_top_spans_sorted_by_duration(self):
        top = top_spans(self._trace(), 2)
        assert [r["name"] for r in top] == ["root", "stage.a"]

    def test_aggregate_shares_sum_to_one(self):
        rows = aggregate_by_name(self._trace())
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        assert rows[0]["name"] == "stage.a"

    def test_cache_effectiveness_splits_hits_and_misses(self):
        (row,) = cache_effectiveness(self._trace())
        assert row["kind"] == "stage"
        assert row["hits"] == 1 and row["misses"] == 1
        assert row["read_bytes"] == 500 and row["written_bytes"] == 1000

    def test_render_mentions_every_section(self):
        text = render_trace(self._trace(), top=2)
        assert "3 spans" in text
        assert "slowest spans" in text
        assert "exclusive time by span name" in text
        assert "cache effectiveness" in text
        assert "(empty trace)" == render_trace([])


def _access_record(trace_id, endpoint, status, dur_ms, phases=None, ts=0.0):
    return {
        "schema": 1, "ts": ts, "trace_id": trace_id, "method": "GET",
        "path": f"/v1/{endpoint}", "endpoint": endpoint, "status": status,
        "dur_ms": dur_ms, "bytes_in": 0, "bytes_out": 10,
        "phases": phases or {},
    }


class TestAccessLogInspect:
    def _records(self):
        return [
            _access_record("a", "resolve", 200, 30.0,
                           {"parse": 1.0, "compute": 25.0}, ts=0.0),
            _access_record("b", "resolve", 200, 10.0,
                           {"parse": 1.0, "compute": 7.0}, ts=1.0),
            _access_record("c", "healthz", 200, 5.0, ts=2.0),
            _access_record("d", "unrouted", 404, 5.0, ts=3.0),
        ]

    def test_sniffing_tells_the_two_record_shapes_apart(self):
        assert looks_like_access_log(self._records())
        spans = [_record("root", "1-1", None, 0.0, 1.0, 1.0)]
        assert not looks_like_access_log(spans)
        assert not looks_like_access_log([])

    def test_aggregate_endpoints_rows(self):
        rows = {row["endpoint"]: row for row in aggregate_endpoints(self._records())}
        resolve = rows["resolve"]
        assert resolve["count"] == 2 and resolve["errors"] == 0
        assert resolve["mean_ms"] == pytest.approx(20.0)
        assert resolve["phases"]["compute"] == pytest.approx(16.0)
        assert rows["unrouted"]["errors"] == 1
        assert sum(row["share"] for row in rows.values()) == pytest.approx(1.0)

    def test_render_mentions_every_section(self):
        text = render_access_log(self._records(), top=2)
        assert "4 requests" in text
        assert "1 error(s)" in text
        assert "slowest requests" in text
        assert "resolve" in text and "healthz" in text
        assert render_access_log([]) == "(empty access log)"


class TestJsonlValidation:
    def test_bad_lines_are_reported_with_line_numbers(self, tmp_path):
        schema = {"type": "object", "required": ["n"],
                  "properties": {"n": {"type": "integer"}}}
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\nnot json\n{"n": "x"}\n')
        errors = validate_jsonl_file(path, schema)
        assert len(errors) == 2
        assert errors[0].startswith("line 2: not JSON")
        assert errors[1].startswith("line 3:")

    def test_clean_file_validates(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}\n')
        assert validate_jsonl_file(path, {"type": "object"}) == []


class TestLiveReportConsistency:
    def test_trace_derived_report_matches_live_report(self, tmp_path):
        out = tmp_path / "t.jsonl"
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        scenario = Scenario(scale="small", seed=0, cache=cache)
        with trace.capture(out):
            results = run_experiments(["fig02a"], scenario, workers=1)
        live = results.report
        rebuilt = RunReport.from_trace(load_trace(out))
        # The live report records stages in completion order while the trace
        # is start-ordered, so compare as multisets.
        assert sorted(r.stage for r in rebuilt.stages) == sorted(r.stage for r in live.stages)
        assert [r.experiment_id for r in rebuilt.experiments] == [
            r.experiment_id for r in live.experiments
        ]
        live_summary, rebuilt_summary = live.summary(), rebuilt.summary()
        assert rebuilt_summary["cache_hits"] == live_summary["cache_hits"]
        assert rebuilt_summary["artifact_bytes"] == live_summary["artifact_bytes"]
        assert rebuilt_summary["wall_s"] == pytest.approx(live_summary["wall_s"], rel=0.05)
