"""Tests for the tracing layer, exporters, profiler and their CLI flags.

The contracts proved here are the PR's acceptance criteria:

* recording is invisible — a traced run's report is byte-identical to
  the untraced one (the tracer never touches a random stream or the
  event queue);
* span ids are stable ``(task, round, device)`` keys, so repeat runs
  assemble byte-identical traces;
* the trace *reconciles* with the report — under a lossy channel the
  upload/drop spans sum exactly to the transport KPI totals;
* exports are well-formed (Chrome trace-event JSON, JSONL round-trip);
* the profiler patches and restores subsystem methods exactly.
"""

import hashlib
import json

import pytest

from repro import TaskState
from repro.data import SyntheticAvazu
from repro.observability.export import (
    chrome_trace,
    read_spans_jsonl,
    spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.profiler import PROFILE_POINTS, RunProfiler
from repro.observability.tracing import SPAN_KINDS, Span, Trace, Tracer
from repro.phones.apk import ApkStage
from repro.phones.phone import VirtualPhone
from repro.scenarios import ArrivalSpec, GradeSpec, ScenarioRunner, ScenarioSpec, TenantSpec, build_scenario
from repro.scenarios.__main__ import main as scenarios_main


#: sha256 of ``Trace.to_json()`` and of the JSONL export by (scenario, scale,
#: seed) — the ``REPORT_PINS`` scales and seeds of ``tests/test_scenarios.py``
#: — taken before the tracer started reading the task id off the block it
#: records.  ``flash_crowd`` and ``lossy_uplink`` hold no ``bench_stage``
#: span; the ``diurnal_multitenant`` (15) and ``flaky_fleet`` (50) rows do.
#: A change that moves a digest changes what a trace says.
TRACE_PINS = {
    ("diurnal_multitenant", 120, 2): (
        "050bcb9b1f53d672bd38a3c8619e2de1c6fd27b940fd78dbfab1f8c9436b6c2a",
        "7e5a205cab83cbea9b07dd068ca21ae1a74ee737487fa68d1ef57f65583345fa",
    ),
    ("flaky_fleet", 120, 2): (
        "19df62a39e02370ec17541e6bb3d15cdbef5e7f59fa00ab8a1b7d89c83ed2225",
        "bb9069c25c5b3eb923c10df1db4d6b399c19da518418d71f198fadf6d7dcfedb",
    ),
    ("flash_crowd", 120, 2): (
        "9cedfe142b767629ea39d8395ccbc02efaa20ac4562720d1ac4a3cd2ddb5aae7",
        "e0fa317ff527ae807b2719f292b947fa452c585c5539c752dd6aa7219bb0876a",
    ),
    ("flash_crowd", 150, 3): (
        "53609d2a8f71fae2cf8914c7f6a3c68ff2bed16e39076023332c28e9b3307a0a",
        "a74a6fdea60af582338ddd33e60a148e14e6e9cfaafd9d384cb5df37aa2aeab7",
    ),
    ("lossy_uplink", 120, 2): (
        "c6b1dbff7111035246717640e93f5d53e4bbff98b510772f31d797c61fff7eec",
        "974101cf021d85874a6ebc7bf5250803445614215825b70c67216e2d7d6ca5ae",
    ),
    ("lossy_uplink", 150, 3): (
        "38906bf93c5a96ef8230ea53c90826227cabec4502ed62bea8e476b0d89fd15e",
        "74f27ccbd5d995385b9ec3fe755e2a2acd62b3731e9ba0af882c50144aeb5cf4",
    ),
}


def traced_run(name: str, scale: int = 60, seed: int = 1):
    """Run a library scenario with a tracer armed.

    Returns ``(runner, report, trace)`` — the runner gives tests access
    to the per-task :class:`TaskResult` ledger on the platform.
    """
    spec = build_scenario(name, scale=scale, seed=seed)
    runner = ScenarioRunner(spec, tracer=Tracer())
    report = runner.run()
    return runner, report, runner.trace()


# ----------------------------------------------------------------------
# span-tree integrity
# ----------------------------------------------------------------------
class TestTraceStructure:
    def test_lossy_uplink_span_tree(self):
        _, report, trace = traced_run("lossy_uplink")
        counts = trace.counts_by_kind()
        # Every task contributes its lifecycle triple.
        assert counts["task"] == report.total_tasks
        assert counts["queue_wait"] == report.total_tasks
        assert counts["dispatch"] == report.total_tasks
        assert counts["round"] >= 1
        assert counts["device_round"] >= 1
        # Only registered kinds appear, and ids are unique (Trace raises
        # on duplicates at construction).
        assert set(counts) <= set(SPAN_KINDS)
        ids = [s.span_id for s in trace]
        assert len(ids) == len(set(ids))

    def test_parents_exist_and_contain_children(self):
        _, _, trace = traced_run("lossy_uplink")
        by_id = {s.span_id: s for s in trace}
        for span in trace:
            if span.parent_id is None:
                assert span.kind == "task"
                continue
            parent = by_id[span.parent_id]
            # A child starts no earlier than its parent; uploads may end
            # after the device span (the channel delivers asynchronously)
            # but lifecycle/round/wave nesting is strict.
            assert span.start >= parent.start - 1e-9
            if span.kind in ("queue_wait", "dispatch", "round", "wave", "device_round"):
                assert span.end <= parent.end + 1e-9

    def test_spans_sorted_and_stable_ids(self):
        _, _, trace = traced_run("lossy_uplink")
        order = [(s.start, s.span_id) for s in trace]
        assert order == sorted(order)
        root = trace.of_kind("task")[0]
        assert root.span_id.startswith("t:")
        assert trace.children(root.span_id)

    def test_duplicate_span_id_rejected(self):
        span = Span("t:x", None, "x", "task", 0.0, 1.0, {})
        clone = Span("t:x", None, "x", "task", 0.0, 2.0, {})
        with pytest.raises(ValueError, match="duplicate span id"):
            Trace("bad", [span, clone])

    def test_failed_task_keeps_its_finished_bench_stages(self, monkeypatch):
        # The benchmarking phone finishes stages 1-2, then training raises:
        # the task fails, and the stages it measured stay in its trace.
        def broken_training(phone, duration, upload_bytes):
            raise RuntimeError(f"{phone.serial}: training crashed")

        monkeypatch.setattr(VirtualPhone, "start_training", broken_training)
        spec = ScenarioSpec(
            name="bench-crash",
            seed=0,
            horizon_s=600.0,
            cluster_nodes=1,
            tenants=[
                TenantSpec(
                    name="solo",
                    grades=[GradeSpec(grade="High", n_devices=4, bundles=4, n_phones=1, n_benchmark=1)],
                    arrival=ArrivalSpec(kind="periodic", count=1, period_s=100.0),
                )
            ],
        )
        runner = ScenarioRunner(spec, tracer=Tracer())
        runner.run()
        (result,) = runner.platform.results.values()
        assert result.state is TaskState.FAILED and "training crashed" in result.error
        trace = runner.trace()
        (task,) = trace.of_kind("task")
        assert task.attrs["status"] == "failed"
        stages = trace.of_kind("bench_stage")
        assert [span.attrs["stage"] for span in stages] == [ApkStage.NO_APK.label, ApkStage.APK_LAUNCH.label]
        assert all(span.parent_id == f"{task.span_id}/r1" and span.end <= task.end for span in stages)

    def test_trace_without_tracer_raises(self):
        spec = build_scenario("lossy_uplink", scale=60, seed=1)
        runner = ScenarioRunner(spec)
        with pytest.raises(RuntimeError, match="tracer"):
            runner.trace()


# ----------------------------------------------------------------------
# the differential contracts
# ----------------------------------------------------------------------
class TestTracingIsInvisible:
    @pytest.mark.parametrize("name", ["lossy_uplink", "flash_crowd"])
    def test_traced_report_byte_identical_to_untraced(self, name):
        spec = build_scenario(name, scale=60, seed=1)
        plain = ScenarioRunner(spec).run()
        spec2 = build_scenario(name, scale=60, seed=1)
        traced = ScenarioRunner(spec2, tracer=Tracer()).run()
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            traced.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("name", ["lossy_uplink", "flash_crowd"])
    def test_repeat_traces_byte_identical(self, name):
        _, _, first = traced_run(name)
        _, _, repeat = traced_run(name)
        assert first.to_json() == repeat.to_json()

    @pytest.mark.parametrize("name,scale,seed", sorted(TRACE_PINS))
    def test_trace_pinned(self, name, scale, seed):
        _, _, trace = traced_run(name, scale, seed)
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest() for text in (trace.to_json(), spans_jsonl(trace))
        )
        assert digests == TRACE_PINS[name, scale, seed]


# ----------------------------------------------------------------------
# trace ↔ report reconciliation under loss
# ----------------------------------------------------------------------
class TestTransportReconciliation:
    def test_spans_sum_to_transport_kpis(self):
        runner, report, trace = traced_run("lossy_uplink", scale=120, seed=3)
        kpis = {
            key: sum(
                (result.transport or {}).get(key, 0)
                for result in runner.platform.results.values()
            )
            for key in (
                "uploads",
                "delivered",
                "retries",
                "duplicates",
                "abandoned",
                "late_drops",
                "duplicate_drops",
            )
        }
        uploads = trace.of_kind("upload")
        drops = trace.of_kind("ingest_drop")
        statuses = [s.attrs["status"] for s in uploads]
        reasons = [s.attrs["reason"] for s in drops]
        assert len(uploads) == kpis["uploads"]
        assert sum(s.attrs["retries"] for s in uploads) == kpis["retries"]
        assert statuses.count("abandoned") == kpis["abandoned"]
        assert statuses.count("late") + reasons.count("late") == kpis["late_drops"]
        assert reasons.count("duplicate") == kpis["duplicate_drops"]
        assert (
            sum(1 for s in uploads if s.attrs["status"] == "delivered" and s.attrs["duplicate"])
            == kpis["duplicates"]
        )
        # The lossy library scenario really exercises the machinery.
        assert kpis["retries"] > 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_chrome_trace_structure(self):
        _, _, trace = traced_run("lossy_uplink")
        doc = chrome_trace(trace)
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        assert len(events) > len(trace)  # spans + metadata events
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        for event in events:
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
                continue
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
        # Timestamps are microseconds of simulated time.
        first_task = trace.of_kind("task")[0]
        named = [e for e in events if e["ph"] == "X" and e.get("args", {}).get("span_id") == first_task.span_id]
        if named:
            assert named[0]["ts"] == pytest.approx(first_task.start * 1e6)

    def test_chrome_trace_file_is_json(self, tmp_path):
        _, _, trace = traced_run("lossy_uplink")
        path = write_chrome_trace(trace, tmp_path / "trace.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == chrome_trace(trace)

    def test_jsonl_round_trip(self, tmp_path):
        _, _, trace = traced_run("lossy_uplink")
        path = write_spans_jsonl(trace, tmp_path / "spans.jsonl")
        rows = read_spans_jsonl(path)
        assert rows == [span.to_dict() for span in trace]
        assert len(spans_jsonl(trace).splitlines()) == len(trace)


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestRunProfiler:
    def test_attach_detach_restores_originals(self):
        import importlib

        originals = {}
        for module_name, class_name, method, _category in PROFILE_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            originals[(class_name, method)] = getattr(cls, method)
        profiler = RunProfiler().attach()
        for module_name, class_name, method, _category in PROFILE_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            assert getattr(cls, method) is not originals[(class_name, method)]
            assert hasattr(getattr(cls, method), "__profiled_original__")
        profiler.detach()
        for module_name, class_name, method, _category in PROFILE_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            assert getattr(cls, method) is originals[(class_name, method)]

    def test_detach_leaves_each_class_namespace_as_it_found_it(self, monkeypatch):
        # The tiers only inherit ``_register_plan`` / ``_execute_numeric`` from
        # ``TierRounds``; a detach that re-set them left a private copy behind
        # that a later patch of the base method no longer reached.
        import importlib

        from repro.cluster.rounds import TierRounds
        from repro.cluster.runner import LogicalSimulation
        from repro.phones.phonemgr import PhoneMgr

        classes = {
            getattr(importlib.import_module(module_name), class_name)
            for module_name, class_name, _method, _category in PROFILE_POINTS
        }
        before = {cls: set(vars(cls)) for cls in classes}
        with RunProfiler():
            assert "_register_plan" in vars(LogicalSimulation)
        assert {cls: set(vars(cls)) for cls in classes} == before

        def patched(self, *args, **kwargs):
            raise AssertionError("unreachable")

        monkeypatch.setattr(TierRounds, "_register_plan", patched)
        assert LogicalSimulation._register_plan is patched
        assert PhoneMgr._register_plan is patched

    def test_double_attach_rejected(self):
        profiler = RunProfiler().attach()
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                profiler.attach()
        finally:
            profiler.detach()

    def test_profiled_run_accounts_subsystems(self):
        spec = build_scenario("lossy_uplink", scale=60, seed=1)
        with RunProfiler() as profiler:
            ScenarioRunner(spec).run()
        rows = profiler.rows()
        categories = {row.category for row in rows}
        assert "kernel.step_batch" in categories
        # lossy_uplink has numeric tenants: dataset synthesis is named.
        assert "data.synthesize" in categories
        # ...and flow-attached ones: the traffic controller is named, from
        # submission (scalar and block share one routine) to cloud delivery.
        assert {"deviceflow.submit", "deviceflow.dispatch", "cloud.flow_receive"} <= categories
        # Its uplink tenant dispatches over an interval: the per-round
        # discretisation is named, not folded into kernel.step_batch.
        assert "deviceflow.interval_schedule" in categories
        assert not hasattr(SyntheticAvazu.generate, "__profiled_original__")
        for row in rows:
            assert row.calls > 0
            assert 0.0 <= row.self_s <= row.total_s + 1e-9
        table = profiler.table(wall_s=1.0)
        assert "kernel.step_batch" in table
        assert "accounted" in table

    def test_profiled_run_report_identical(self):
        spec = build_scenario("lossy_uplink", scale=60, seed=1)
        plain = ScenarioRunner(spec).run()
        spec2 = build_scenario("lossy_uplink", scale=60, seed=1)
        with RunProfiler():
            profiled = ScenarioRunner(spec2).run()
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            profiled.to_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCli:
    def test_run_with_trace_profile_and_report(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        report_path = tmp_path / "report.json"
        code = scenarios_main(
            [
                "run",
                "lossy_uplink",
                "--scale", "60",
                "--seed", "1",
                "--trace-out", str(trace_path),
                "--trace-jsonl", str(jsonl_path),
                "--report-json", str(report_path),
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profiler hotspots" in out
        assert "trace:" in out
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]
        assert read_spans_jsonl(jsonl_path)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["scenario"] == "lossy_uplink"

    def test_report_json_has_one_spelling(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as usage:
            scenarios_main(["run", "lossy_uplink", "--scale", "60", "--json", str(path)])
        assert usage.value.code == 2
        assert not path.exists()
