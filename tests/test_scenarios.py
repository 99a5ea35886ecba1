"""Scenario-engine tests: specs, deferred submission, faults, determinism.

The heart of the suite is the scenario-level determinism contract: the
same spec + seed must produce byte-identical reports across runs, equal
to the digests pinned below.
"""

import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import GradeRequirement, PlatformConfig, SimDC, TaskSpec, TaskState
from repro.cluster import NodeSpec
from repro.ml import standard_fl_flow
from repro.observability import AlarmRule, AutoscaleSpec, SLASpec, Tracer, spans_jsonl
from repro.scenarios import (
    SCENARIOS,
    ArrivalSpec,
    DispatchSpec,
    FaultSpec,
    GradeSpec,
    PopulationSpec,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    TransportSpec,
    build_scenario,
    run_scenario,
)
from repro.scenarios.kpis import jain_index
from repro.simkernel import RandomStreams


#: sha256 of ``ScenarioRunner(spec).run().to_json()`` by (scenario, scale, seed),
#: taken at the last commit that still had the per-device execution path —
#: where this suite proved the two paths byte-identical on every one of
#: these runs.  A change that moves a digest changes what is simulated.
REPORT_PINS = {
    ("autoscale_flash_crowd", 120, 2): "4eb6994eac93a16884c527a65e3150e9161147fb12a0caa26ea3022da49639f2",
    ("diurnal_multitenant", 120, 2): "5db83513f09d4c5da5d1b1248cbb457d753b6a2f7ffcafdbf232c397b7629f28",
    ("flaky_fleet", 120, 2): "fb305a840e027d796cc43d4f4be086f9142b4163b4d98e55249e84277b1de347",
    ("flash_crowd", 120, 2): "d0562cb8464ab8da75fe4cc00238e901cc40b354240e5fad741312c03f38068f",
    ("lossy_uplink", 120, 2): "247cf8ac7189e2bc75954c1fa563da716f76880eeb645a916a83ccb5517eb3ef",
    ("steady_state_soak", 120, 2): "b1afe9c89b6e261082c2f1352527e0652bc8f93abed68dea9d9118af03ed359d",
    ("flash_crowd", 150, 3): "cb402de263d86bfb0a1af80d135b2de4d60f9d4348c9d2a22754c107d88a40a0",
    ("diurnal_multitenant", 150, 3): "7520f6b2b9accf833b3a9f5d8b244192dcd60e61b55f106adde2691c1663717b",
    ("flaky_fleet", 150, 3): "faf6a32897e91c3470bef1a6f2133a1696660cb8121b869ad3305153df1f75fc",
    ("lossy_uplink", 150, 3): "eeb08dfa46ce951ee20c27c75a24690ce67f6f9ea583a2657ae3cfe8c650baf1",
}


def set_at_path(data: dict, path: str, value) -> None:
    """Set ``value`` at ``path`` (``tenants[0].arrival``) inside a spec dict."""
    *parents, last = path.replace("[", ".").replace("]", "").split(".")
    for key in parents:
        data = data[int(key)] if key.isdigit() else data[key]
    data[int(last) if last.isdigit() else last] = value


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def tiny_scenario(**overrides) -> ScenarioSpec:
    """A fast two-tenant scenario the fault/determinism tests perturb."""
    defaults = {
        "name": "tiny",
        "seed": 0,
        "horizon_s": 600.0,
        "cluster_nodes": 2,  # 40 bundles
        "tenants": [
            TenantSpec(
                name="alpha",
                priority=5,
                rounds=2,
                grades=[GradeSpec(grade="High", n_devices=8, bundles=8, n_phones=1)],
                arrival=ArrivalSpec(kind="periodic", count=2, period_s=200.0, offset_s=10.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[3], failure_prob=0.1),
            ),
            TenantSpec(
                name="beta",
                priority=1,
                numeric=True,
                feature_dim=32,
                records_per_device=6,
                grades=[GradeSpec(grade="Low", n_devices=6, bundles=6)],
                arrival=ArrivalSpec(kind="poisson", count=2, rate_per_hour=30.0),
            ),
        ],
    }
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ----------------------------------------------------------------------
# spec serialization and validation
# ----------------------------------------------------------------------
class TestSpecSerialization:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_library_specs_round_trip_through_dicts(self, name):
        spec = build_scenario(name, scale=300, seed=4)
        data = spec.to_dict()
        # The dict must be plain data (JSON-serializable without helpers).
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data

    def test_round_tripped_spec_runs_identically(self):
        spec = tiny_scenario()
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert run_scenario(rebuilt).to_json() == run_scenario(spec).to_json()

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="lognormal")
        with pytest.raises(ValueError):
            ArrivalSpec(kind="trace", times=[])
        with pytest.raises(ValueError):
            DispatchSpec(kind="multicast")
        with pytest.raises(ValueError):
            FaultSpec(kind="network_degradation", at=10.0, until=5.0, factor=0.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="straggler", at=0.0, until=10.0, factor=0.9)
        with pytest.raises(ValueError):
            PopulationSpec(network_mix=[["carrier-pigeon", 1.0]])
        with pytest.raises(ValueError):
            tiny_scenario(tenants=[])

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("flow_learning_rate", -1.0, "must be a finite number > 0, got -1.0"),
            ("flow_learning_rate", float("nan"), "must be a finite number > 0, got nan"),
            ("flow_learning_rate", float("inf"), "must be a finite number > 0, got inf"),
            ("flow_epochs", 0, "must be an integer >= 1, got 0"),
            ("flow_epochs", 1.5, "must be an integer >= 1, got 1.5"),
            ("feature_dim", 0, "must be an integer >= 1, got 0"),
            ("rounds", 0, "must be an integer >= 1, got 0"),
            ("priority", 1.5, "must be an integer, got 1.5"),
            # A TaskSpec built directly used to accept these four and then fail
            # mid-run (a TypeError, a weight-shape mismatch) or run (priority).
            ("rounds", 1.5, "must be an integer >= 1, got 1.5"),
            ("rounds", float("nan"), "must be an integer >= 1, got nan"),
            ("feature_dim", 8.5, "must be an integer >= 1, got 8.5"),
            ("priority", 0.5, "must be an integer, got 0.5"),
        ],
    )
    def test_flow_numbers_fail_at_construction_naming_the_field(self, field, value, message):
        # A negative rate used to build and fail every task mid-run, a NaN
        # one to publish a NaN global model, and a zero count to raise a
        # bare ValueError mid-run.
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            TenantSpec(name="t", numeric=True, **{field: value})
        data = tiny_scenario().to_dict()
        data["tenants"][1][field] = value
        with pytest.raises(ValueError, match=rf"^tenants\[1\]\.{field} {message}$"):
            ScenarioSpec.from_dict(data)
        if field in {spec_field.name for spec_field in dataclasses.fields(TaskSpec)}:
            # The runtime spec is where the check lives: the imperative path says the same.
            grades = [GradeRequirement("High", n_devices=4, bundles=4)]
            with pytest.raises(ValueError, match=f"^{field} {message}$"):
                TaskSpec(name="t", grades=grades, numeric=True, **{field: value})

    @settings(max_examples=150, deadline=None)
    @given(
        grades=st.lists(st.sampled_from(["High", "Low"]), min_size=1, max_size=2),
        rounds=st.one_of(st.integers(-1, 3), st.sampled_from([1.0, 1.5, float("nan")])),
        priority=st.one_of(st.integers(-2, 2), st.sampled_from([0.5, True])),
        numeric=st.booleans(),
        feature_dim=st.one_of(st.integers(0, 3), st.sampled_from([8.5, float("inf")])),
        records_per_device=st.one_of(st.integers(0, 3), st.sampled_from([2.5, float("nan"), False])),
        deadline_s=st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    )
    def test_a_tenant_is_refused_iff_its_tasks_would_be(self, grades, **values):
        values["grades"] = [GradeRequirement(grade, n_devices=4, bundles=4) for grade in grades]

        def refusal(build):
            try:
                build()
            except ValueError as exc:
                return str(exc)
            return None

        tenant = TenantSpec(name="t")
        for field, value in values.items():
            setattr(tenant, field, value)  # past TenantSpec's own checks, as a task's inputs
        assert refusal(lambda: TenantSpec(name="t", **values)) == refusal(
            lambda: tenant.build_task("s", 0, 0, PopulationSpec())
        )

    @pytest.mark.parametrize(
        ("path", "update", "message"),
        [
            # Used to run "ok" with the NaN silently replaced by the
            # population-derived probability.
            (
                "tenants[0].dispatch",
                {"failure_prob": float("nan")},
                "failure_prob must be a finite number <= 1 (< 0 derives it), got nan",
            ),
            # Used to build and then fail the task mid-run.
            (
                "tenants[0].grades[0]",
                {"device_cpus": float("nan")},
                "device_cpus must be a finite number >= 0, got nan",
            ),
            (
                "tenants[0].dispatch",
                {"kind": "interval", "interval_s": float("nan")},
                "interval_s must be a finite number > 0, got nan",
            ),
            # Used to be accepted, or to fail inside the run without a path.
            ("", {"horizon_s": float("nan")}, "horizon_s must be a finite number > 0, got nan"),
            ("", {"max_time": float("nan")}, "max_time must be a finite number > 0, got nan"),
            ("", {"deviceflow_capacity": float("nan")}, "deviceflow_capacity must be a finite number > 0, got nan"),
            ("", {"cluster_nodes": 2.5}, "cluster_nodes must be an integer >= 1, got 2.5"),
            (
                "tenants[0].arrival",
                {"kind": "trace", "times": [float("nan")]},
                "times must be finite and >= 0, got [nan]",
            ),
            ("tenants[0].arrival", {"period_s": float("nan")}, "period_s must be a finite number > 0, got nan"),
            ("tenants[0].arrival", {"offset_s": -5.0}, "offset_s must be a finite number >= 0, got -5.0"),
            ("tenants[0].arrival", {"count": 2.5}, "count must be an integer >= 1, got 2.5"),
            ("tenants[0].grades[0]", {"n_devices": 0}, "n_devices must be an integer >= 1, got 0"),
            # No tenant derives a failure probability here, so the mixture
            # used to be built (and checked) never.
            (
                "population",
                {"network_mix": [["wifi", -1.0], ["lte", 2.0]]},
                "network_mix weights must be positive and finite, got [-1.0, 2.0]",
            ),
            # Each used to be accepted, then failed every task (or died
            # mid-run, or was truncated) with no error naming the field.
            ("tenants[0].grades[0]", {"bundles": 8.5}, "bundles must be an integer >= 0, got 8.5"),
            ("tenants[0].grades[0]", {"n_phones": 1.5}, "n_phones must be an integer >= 0, got 1.5"),
            ("tenants[0].grades[0]", {"n_benchmark": 0.5}, "n_benchmark must be an integer >= 0, got 0.5"),
            ("faults[0]", {"kind": "phone_crash", "count": 2.5}, "count must be an integer, got 2.5"),
            (
                "population",
                {"timezone_offsets": [[2.5, 1.0], [8, 1.0]]},
                "timezone_offsets offsets must be whole hours, got [2.5, 8]",
            ),
            ("tenants[0]", {"deadline_s": float("nan")}, "deadline_s must be a finite number, got nan"),
            # NaN used to fail every task mid-run; 2.5 was truncated to 2 records.
            (
                "tenants[0]",
                {"records_per_device": float("nan")},
                "records_per_device must be >= 1 (numeric=False) and an integer, got nan",
            ),
            (
                "tenants[0]",
                {"records_per_device": 2.5},
                "records_per_device must be >= 1 (numeric=False) and an integer, got 2.5",
            ),
            # The string is truthy: it used to run numeric FL.
            ("tenants[0]", {"numeric": "false"}, "numeric must be true or false, got 'false'"),
            ("tenants[0]", {"deadline_s": float("inf")}, "deadline_s must be a finite number, got inf"),
            ("transport", {"deadline_s": float("nan")}, "deadline_s must be a finite number, got nan"),
            ("faults[0]", {"at": float("nan")}, "at must be a finite number, got nan"),
            ("faults[0]", {"kind": "phone_crash", "until": float("inf")}, "until must be a finite number, got inf"),
            (
                "faults[0]",
                {"kind": "network_degradation", "until": float("inf"), "factor": 0.5},
                "until must be a finite number, got inf",
            ),
            ("faults[0]", {"until": float("nan")}, "until must be a number (inf: no end), got nan"),
            ("faults[0]", {"factor": float("nan")}, "factor must be a finite number, got nan"),
        ],
    )
    def test_unrunnable_numbers_fail_at_construction_naming_their_path(self, path, update, message):
        data = tiny_scenario(
            faults=[FaultSpec(kind="straggler", at=10.0, until=100.0, factor=2.0)], transport=TransportSpec()
        ).to_dict()
        target = data
        for key in filter(None, path.replace("[", ".").replace("]", "").split(".")):
            target = target[int(key)] if key.isdigit() else target.setdefault(key, {})
        target.update(update)
        prefix = f"{path}." if path else ""
        with pytest.raises(ValueError, match="^" + re.escape(prefix + message) + "$"):
            ScenarioSpec.from_dict(data)

    def test_only_faults_the_kernel_ends_need_a_finite_until(self):
        # A crash's recovery and a degradation's end are scheduled, so they
        # need a time; a straggler or transport window is only compared
        # against, so it may stay open, and the run still finishes.
        for kind in ("phone_crash", "network_degradation"):
            with pytest.raises(ValueError, match=r"^until must be a finite number, got inf$"):
                FaultSpec(kind=kind, at=0.0, until=float("inf"), factor=0.5)
        open_ended = [
            FaultSpec(kind="straggler", at=0.0, until=float("inf"), factor=2.0),
            FaultSpec(kind="message_loss", at=0.0, until=float("inf"), factor=0.5),
            FaultSpec(kind="message_duplication", at=0.0, until=float("inf"), factor=0.5),
            FaultSpec(kind="service_outage", at=100.0, until=float("inf")),
        ]
        runner = ScenarioRunner(tiny_scenario(faults=open_ended))
        runner.run()
        assert [result.state for result in runner.platform.results.values()] == [TaskState.COMPLETED] * 4

    @pytest.mark.parametrize(
        ("path", "update", "message"),
        [
            # Each used to be accepted: NaN passes every range test, and the
            # bounds read ``>= 1`` where an integer belongs.
            ("autoscale", {"cooldown_s": float("nan")}, "cooldown_s must be a finite number >= 0, got nan"),
            ("autoscale", {"node_cpus": float("nan")}, "node_cpus must be a finite number > 0, got nan"),
            ("autoscale", {"step": 1.5}, "step must be an integer >= 1, got 1.5"),
            ("autoscale", {"max_extra_nodes": 2.5}, "max_extra_nodes must be an integer >= 1, got 2.5"),
            ("slas[0]", {"limit": float("nan")}, "limit must be a finite number, got nan"),
            ("slas[0]", {"window_s": float("nan")}, "window_s must be a finite number > 0, got nan"),
            ("alarms[0]", {"warn": float("nan")}, "warn must be a finite number, got nan"),
            ("alarms[0]", {"window_s": float("nan")}, "window_s must be a finite number > 0, got nan"),
            ("alarms[0]", {"min_hold_s": float("nan")}, "min_hold_s must be a finite number >= 0, got nan"),
            ("alarms[0]", {"min_hold_s": float("inf")}, "min_hold_s must be a finite number >= 0, got inf"),
            # [2.5] used to be truncated to [2] when the strategy was built.
            *(
                ("tenants[0].dispatch", {"thresholds": thresholds},
                 f"thresholds must be a non-empty list of integers >= 1, got {thresholds!r}")
                for thresholds in ([0], [], [2.5])
            ),
            # An alarm on a signal the platform never feeds never fires.
            ("alarms[0]", {"signal": "queue_wait_p99"}, "signal 'queue_wait_p99' is not a platform signal"),
        ],
    )
    def test_scenario_numbers_that_cannot_run_fail_at_construction(self, path, update, message):
        data = tiny_scenario(
            alarms=[AlarmRule(name="deep", signal="queue_depth", warn=4.0)],
            slas=[SLASpec(metric="queue_wait_p95", limit=600.0)],
            autoscale=AutoscaleSpec(alarm="deep"),
        ).to_dict()
        target = data
        for key in path.replace("[", ".").replace("]", "").split("."):
            target = target[int(key)] if key.isdigit() else target[key]
        target.update(update)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}.{message}")):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        ("path", "value", "message"),
        [
            # Each used to surface as a bare or misleading error.
            ("tenants[0].arrival", 5, "tenants[0].arrival must be a mapping of fields, got 5"),
            ("tenants", "abc", "tenants must be a list, got 'abc'"),
            ("tenants[0].grades", {"grade": "High"}, "tenants[0].grades must be a list, got {'grade': 'High'}"),
            ("tenants[0].deadline_s", "10", "tenants[0].deadline_s must be a number, got '10'"),
            ("population.dropout_prob", "0.1", "population.dropout_prob must be a number, got '0.1'"),
            # Each used to surface without the field's path: a bare unpacking
            # error, or "peak hours must be within [0, 24)".
            (
                "population.network_mix",
                [["wifi"]],
                "population.network_mix must be a list of [profile, weight] pairs, got [['wifi']]",
            ),
            ("population.night_peak", float("nan"), "population.night_peak must be an hour in [0, 24), got nan"),
            ("population.night_peak", 25, "population.night_peak must be an hour in [0, 24), got 25"),
            ("population.evening_peak", float("nan"), "population.evening_peak must be an hour in [0, 24), got nan"),
            ("population.evening_peak", 25, "population.evening_peak must be an hour in [0, 24), got 25"),
        ],
    )
    def test_a_malformed_scenario_file_fails_naming_its_path(self, path, value, message):
        data = tiny_scenario().to_dict()
        set_at_path(data, path, value)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ScenarioSpec.from_dict(data)

    def test_the_cli_reports_a_malformed_scenario_file_in_one_line(self, tmp_path):
        data = tiny_scenario().to_dict()
        set_at_path(data, "tenants[0].arrival", 5)
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "repro.scenarios", "run", str(spec_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"{spec_path}: tenants[0].arrival must be a mapping of fields, got 5\n"

    def test_uncalibrated_grade_fails_at_schedule_naming_its_path(self):
        spec = tiny_scenario()
        spec.tenants[1].grades.append(GradeSpec(grade="Mid", n_devices=10, bundles=10))
        message = r"^tenants\[1\]\.grades\[1\]\.grade 'Mid' of task .* known grades: \['High', 'Low'\]$"
        with pytest.raises(ValueError, match=message):
            ScenarioRunner(spec).schedule()

    def test_arrival_processes(self):
        rng = RandomStreams(0).get("test.arrivals")
        assert ArrivalSpec(kind="trace", times=[5.0, 1.0]).submission_times(rng) == [1.0, 5.0]
        periodic = ArrivalSpec(kind="periodic", count=3, period_s=60.0, offset_s=30.0)
        assert periodic.submission_times(rng) == [30.0, 90.0, 150.0]
        poisson = ArrivalSpec(kind="poisson", count=50, rate_per_hour=60.0)
        times = poisson.submission_times(RandomStreams(0).get("test.arrivals"))
        assert len(times) == 50
        assert times == sorted(times) and times[0] > 0
        # Mean gap should be in the vicinity of 60s (rate 60/h).
        assert 30.0 < times[-1] / 50 < 120.0

    def test_from_dict_respects_field_defaults(self):
        (tenant,) = ScenarioSpec.from_dict({"name": "s", "tenants": [{"name": "defaults-only"}]}).tenants
        assert len(tenant.grades) == 1  # the documented default grade

    def test_same_length_tenant_names_get_distinct_datasets(self):
        a = TenantSpec(name="model-a").build_task("s", 0, 0, PopulationSpec())
        b = TenantSpec(name="model-b").build_task("s", 0, 0, PopulationSpec())
        assert a.dataset_seed != b.dataset_seed

    def test_population_failure_prob_combines_network_and_dropout(self):
        clean = PopulationSpec(network_mix=[["wifi", 1.0]])
        assert clean.upload_failure_prob() == pytest.approx(0.01)
        flaky = PopulationSpec(network_mix=[["wifi", 1.0]], dropout_prob=0.5)
        assert flaky.upload_failure_prob() == pytest.approx(1 - 0.99 * 0.5)


# ----------------------------------------------------------------------
# deferred submission (the platform-level path the engine rides)
# ----------------------------------------------------------------------
def _small_platform(**kwargs):
    return SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2, **kwargs))


def _small_task(name="deferred"):
    return TaskSpec(
        name=name,
        grades=[
            GradeRequirement(
                grade="High", n_devices=4, bundles=4,
                device_cpus=1, device_memory_gb=1,
            )
        ],
        flow=standard_fl_flow(epochs=1),
        feature_dim=32,
        records_per_device=6,
    )


class TestDeferredSubmission:
    def test_submit_at_delays_queue_entry(self):
        platform = _small_platform()
        spec = _small_task()
        platform.submit(spec, at=50.0)
        assert platform.task_manager.pending_submissions == 1
        assert not platform.task_manager.all_idle
        platform.sim.run(until=49.0)
        assert spec.state is TaskState.PENDING
        platform.run_until_idle(max_time=1e6)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.COMPLETED
        assert result.started_at >= 50.0
        assert platform.task_manager.pending_submissions == 0

    def test_submit_in_the_past_rejected(self):
        platform = _small_platform()
        platform.sim.run(until=100.0)
        with pytest.raises(ValueError):
            platform.submit(_small_task(), at=50.0)

    def test_deferred_matches_immediate_submission_at_same_time(self):
        def run(deferred: bool):
            platform = _small_platform()
            spec = _small_task()
            if deferred:
                platform.submit(spec, at=0.0)
            else:
                platform.submit(spec)
            platform.run_until_idle(max_time=1e6)
            result = platform.result(spec.task_id)
            return (result.makespan, result.rounds[-1].test_loss)

        assert run(True) == run(False)


# ----------------------------------------------------------------------
# determinism (repeat runs and pinned digests)
# ----------------------------------------------------------------------
class TestScenarioDeterminism:
    def test_same_spec_same_seed_byte_identical_report(self):
        first = run_scenario(tiny_scenario())
        second = run_scenario(tiny_scenario())
        assert first.to_json() == second.to_json()

    def test_different_seed_changes_the_run(self):
        first = run_scenario(tiny_scenario(seed=0))
        second = run_scenario(tiny_scenario(seed=1))
        assert first.to_json() != second.to_json()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_library_scenarios_deterministic_at_small_scale(self, name):
        first = run_scenario(build_scenario(name, scale=120, seed=2))
        second = run_scenario(build_scenario(name, scale=120, seed=2))
        assert first.to_json() == second.to_json()
        assert report_digest(first) == REPORT_PINS[name, 120, 2]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_integer_valued_numbers_written_as_ints_leave_the_run_unchanged(self, name):
        """``1500`` and ``1500.0`` make one spec, so one run: report, trace and Monitor times alike."""
        as_is = build_scenario(name, scale=60, seed=1).to_dict()
        as_ints = ints_for_integral_floats(as_is)
        assert repr(as_ints) != repr(as_is) and ScenarioSpec.from_dict(as_ints) == ScenarioSpec.from_dict(as_is)
        runs = []
        for data in (as_is, as_ints):
            runner = ScenarioRunner(ScenarioSpec.from_dict(data), tracer=Tracer())
            report = runner.run()
            trace = runner.trace()
            times = [(event.kind, repr(event.time)) for event in runner.platform.monitor.events]
            runs.append((report.to_json(), trace.to_json(), spans_jsonl(trace), times))
        assert runs[0] == runs[1]


def ints_for_integral_floats(value):
    """``value`` with every integer-valued float rewritten as an int."""
    if isinstance(value, dict):
        return {key: ints_for_integral_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [ints_for_integral_floats(item) for item in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


class TestFlowConservation:
    """Every message a flow task submits is delivered or dropped.

    Whole completion waves move through DeviceFlow as blocks; none may
    lose, duplicate or strand a message, and the report must still equal
    the one the per-device message path produced (``REPORT_PINS``).
    """

    @pytest.mark.parametrize(
        "name", ["flash_crowd", "diurnal_multitenant", "flaky_fleet", "lossy_uplink"]
    )
    def test_block_and_message_paths_conserve_and_agree(self, name):
        runner = ScenarioRunner(build_scenario(name, scale=150, seed=3))
        report = runner.run()
        flows = [r.flow_stats for r in runner.platform.results.values() if r.flow_stats is not None]
        assert flows, "the scenario has no flow-attached task"
        for stats in flows:
            assert stats.shelved == 0
            assert stats.received == (
                stats.delivered + stats.dropped_failure + stats.dropped_discard
            )
            assert stats.dispatched == stats.delivered
        assert runner.platform.deviceflow.task_ids == []
        assert report_digest(report) == REPORT_PINS[name, 150, 3]


# ----------------------------------------------------------------------
# KPIs
# ----------------------------------------------------------------------
class TestFinishedTasksAreReleased:
    def test_no_task_runner_waits_for_the_cyclic_collector(self):
        # Columnar plans allocate few gc-tracked objects, so the collector
        # runs rarely: a finished task caught in a reference cycle (the
        # runner used to hand its tier a bound method of itself) would keep
        # its plans alive and peak memory would grow with the task count.
        from repro.scheduler.task_runner import TaskRunner

        gc.collect()
        gc.disable()
        try:
            runner = ScenarioRunner(tiny_scenario())
            runner.run()
            alive = [o for o in gc.get_objects() if isinstance(o, TaskRunner)]
        finally:
            gc.enable()
        assert alive == []


class TestScenarioReport:
    def test_report_counts_and_kpis(self):
        report = run_scenario(tiny_scenario())
        assert report.total_tasks == 4
        assert set(report.tenants) == {"alpha", "beta"}
        alpha = report.tenants["alpha"]
        assert alpha.submitted == alpha.completed == 2
        assert alpha.makespan.n == 2 and alpha.makespan.mean > 0
        assert alpha.round_duration.n == 4  # 2 tasks x 2 rounds
        assert alpha.updates_expected == 32
        # DeviceFlow dropout (failure_prob=0.1) loses some updates.
        assert alpha.updates_aggregated + alpha.dropout_lost == alpha.updates_expected
        beta = report.tenants["beta"]
        assert beta.final_accuracy is not None and 0.4 < beta.final_accuracy <= 1.0
        assert alpha.final_accuracy is None  # time-only tenant
        assert 0 < report.bundle_utilization < 1
        assert report.fairness == pytest.approx(jain_index(
            [report.tenants[t].turnaround.mean / report.tenants[t].makespan.mean
             for t in ("alpha", "beta")]
        ))

    def test_queue_wait_positive_under_contention(self):
        spec = tiny_scenario(
            cluster_nodes=1,  # 20 bundles: the two tenants cannot co-run
            tenants=[
                TenantSpec(
                    name="hog",
                    priority=9,
                    grades=[GradeSpec(grade="High", n_devices=16, bundles=16)],
                    arrival=ArrivalSpec(kind="trace", times=[0.0]),
                ),
                TenantSpec(
                    name="starved",
                    priority=1,
                    grades=[GradeSpec(grade="High", n_devices=16, bundles=16)],
                    arrival=ArrivalSpec(kind="trace", times=[1.0]),
                ),
            ],
        )
        report = run_scenario(spec)
        assert report.tenants["starved"].queue_wait.mean > 0
        assert report.tenants["hog"].queue_wait.mean < 1.0
        assert report.fairness < 1.0


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_phone_crash_removes_and_recovers_fleet_capacity(self):
        spec = tiny_scenario(
            faults=[FaultSpec(kind="phone_crash", at=5.0, until=400.0, grade="High", count=3)]
        )
        runner = ScenarioRunner(spec)
        before = runner.platform.resource_manager.phones_by_grade()["High"]
        report = runner.run()
        after = runner.platform.resource_manager.phones_by_grade()["High"]
        assert report.fault_events["fault_phone_crash"] == 3
        assert report.fault_events["fault_phone_recover"] == 3
        assert after == before
        assert len(runner.platform._busy_registry) == 0
        crash_times = [e.time for e in runner.platform.monitor.of_kind("fault_phone_crash")]
        assert crash_times == [5.0] * 3

    def test_phone_crash_without_recovery_shrinks_fleet(self):
        spec = tiny_scenario(
            faults=[FaultSpec(kind="phone_crash", at=5.0, grade="Low", count=2)]
        )
        runner = ScenarioRunner(spec)
        before = runner.platform.resource_manager.phones_by_grade()["Low"]
        runner.run()
        assert runner.platform.resource_manager.phones_by_grade()["Low"] == before - 2

    def test_network_degradation_slows_delivery_then_restores(self):
        healthy = run_scenario(tiny_scenario())
        degraded_spec = tiny_scenario(
            faults=[
                FaultSpec(kind="network_degradation", at=0.0, until=2000.0, factor=0.001)
            ]
        )
        runner = ScenarioRunner(degraded_spec)
        report = runner.run()
        assert runner.platform.deviceflow.capacity_scale == 1.0  # restored
        # 0.1% capacity (0.7 msg/s) makes transmission outlast computation,
        # stretching the dispatch tail of the flow-using tenant.
        assert report.tenants["alpha"].makespan.mean > healthy.tenants["alpha"].makespan.mean

    def test_straggler_window_slows_covered_submissions_only(self):
        healthy = run_scenario(tiny_scenario())
        slowed = run_scenario(
            tiny_scenario(
                faults=[
                    FaultSpec(kind="straggler", at=0.0, until=100.0, factor=3.0, tenant="alpha")
                ]
            )
        )
        # alpha's first submission (t=10) is covered, the second (t=210) is not.
        assert slowed.tenants["alpha"].makespan.max > healthy.tenants["alpha"].makespan.max
        # beta unaffected (the untouched tenant's KPIs are identical).
        assert slowed.tenants["beta"] == healthy.tenants["beta"]

    def test_overlapping_degradation_windows_stack_and_unwind(self):
        spec = tiny_scenario(
            faults=[
                FaultSpec(kind="network_degradation", at=0.0, until=500.0, factor=0.5),
                FaultSpec(kind="network_degradation", at=10.0, until=50.0, factor=0.2),
            ]
        )
        runner = ScenarioRunner(spec)
        runner.schedule()
        sim = runner.platform.sim
        flow = runner.platform.deviceflow
        sim.run(until=20.0)
        assert flow.capacity_scale == pytest.approx(0.1)  # both windows open
        sim.run(until=60.0)
        assert flow.capacity_scale == pytest.approx(0.5)  # inner closed, outer holds
        sim.run(until=600.0)
        assert flow.capacity_scale == 1.0

    def test_duplicate_overlapping_windows_restore_by_identity(self):
        """Two field-identical windows must each unwind exactly once.

        Regression: ``_restore_network`` used ``list.remove(fault)``,
        which scans by *equality* — with duplicate windows the wrong list
        entry can be popped, so the fix tracks active windows by object
        identity.  Each restore must drop one (and only one) window.
        """
        window = {"kind": "network_degradation", "at": 10.0, "until": 100.0, "factor": 0.5}
        spec = tiny_scenario(
            faults=[FaultSpec(**window), FaultSpec(**window)]
        )
        assert spec.faults[0] == spec.faults[1]  # equality-keyed removal trap
        runner = ScenarioRunner(spec)
        runner.schedule()
        sim = runner.platform.sim
        flow = runner.platform.deviceflow
        sim.run(until=50.0)
        assert flow.capacity_scale == pytest.approx(0.25)  # both stack
        assert len(runner.faults._active_degradations) == 2
        sim.run(until=150.0)
        assert flow.capacity_scale == 1.0
        assert runner.faults._active_degradations == []
        restored = runner.platform.monitor.of_kind("fault_network_restored")
        assert len(restored) == 2

    def test_fault_covers_submission_filtering(self):
        fault = FaultSpec(kind="straggler", at=10.0, until=20.0, factor=2.0, tenant="a")
        assert fault.covers_submission("a", 10.0)
        assert not fault.covers_submission("a", 20.0)
        assert not fault.covers_submission("b", 15.0)
        anyone = FaultSpec(kind="straggler", at=10.0, until=20.0, factor=2.0)
        assert anyone.covers_submission("b", 15.0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_list_show_run(self, capsys, tmp_path):
        from repro.scenarios.__main__ import main

        assert main(["list"]) == 0
        assert "diurnal_multitenant" in capsys.readouterr().out
        assert main(["show", "flash_crowd", "--scale", "100"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["name"] == "flash_crowd"
        out_path = tmp_path / "report.json"
        assert main(["run", "flash_crowd", "--scale", "100", "--report-json", str(out_path)]) == 0
        assert "flash_crowd" in capsys.readouterr().out
        written = json.loads(out_path.read_text())
        assert written["total_tasks"] == 16

    def test_run_sla_exit_codes(self, capsys):
        from repro.scenarios.__main__ import main

        # autoscale_flash_crowd's SLAs hold -> exit 0 with or without --sla.
        assert main(["run", "autoscale_flash_crowd", "--scale", "120", "--sla"]) == 0
        out = capsys.readouterr().out
        assert "SLA" in out and "VIOLATED" not in out
        assert "observability events" in out

    def test_run_sla_violation_exits_nonzero(self, capsys, monkeypatch):
        from repro.observability import SLASpec
        from repro.scenarios import __main__ as cli

        def impossible(scale=None, seed=0, **_):
            spec = tiny_scenario()
            spec.slas = [SLASpec(metric="queue_wait_p95", limit=-1.0)]
            return spec

        # cli.SCENARIOS is library.SCENARIOS; patching the shared dict
        # reroutes build_scenario too.
        monkeypatch.setitem(cli.SCENARIOS, "flash_crowd", impossible)
        # Without --sla the breach is reported but the exit code stays 0.
        assert cli.main(["run", "flash_crowd"]) == 0
        assert "VIOLATED" in capsys.readouterr().out
        assert cli.main(["run", "flash_crowd", "--sla"]) == 2
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "SLA check failed" in captured.err

    def test_run_past_its_horizon_exits_3_and_names_unfinished_tasks(self, capsys, tmp_path):
        from repro.scenarios.__main__ import main

        # flash_crowd's burst lands at t=300 and the run ends near t=1250:
        # a horizon inside the burst leaves tasks running and not yet arrived.
        assert main(["show", "flash_crowd", "--scale", "100"]) == 0
        shown = json.loads(capsys.readouterr().out)
        shown["max_time"] = 305.0
        spec_path = tmp_path / "short_horizon.json"
        spec_path.write_text(json.dumps(shown))
        assert main(["run", str(spec_path)]) == 3
        captured = capsys.readouterr()
        assert "did not finish" in captured.err and "max_time=305.0" in captured.err
        assert "flash_crowd.crowd.0000: RUNNING" in captured.err
        assert "flash_crowd.crowd.0009: PENDING" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
