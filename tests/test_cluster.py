"""Unit tests for the logical-simulation cluster substrate."""

from types import SimpleNamespace

import numpy as np
import pytest
from helpers import CallbackSink, WholePlanSink
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.tier_reference import ReferenceLogicalSimulation, all_outcomes, run_per_event

from repro.cluster import (
    DeviceColumns,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.cluster.resources import WorkerNode
from repro.data import SyntheticAvazu
from repro.ml import standard_fl_flow
from repro.simkernel import ProcessError, RandomStreams, Simulator


class TestResourceBundle:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBundle(cpus=-1)
        with pytest.raises(ValueError):
            ResourceBundle(cpus=0, memory_gb=0, gpus=0)
        with pytest.raises(ValueError, match=r"^memory_gb must be a finite number >= 0, got nan$"):
            ResourceBundle(cpus=1, memory_gb=float("nan"))

    def test_units_relative_to_unit_bundle(self):
        unit = ResourceBundle(cpus=1, memory_gb=1)
        high = ResourceBundle(cpus=4, memory_gb=12)
        low = ResourceBundle(cpus=1, memory_gb=6)
        assert high.units_relative_to(unit) == 12
        assert low.units_relative_to(unit) == 6

    def test_units_paper_example(self):
        # §IV-B: a High-grade device requiring 8 unit bundles.
        unit = ResourceBundle(cpus=1, memory_gb=1)
        grade = ResourceBundle(cpus=8, memory_gb=8)
        assert grade.units_relative_to(unit) == 8

    def test_units_missing_dimension_rejected(self):
        unit = ResourceBundle(cpus=1, memory_gb=1, gpus=0)
        with_gpu = ResourceBundle(cpus=1, memory_gb=1, gpus=1)
        with pytest.raises(ValueError):
            with_gpu.units_relative_to(unit)


class TestWorkerNode:
    def test_allocate_release_cycle(self):
        node = WorkerNode("n0", NodeSpec(cpus=8, memory_gb=16))
        bundle = ResourceBundle(cpus=4, memory_gb=12)
        assert node.can_fit(bundle)
        node.allocate(bundle)
        assert not node.can_fit(bundle)
        assert not node.idle
        node.release(bundle)
        assert node.idle

    def test_over_allocation_rejected(self):
        node = WorkerNode("n0", NodeSpec(cpus=2, memory_gb=2))
        with pytest.raises(RuntimeError):
            node.allocate(ResourceBundle(cpus=4, memory_gb=1))

    def test_over_release_detected(self):
        node = WorkerNode("n0", NodeSpec(cpus=2, memory_gb=2))
        with pytest.raises(RuntimeError):
            node.release(ResourceBundle(cpus=1, memory_gb=1))


class TestK8sCluster:
    def test_elastic_scaling(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        node_id = cluster.add_node(NodeSpec(4, 8))
        assert cluster.total_cpus == 8
        cluster.remove_node(node_id)
        assert cluster.total_cpus == 4

    def test_remove_busy_node_rejected(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        group = cluster.allocate([ResourceBundle(cpus=2, memory_gb=2)])
        node_id = group.node_ids[0]
        with pytest.raises(RuntimeError):
            cluster.remove_node(node_id)

    def test_gang_allocation_all_or_nothing(self):
        cluster = K8sCluster([NodeSpec(4, 8), NodeSpec(4, 8)])
        # 3 bundles of 3 CPUs: only 2 fit (one per node); gang must fail
        # without leaking partial allocations.
        bundles = [ResourceBundle(cpus=3, memory_gb=1)] * 3
        assert cluster.allocate(bundles) is None
        assert cluster.free_cpus == 8

    def test_pack_fills_first_node(self):
        cluster = K8sCluster([NodeSpec(8, 16), NodeSpec(8, 16)])
        group = cluster.allocate([ResourceBundle(cpus=2, memory_gb=2)] * 3)
        assert len(set(group.node_ids)) == 1

    def test_release_returns_capacity(self):
        cluster = K8sCluster([NodeSpec(8, 16)])
        group = cluster.allocate([ResourceBundle(cpus=4, memory_gb=4)])
        assert cluster.free_cpus == 4
        cluster.release(group)
        assert cluster.free_cpus == 8

    def test_double_release_rejected(self):
        cluster = K8sCluster([NodeSpec(8, 16)])
        group = cluster.allocate([ResourceBundle(cpus=1, memory_gb=1)])
        cluster.release(group)
        with pytest.raises(RuntimeError):
            cluster.release(group)

    def test_empty_allocation_rejected(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        with pytest.raises(ValueError):
            cluster.allocate([])


class TestLogicalCostModel:
    def test_device_round_duration_scales_with_work(self):
        model = LogicalCostModel(alpha={"High": 10.0})
        assert model.device_round_duration("High", model.flow_reference_work) == 10.0
        assert model.device_round_duration("High", model.flow_reference_work * 2) == 20.0

    def test_unknown_grade(self):
        with pytest.raises(KeyError):
            LogicalCostModel().device_round_duration("Ultra", 10.4)

    def test_transfer_duration(self):
        model = LogicalCostModel()
        small = model.transfer_duration(0)
        large = model.transfer_duration(10**9)
        assert small == pytest.approx(model.download_latency)
        assert large > 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LogicalCostModel(alpha={})
        with pytest.raises(ValueError):
            LogicalCostModel(alpha={"High": -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected_naming_grade_and_value(self, bad):
        with pytest.raises(ValueError, match=rf"^alpha\['Low'\] must be a finite number > 0, got {bad!r}$"):
            LogicalCostModel(alpha={"High": 12.0, "Low": bad})


def paper_cluster():
    """The paper's Ray cluster: 10 nodes of 20 cores / 30 GB."""
    return K8sCluster([NodeSpec(cpus=20, memory_gb=30)] * 10)


def build_plan(n_devices, n_actors, grade="High", numeric=False, flow=None, bundle=None):
    return GradeExecutionPlan(
        grade=grade,
        devices=DeviceColumns([f"d{i}" for i in range(n_devices)], [10] * n_devices),
        n_actors=n_actors,
        bundle=bundle or ResourceBundle(cpus=4, memory_gb=12),
        flow=flow or standard_fl_flow(epochs=1),
        numeric=numeric,
    )


class TestLogicalSimulation:
    def test_time_only_round_makespan(self):
        sim = Simulator()
        cluster = paper_cluster()
        cost = LogicalCostModel(alpha={"High": 10.0}, actor_startup=0.0, runner_setup=0.0,
                                download_latency=0.0, download_bandwidth_bps=1e18)
        logical = LogicalSimulation(sim, cluster, cost, RandomStreams(0))
        flow = standard_fl_flow()  # total_work == reference -> alpha as-is
        plan = build_plan(25, 10, flow=flow)
        outcomes = []

        def run():
            yield sim.process(logical.prepare([plan], task_id="t"))
            started = sim.now
            aborted = yield sim.process(
                logical.run_round(1, None, 0.0, model_bytes=0, sink=CallbackSink(outcomes.append))
            )
            return aborted, sim.now - started

        proc = sim.process(run())
        sim.run()
        aborted, duration = proc.result
        # 25 devices over 10 actors -> 3 waves of 10 s.
        assert duration == pytest.approx(30.0)
        assert aborted is False
        assert len(outcomes) == 25
        logical.teardown()
        assert cluster.free_cpus == cluster.total_cpus

    def test_numeric_round_produces_updates(self):
        sim = Simulator()
        cluster = paper_cluster()
        logical = LogicalSimulation(sim, cluster, LogicalCostModel(), RandomStreams(3))
        data = SyntheticAvazu(n_devices=6, records_per_device=15, feature_dim=128, seed=1).generate()
        plan = GradeExecutionPlan(
            grade="High",
            devices=DeviceColumns.of_shards([data.shard(d) for d in data.device_ids()]),
            n_actors=2,
            bundle=ResourceBundle(cpus=4, memory_gb=12),
            flow=standard_fl_flow(epochs=1),
            feature_dim=128,
            numeric=True,
        )
        updates = []

        def run():
            yield sim.process(logical.prepare([plan], task_id="task"))
            yield sim.process(
                logical.run_round(
                    1, np.zeros(128), 0.0, model_bytes=1024,
                    sink=CallbackSink(lambda o: updates.append(o.update)),
                )
            )

        sim.process(run())
        sim.run()
        assert len(updates) == 6
        assert all(u is not None for u in updates)
        assert {u.device_id for u in updates} == set(data.device_ids())

    def test_insufficient_cluster_rejected(self):
        sim = Simulator()
        cluster = K8sCluster([NodeSpec(2, 2)])
        logical = LogicalSimulation(sim, cluster, LogicalCostModel(), RandomStreams(0))
        plan = build_plan(4, 4)

        def run():
            yield sim.process(logical.prepare([plan], task_id="task"))

        proc = sim.process(run())
        with pytest.raises(ProcessError):
            sim.run()
        assert proc.error is not None

    def test_round_before_prepare_rejected(self):
        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster([NodeSpec(8, 16)]), LogicalCostModel(), RandomStreams(0))
        logical.plans = [build_plan(2, 1)]
        with pytest.raises(RuntimeError):
            list(logical.run_round(1, None, 0.0, 0, CallbackSink(lambda o: None)))

    def test_partition_round_robin(self):
        # 5 devices over 2 actors: actor 0 works rows 0, 2, 4 and actor 1
        # rows 1, 3 — waves of 2, 2 and 1 devices.
        sim = Simulator()
        logical = LogicalSimulation(sim, paper_cluster(), LogicalCostModel(), RandomStreams(0))
        seen = []

        def run():
            yield sim.process(logical.prepare([build_plan(5, 2)], task_id="task"))
            yield sim.process(
                logical.run_round(1, None, 0.0, 0, CallbackSink(lambda o: seen.append((sim.now, o.device_id))))
            )

        sim.process(run())
        sim.run()
        assert [device for _, device in seen] == ["d0", "d1", "d2", "d3", "d4"]
        assert len({time for time, _ in seen}) == 3
        assert seen[0][0] == seen[1][0] < seen[2][0] == seen[3][0] < seen[4][0]

    def test_plan_validation(self):
        """One place, at construction, naming the plan's grade and the field."""
        with pytest.raises(ValueError, match=r"'High' plan: n_actors"):
            build_plan(4, 0)

        def plan(devices, **kwargs):
            return GradeExecutionPlan(
                grade="Std", devices=devices, n_actors=1,
                bundle=ResourceBundle(cpus=1, memory_gb=1), flow=standard_fl_flow(), **kwargs,
            )

        with pytest.raises(ValueError, match=r"'Std' plan: devices\.n_samples must be positive"):
            plan(DeviceColumns(["d0", "d1"], [10, 0]), numeric=False)
        with pytest.raises(ValueError, match=r"'Std' plan: devices\.n_samples has 1 rows for 2"):
            plan(DeviceColumns(["d0", "d1"], [10]), numeric=False)
        with pytest.raises(ValueError, match=r"'Std' plan: devices\.datasets has 0 rows for 1"):
            plan(DeviceColumns(["d0"], [10], datasets=[]), numeric=False)
        with pytest.raises(ValueError, match=r"'Std' plan: numeric=True needs devices\.datasets"):
            plan(DeviceColumns(["d0"], [10]))
        plan(DeviceColumns([], []))  # nothing to train on, nothing to reject

    def test_dataset_bytes_precomputed(self):
        assert build_plan(5, 2).dataset_bytes() == 5 * 64 * 10


def prepare_alone(tier, plans, cost):
    """Drive one ``prepare`` on an otherwise empty kernel: (instant it finished, events fired)."""
    sim = Simulator()
    logical = tier(sim, K8sCluster([NodeSpec(cpus=200, memory_gb=200)]), cost, RandomStreams(0))
    sim.process(logical.prepare(plans, task_id="t"))
    events = 0
    while sim.pending_events:
        events += sim.step_batch()
    return sim.now, events


def staged_plan(grade, n_actors, n_samples):
    return GradeExecutionPlan(
        grade=grade, devices=DeviceColumns([f"{grade}.{i}" for i in range(len(n_samples))], n_samples),
        n_actors=n_actors, bundle=ResourceBundle(cpus=1, memory_gb=1), flow=standard_fl_flow(), numeric=False,
    )


#: Cost constants where float addition does not associate ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)).
COST_SECONDS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e-3, 3.0, 1e9 + 0.1]),
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestPrepare:
    """``prepare`` is three timeouts; the per-actor start-up processes of the oracle decide its instant."""

    @settings(max_examples=150, deadline=None)
    @given(
        grades=st.lists(
            st.tuples(st.integers(1, 64), st.lists(st.integers(1, 10**12), max_size=5)), min_size=1, max_size=3
        ),
        runner_setup=COST_SECONDS,
        actor_startup=COST_SECONDS,
        latency=COST_SECONDS,
        bandwidth=st.one_of(st.sampled_from([0.3, 25e6]), st.floats(min_value=1e-3, max_value=1e12)),
    )
    def test_completion_instant_equals_per_actor_reference(self, grades, runner_setup, actor_startup, latency,
                                                           bandwidth):
        cost = LogicalCostModel(
            runner_setup=runner_setup, actor_startup=actor_startup,
            download_latency=latency, download_bandwidth_bps=bandwidth,
        )
        plans = [staged_plan(f"G{g}", n_actors, n_samples) for g, (n_actors, n_samples) in enumerate(grades)]
        finished, _ = prepare_alone(LogicalSimulation, plans, cost)
        expected, _ = prepare_alone(ReferenceLogicalSimulation, plans, cost)
        assert finished == expected  # bit for bit

    def test_kernel_events_do_not_depend_on_the_actor_count(self):
        one = prepare_alone(LogicalSimulation, [staged_plan("Std", 1, [10] * 400)], LogicalCostModel())
        many = prepare_alone(LogicalSimulation, [staged_plan("Std", 200, [10] * 400)], LogicalCostModel())
        assert one[1] == many[1] == 4  # the process start, then Runner setup, start-up and the data pull


WAVE_NODES = [NodeSpec(cpus=10, memory_gb=20)] * 4
WAVE_COST = LogicalCostModel(alpha={"Std": 11.0}, actor_startup=0.5, runner_setup=4.0)


def run_time_only_round(n_devices: int, reference: bool, sink=None):
    """One prepare + time-only round over 40 actors; returns (round span, streamed outcomes, plan).

    ``reference`` runs the per-device oracle, stepped one event at a time;
    ``sink`` defaults to a :class:`CallbackSink` streaming every outcome.
    """
    sim = Simulator()
    tier = ReferenceLogicalSimulation if reference else LogicalSimulation
    logical = tier(sim, K8sCluster(WAVE_NODES), WAVE_COST, RandomStreams(0))
    plan = build_plan(
        n_devices, 40, grade="Std", flow=standard_fl_flow(), bundle=ResourceBundle(cpus=1, memory_gb=1)
    )
    streamed = []
    span = SimpleNamespace()

    def driver():
        yield sim.process(logical.prepare([plan], task_id="task"))
        span.started_at = sim.now
        yield sim.process(logical.run_round(1, None, 0.0, 4096, sink or CallbackSink(streamed.append)))
        span.finished_at = sim.now

    sim.process(driver())
    if reference:
        run_per_event(sim)
    else:
        sim.run()
    logical.teardown()
    return span, streamed, plan


class TestWaveScheduleIdentity:
    def test_outcomes_bit_identical_to_per_device_reference(self):
        legacy, legacy_streamed, _ = run_time_only_round(403, reference=True)
        batched, batched_streamed, _ = run_time_only_round(403, reference=False)
        assert len(legacy_streamed) == len(batched_streamed) == 403
        for a, b in zip(legacy_streamed, batched_streamed):
            assert a.device_id == b.device_id
            assert a.finished_at == b.finished_at  # bit-identical floats
            assert a.payload_bytes == b.payload_bytes
        assert legacy.started_at == batched.started_at
        assert legacy.finished_at == batched.finished_at

    def test_columnar_materialization_matches_reference(self):
        legacy, legacy_streamed, _ = run_time_only_round(120, reference=True)
        whole = WholePlanSink()
        columnar, streamed, _ = run_time_only_round(120, reference=False, sink=whole)
        assert streamed == []
        assert len(whole.blocks) == 1
        materialized = all_outcomes(whole.blocks)
        assert len(materialized) == 120
        for a, b in zip(legacy_streamed, materialized):
            assert a.device_id == b.device_id
            assert a.finished_at == b.finished_at
        assert legacy.finished_at - legacy.started_at == columnar.finished_at - columnar.started_at

    def test_scalar_reference_times_match_wave_schedule(self):
        """A plain-float re-derivation reproduces the broadcast wave times.

        One actor working through its queue accumulates ``((start +
        model_dl) + duration) + transfer`` with scalar Python floats;
        re-deriving that chain and comparing bit-for-bit against a real
        round pins the interleaved-cumsum implementation from the outside.
        """
        batched, streamed, plan = run_time_only_round(97, reference=False)
        by_device = {o.device_id: o.finished_at for o in streamed}
        for a in (0, 7, 39):
            queue = plan.devices.device_ids[a::40]  # the round-robin layout
            t = batched.started_at + WAVE_COST.transfer_duration(4096)
            assert queue
            for device_id in queue:
                t = t + WAVE_COST.device_round_duration(plan.grade, plan.flow.total_work)
                t = t + WAVE_COST.transfer_duration(4096)
                assert by_device[device_id] == t
