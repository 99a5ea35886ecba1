"""Direct unit tests of TaskManager (fake runners, no heavy substrates)."""

import pytest

from repro.cloud import Monitor
from repro.cluster import K8sCluster, NodeSpec, ResourceBundle
from repro.scheduler import GradeRequirement, ResourceManager, TaskManager, TaskSpec, TaskState
from repro.scheduler.task_runner import TaskResult
from repro.simkernel import Simulator, Timeout


class FakeRunner:
    """Stands in for TaskRunner: sleeps, then succeeds or fails."""

    def __init__(self, sim, spec, duration=10.0, fail=False):
        self.sim = sim
        self.spec = spec
        self.duration = duration
        self.fail = fail
        self.result = None

    def run(self):
        self.spec.state = TaskState.RUNNING
        started = self.sim.now
        yield Timeout(self.duration)
        if self.fail:
            self.spec.state = TaskState.FAILED
            self.result = TaskResult(
                task_id=self.spec.task_id, state=TaskState.FAILED, allocation=None,
                started_at=started, finished_at=self.sim.now, error="fake failure",
            )
            raise RuntimeError("fake failure")
        self.spec.state = TaskState.COMPLETED
        self.result = TaskResult(
            task_id=self.spec.task_id, state=TaskState.COMPLETED, allocation=None,
            started_at=started, finished_at=self.sim.now,
        )
        return self.result


def build(durations=None, failures=(), bundles_capacity=20):
    sim = Simulator()
    cluster = K8sCluster([NodeSpec(cpus=bundles_capacity, memory_gb=bundles_capacity)])
    rm = ResourceManager(cluster, [], ResourceBundle(cpus=1.0, memory_gb=1.0))
    durations = durations or {}

    def factory(spec):
        return FakeRunner(
            sim, spec,
            duration=durations.get(spec.name, 10.0),
            fail=spec.name in failures,
        )

    manager = TaskManager(sim, rm, factory, Monitor(sim))
    return sim, rm, manager


def make_spec(name, bundles=5, priority=0):
    return TaskSpec(
        name=name,
        priority=priority,
        grades=[
            GradeRequirement(
                grade="High", n_devices=2, bundles=bundles, n_phones=0,
                device_cpus=1, device_memory_gb=1,
            )
        ],
    )


class TestTaskManagerLifecycle:
    def test_single_task_completes(self):
        sim, rm, manager = build()
        spec = manager.submit(make_spec("a"))
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        assert manager.result_of(spec.task_id).state is TaskState.COMPLETED
        assert rm.active_grants == 0

    def test_result_of_unknown_task(self):
        _, _, manager = build()
        with pytest.raises(KeyError):
            manager.result_of("ghost")

    def test_concurrent_when_capacity_allows(self):
        sim, _, manager = build(durations={"a": 10.0, "b": 10.0})
        a = manager.submit(make_spec("a", bundles=8))
        b = manager.submit(make_spec("b", bundles=8))
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        ra, rb = manager.result_of(a.task_id), manager.result_of(b.task_id)
        assert ra.started_at == rb.started_at  # both scheduled in one pass

    def test_serialised_when_capacity_short(self):
        sim, _, manager = build(durations={"a": 10.0, "b": 10.0})
        a = manager.submit(make_spec("a", bundles=15, priority=2))
        b = manager.submit(make_spec("b", bundles=15, priority=1))
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        ra, rb = manager.result_of(a.task_id), manager.result_of(b.task_id)
        assert rb.started_at >= ra.finished_at

    def test_completion_triggers_immediate_reschedule(self):
        """The queued task starts when capacity frees, not at the tick."""
        sim, _, manager = build(durations={"a": 7.0, "b": 1.0})
        manager.submit(make_spec("a", bundles=15))
        b = manager.submit(make_spec("b", bundles=15))
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        assert manager.result_of(b.task_id).started_at == pytest.approx(7.0)

    def test_failed_runner_releases_and_unblocks(self):
        sim, rm, manager = build(durations={"a": 5.0}, failures={"a"})
        a = manager.submit(make_spec("a", bundles=15))
        b = manager.submit(make_spec("b", bundles=15))
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        assert manager.result_of(a.task_id).state is TaskState.FAILED
        assert manager.result_of(b.task_id).state is TaskState.COMPLETED
        assert rm.active_grants == 0

    def test_priority_order_respected(self):
        """With both tasks queued behind a blocker, priority wins."""
        sim, _, manager = build(durations={"blocker": 8.0, "low": 5.0, "high": 5.0})
        manager.submit(make_spec("blocker", bundles=20))
        low = manager.submit(make_spec("low", bundles=15, priority=1))
        high = manager.submit(make_spec("high", bundles=15, priority=9))
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        assert (
            manager.result_of(high.task_id).started_at
            < manager.result_of(low.task_id).started_at
        )

    def test_all_idle_is_a_flag_set_where_a_task_is_queued_deferred_or_ends(self):
        """The flag ``run_until_idle`` reads each batch tracks the queue, the runners and the deferrals."""
        sim, _, manager = build(durations={"a": 4.0, "b": 4.0, "late": 2.0})
        assert "all_idle" in vars(manager) and manager.all_idle  # a plain attribute, not a property
        manager.submit_at(make_spec("late", bundles=5), 20.0)
        assert not manager.all_idle  # a deferred arrival counts
        manager.submit(make_spec("a", bundles=15))
        manager.submit(make_spec("b", bundles=15))
        idle_at = []
        sim.schedule_at(6.0, lambda: idle_at.append(manager.all_idle))  # b queued behind a, then running
        sim.schedule_at(10.0, lambda: idle_at.append(manager.all_idle))  # both done, late not yet arrived
        sim.run_until(lambda: manager.all_idle, max_time=1e6)
        assert idle_at == [False, False] and sim.now == 22.0
        assert manager.all_idle == (not manager.queue and not manager.running and manager.pending_submissions == 0)


class TestExperimentsCli:
    def test_list_names(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig11" in out

    def test_run_fast_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig7", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Optimization" in out
        assert "regenerated in" in out

    def test_unknown_name_errors(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
