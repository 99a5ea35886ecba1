"""Failure-injection tests: the platform under broken inputs and crashes.

A production scheduler's contract is what happens when things go wrong:
resources must come back, sibling tasks must be unaffected, and failures
must surface as FAILED results rather than hangs.
"""

from collections import Counter

import pytest

from repro import (
    GradeRequirement,
    PlatformConfig,
    RealTimeAccumulatedStrategy,
    SimDC,
    TaskSpec,
    TaskState,
)
from repro.cluster import NodeSpec
from repro.deviceflow import DeviceFlow, MessageBlock
from repro.ml import Operator, OperatorFlow, standard_fl_flow
from repro.ml.operators import DownloadModelOp, TrainOp, UploadUpdateOp
from repro.phones.adb import AdbError, SimulatedAdb
from repro.scenarios import ScenarioRunner, build_scenario
from repro.simkernel import ProcessError, RandomStreams, Simulator


class ExplodingOperator(Operator):
    """Deterministically crashes a chosen device's flow."""

    name = "explode"
    work = 0.1

    def __init__(self, victim_device: str) -> None:
        self.victim_device = victim_device

    def apply_block(self, block) -> None:
        if self.victim_device in block.device_ids:
            raise RuntimeError(f"operator crashed on {self.victim_device}")


def small_platform():
    return SimDC(PlatformConfig(seed=0, cluster_nodes=[NodeSpec(20, 30)] * 2))


def task_with_flow(flow, name="crashy", n_devices=4, rounds=1):
    return TaskSpec(
        name=name,
        grades=[
            GradeRequirement(
                grade="High", n_devices=n_devices, bundles=8, n_phones=1,
                device_cpus=2, device_memory_gb=2,
            )
        ],
        rounds=rounds,
        flow=flow,
        feature_dim=64,
        records_per_device=8,
    )


class TestOperatorCrash:
    def test_crashing_task_marked_failed_and_resources_released(self):
        platform = small_platform()
        flow = OperatorFlow(
            [DownloadModelOp(), ExplodingOperator("dev-000001"), TrainOp(epochs=1), UploadUpdateOp()]
        )
        spec = task_with_flow(flow)
        platform.submit(spec)
        platform.run_until_idle(max_time=1e7)
        result = platform.result(spec.task_id)
        assert result.state is TaskState.FAILED
        assert "operator crashed" in result.error
        # The grant and phones must be back in the pool.
        assert platform.resource_manager.active_grants == 0
        assert len(platform._busy_registry) == 0

    def test_sibling_task_survives_a_crash(self):
        platform = small_platform()
        crashing = task_with_flow(
            OperatorFlow([DownloadModelOp(), ExplodingOperator("dev-000000"), UploadUpdateOp()]),
            name="crashy",
        )
        healthy = task_with_flow(standard_fl_flow(epochs=1), name="healthy")
        platform.submit(crashing)
        platform.submit(healthy)
        platform.run_until_idle(max_time=1e7)
        assert platform.result(crashing.task_id).state is TaskState.FAILED
        assert platform.result(healthy.task_id).state is TaskState.COMPLETED

    def test_queued_task_runs_after_predecessor_crashes(self):
        """Freed capacity from a failed task must unblock the queue."""
        platform = small_platform()  # 40 bundles
        big_crashing = TaskSpec(
            name="big-crashy",
            priority=5,
            grades=[
                GradeRequirement(
                    grade="High", n_devices=4, bundles=30, n_phones=1,
                    device_cpus=2, device_memory_gb=2,
                )
            ],
            flow=OperatorFlow([DownloadModelOp(), ExplodingOperator("dev-000000")]),
            feature_dim=64,
            records_per_device=8,
        )
        queued = TaskSpec(
            name="queued",
            priority=1,
            grades=[
                GradeRequirement(
                    grade="High", n_devices=2, bundles=30, n_phones=1,
                    device_cpus=2, device_memory_gb=2,
                )
            ],
            flow=standard_fl_flow(epochs=1),
            feature_dim=64,
            records_per_device=8,
        )
        platform.submit(big_crashing)
        platform.submit(queued)
        platform.run_until_idle(max_time=1e7)
        assert platform.result(big_crashing.task_id).state is TaskState.FAILED
        assert platform.result(queued.task_id).state is TaskState.COMPLETED


class TestOperatorCrashIsolation:
    """One device's operator failure fails its task and nothing else.

    The victim device is pinned to one tier by a fixed allocation (ids
    ``dev-000000..2`` run on logical actors, ``dev-000003..5`` on phones)
    and the task is flow-attached so all three concrete resources are held
    when it dies.
    """

    @pytest.mark.parametrize("victim", ["dev-000001", "dev-000004"], ids=["logical", "phone"])
    def test_failure_stays_inside_the_task(self, victim):
        platform = small_platform()

        def task(name, flow):
            spec = task_with_flow(flow, name=name, n_devices=6, rounds=2)
            spec.deviceflow_strategy = RealTimeAccumulatedStrategy([2])
            platform.submit(spec, fixed_allocation={"High": 3})
            return spec

        flow = OperatorFlow([DownloadModelOp(), ExplodingOperator(victim), TrainOp(epochs=1), UploadUpdateOp()])
        crashing = task("crashy", flow)
        healthy = task("healthy", standard_fl_flow(epochs=1))
        platform.run_until_idle(max_time=1e7)
        platform.run()  # whatever the dead task left scheduled must be harmless

        failed = platform.result(crashing.task_id)
        assert failed.state is TaskState.FAILED
        assert f"operator crashed on {victim}" in failed.error
        assert platform.cluster.free_cpus == platform.cluster.total_cpus
        assert len(platform._busy_registry) == 0
        assert platform.deviceflow.task_ids == []
        assert platform.resource_manager.active_grants == 0
        survivor = platform.result(healthy.task_id)
        assert survivor.state is TaskState.COMPLETED
        assert [r.n_updates for r in survivor.rounds] == [6, 6]


class TestImpossibleRequests:
    def test_task_larger_than_platform_never_schedules(self):
        platform = small_platform()
        oversized = TaskSpec(
            name="oversized",
            grades=[
                GradeRequirement(
                    grade="High", n_devices=10, bundles=4000, n_phones=0,
                    device_cpus=1, device_memory_gb=1,
                )
            ],
            feature_dim=64,
        )
        platform.submit(oversized)
        platform.sim.run(until=200.0)
        # Still queued: the scheduler keeps skipping it but must not crash.
        assert oversized.state is TaskState.QUEUED
        assert platform.task_manager.active_tasks == 0

    def test_unknown_grade_fails_cleanly(self):
        platform = small_platform()
        spec = TaskSpec(
            name="bad-grade",
            grades=[
                GradeRequirement(
                    grade="Quantum", n_devices=2, bundles=4, n_phones=0,
                    device_cpus=1, device_memory_gb=1,
                )
            ],
            feature_dim=64,
        )
        with pytest.raises(ValueError, match="grade 'Quantum' of task 'bad-grade'"):
            platform.submit(spec)
        # Rejected at the door: nothing was queued, scheduled or reserved.
        assert platform.task_manager.all_idle
        assert platform.resource_manager.active_grants == 0

    def test_phone_shortage_blocks_at_freeze_not_midway(self):
        platform = small_platform()  # 17 High phones exist (4 local + 13 MSP)
        spec = TaskSpec(
            name="phone-hungry",
            grades=[
                GradeRequirement(
                    grade="High", n_devices=4, bundles=4, n_phones=18,
                    device_cpus=1, device_memory_gb=1,
                )
            ],
            feature_dim=64,
        )
        platform.submit(spec)
        platform.sim.run(until=100.0)
        assert spec.state is TaskState.QUEUED  # never started, nothing leaked
        assert platform.resource_manager.active_grants == 0


class TestDeterminismUnderFailure:
    def test_failed_runs_reproducible(self):
        def run_once():
            platform = small_platform()
            spec = task_with_flow(
                OperatorFlow([DownloadModelOp(), ExplodingOperator("dev-000002")]),
            )
            platform.submit(spec)
            platform.run_until_idle(max_time=1e7)
            result = platform.result(spec.task_id)
            return (result.state, result.finished_at, result.error)

        assert run_once() == run_once()


class TestSubscriberContainment:
    """A raising ``Monitor`` subscriber degrades itself, never the run."""

    def test_raising_subscriber_is_detached_mid_scenario(self):
        plain = ScenarioRunner(build_scenario("flash_crowd", scale=120, seed=2))
        baseline = plain.run()

        runner = ScenarioRunner(build_scenario("flash_crowd", scale=120, seed=2))
        monitor = runner.platform.monitor
        flaky_saw, steady_saw = [], []

        def flaky(event):
            flaky_saw.append(event.kind)
            if len(flaky_saw) == 25:
                raise RuntimeError("subscriber bug")

        monitor.subscribe(flaky)
        monitor.subscribe(lambda event: steady_saw.append(event.kind))
        report = runner.run()

        # Detached at the failure: never called again, and the failure is
        # on the log exactly once with the kind it choked on and why.
        assert len(flaky_saw) == 25
        failures = monitor.of_kind("subscriber_failed")
        assert [f.fields for f in failures] == [
            {"event_kind": flaky_saw[-1], "error": "RuntimeError('subscriber bug')"}
        ]
        # The other subscribers (the alarm engine among them) were served
        # every event, the failure notice included.
        assert Counter(steady_saw) == monitor.summary()
        # Same run: the one extra event is the only difference.
        assert len(monitor.events) == len(plain.platform.monitor.events) + 1
        assert report.to_json() == baseline.to_json()


class TestCallbackLoopFailures:
    """Failures inside kernel-callback loops surface where a process's would.

    Framework start-up and the round's drain poll fail the signal their
    awaiting process yields; the DeviceFlow sender, which nobody awaits,
    ends the run with the ``ProcessError`` an unawaited process raises.
    """

    def test_startup_adb_error_fails_only_its_task(self, monkeypatch):
        shell = SimulatedAdb.shell
        failures = []

        def flaky_shell(adb, serial, command):
            if command.startswith("am start") and not failures:
                failures.append((serial, command))
                raise AdbError(f"{serial}: device offline")
            return shell(adb, serial, command)

        monkeypatch.setattr(SimulatedAdb, "shell", flaky_shell)
        platform = small_platform()
        handsets = [task_with_flow(standard_fl_flow(epochs=1), name=f"handsets{i}", n_devices=6) for i in range(2)]
        bulk = task_with_flow(standard_fl_flow(epochs=1), name="bulk")
        bulk.grades[0].n_phones = 0
        platform.submit(handsets[0], fixed_allocation={"High": 3})
        platform.submit(bulk, fixed_allocation={"High": 4})
        platform.submit(handsets[1], fixed_allocation={"High": 3})
        platform.run_until_idle(max_time=1e7)

        failed = platform.result(handsets[0].task_id)
        assert failed.state is TaskState.FAILED
        assert failed.error == repr(AdbError(f"{failures[0][0]}: device offline"))
        assert failed.finished_at == 0.0  # start-up, before any round
        assert platform.result(bulk.task_id).state is TaskState.COMPLETED
        assert platform.result(handsets[1].task_id).state is TaskState.COMPLETED
        assert len(platform._busy_registry) == 0
        assert platform.resource_manager.active_grants == 0

    def test_raising_downstream_aborts_the_run_naming_the_sender(self):
        sim = Simulator()
        flow = DeviceFlow(sim, RandomStreams(0))
        boom = RuntimeError("cloud endpoint down")

        def downstream(segment):
            raise boom

        flow.register_task("t", RealTimeAccumulatedStrategy([1]), downstream)
        flow.round_started("t", 1)
        flow.submit_block(MessageBlock(task_id="t", round_index=1, device_ids=["a", "b"]))
        same_instant = []
        sim.schedule_at(2 / 700, same_instant.append, "fired")
        with pytest.raises(ProcessError, match=r"^process 'dispatcher\.t\.sender' failed with ") as caught:
            sim.run()
        assert caught.value.__cause__ is boom
        # The run ends once the first chunk's batch has fired, not mid-batch.
        assert sim.now == 2 / 700
        assert same_instant == ["fired"]
        assert flow.dispatcher_for("t").delivered == 0

    def test_drain_poll_error_reaches_the_round(self):
        platform = small_platform()
        spec = task_with_flow(standard_fl_flow(epochs=1), name="flowing", n_devices=6)
        spec.deviceflow_strategy = RealTimeAccumulatedStrategy([2])
        platform.submit(spec, fixed_allocation={"High": 3})
        flow = platform.deviceflow
        round_completed = flow.round_completed
        completed_at = []

        def poison_after_compute(task_id, round_index):
            # Nothing writes the discard counter after this; the drain poll
            # reads it, so the poll is what fails.
            round_completed(task_id, round_index)
            flow.dispatcher_for(task_id).dropped_discard = None
            completed_at.append(platform.sim.now)

        flow.round_completed = poison_after_compute
        platform.run_until_idle(max_time=1e7)

        result = platform.result(spec.task_id)
        assert result.state is TaskState.FAILED
        assert result.error == repr(TypeError("unsupported operand type(s) for +: 'int' and 'NoneType'"))
        # The first poll, at the instant the round computed, fails the task:
        # the error went through the round process, not around it.
        assert result.finished_at == completed_at[0]
        assert platform.deviceflow.task_ids == []
        assert len(platform._busy_registry) == 0
        assert platform.resource_manager.active_grants == 0
