"""The Ray Runner: master-node orchestration of the logical tier.

"The master node (Ray Runner) is responsible for data downloading,
distribution, and the configuration of runtime parameters for the simulated
devices" (§IV-A).  :class:`LogicalSimulation` wraps the whole tier: it
reserves a placement group, starts the actors, stages data, and fans rounds
out across them.  An actor is a count: a grade's actors move in lockstep,
so ``prepare`` is three timeouts and a round one wave clock per grade.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.checks import check_count
from repro.cloud.sink import OutcomeSink
from repro.cluster.cluster import K8sCluster
from repro.cluster.cost import LogicalCostModel
from repro.cluster.placement import PlacementGroup
from repro.cluster.resources import ResourceBundle
from repro.cluster.rounds import SlotQueue, TierPlan, TierRounds
from repro.ml.backends import SERVER_BACKEND, NumericBackend
from repro.simkernel import RandomStreams, Simulator, Timeout


@dataclass(kw_only=True)
class GradeExecutionPlan(TierPlan):
    """The logical tier's share of one device grade (see :class:`TierPlan`).

    Attributes
    ----------
    n_actors:
        Concurrent device slots, i.e. requested unit bundles over units
        per device (``f_i / k_i``).
    bundle:
        Composite resource bundle backing each actor.
    """

    n_actors: int
    bundle: ResourceBundle
    backend: NumericBackend = SERVER_BACKEND

    def __post_init__(self) -> None:
        check_count(f"{self.grade!r} plan: n_actors", self.n_actors)
        super().__post_init__()

    def dataset_bytes(self) -> int:
        """Total bytes of local data staged for this grade."""
        return int(self.devices.staged_bytes().sum())


class LogicalSimulation(TierRounds):
    """Facade over the cluster and its actors for one task's logical tier.

    Usage: ``prepare`` (allocates resources, starts actors, stages data)
    then ``run_round`` once per collaboration round, then ``teardown``.
    ``prepare`` and ``run_round`` return process generators to be driven
    by the simulator.
    """

    label = "logical-tier"
    rng_stream = "device.{}.sgd"

    def __init__(
        self, sim: Simulator, cluster: K8sCluster, cost_model: LogicalCostModel, streams: RandomStreams
    ) -> None:
        super().__init__(sim, streams)
        self.cluster = cluster
        self.cost_model = cost_model
        self.plans: list[GradeExecutionPlan] = []
        self.placement_group: PlacementGroup | None = None

    def prepare(self, plans: list[GradeExecutionPlan], task_id: str) -> Generator:
        """Allocate the placement group, start actors, stage datasets.

        Raises ``RuntimeError`` if the cluster cannot host the requested
        bundles — the Task Scheduler should have checked capacity first.
        """
        if self.placement_group is not None:
            raise RuntimeError("LogicalSimulation is already prepared")
        self.task_id = task_id
        self.plans = list(plans)
        bundles: list[ResourceBundle] = []
        for plan in self.plans:
            bundles.extend([plan.bundle] * plan.n_actors)
        if not bundles:
            return
        group = self.cluster.allocate(bundles)
        if group is None:
            raise RuntimeError(
                f"cluster cannot host {len(bundles)} bundles for task {task_id!r}"
            )
        self.placement_group = group

        yield Timeout(self.cost_model.runner_setup)
        # Every actor boots at once and then pulls its grade's per-actor data
        # share; float addition rounds monotonically, so the last pull ends at
        # exactly ``boot + max(pull)``.
        yield Timeout(self.cost_model.actor_startup)
        yield Timeout(
            max(self.cost_model.transfer_duration(plan.dataset_bytes() // plan.n_actors) for plan in self.plans)
        )

    def run_round(
        self,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None,
    ) -> Generator:
        """Execute one round across every grade's actors; barrier at end.

        Every plan rides the wave schedule; ``sink`` is served per plan or
        per completion wave as :class:`~repro.cluster.rounds.TierRounds`
        describes.  The returned process resolves once every device has
        finished, with ``True`` if :meth:`teardown` cut the round short.
        """
        if self.placement_group is None and self.plans:
            raise RuntimeError("call prepare() before run_round()")
        return (yield from self._drive_round(round_index, [], global_weights, global_bias, model_bytes, sink))

    def _numeric_block_size(self, plan: GradeExecutionPlan) -> int:
        """One stacked block per wave: the devices the actors hold at once."""
        return plan.n_actors

    def _completion_times(
        self, plan: GradeExecutionPlan, model_bytes: int, upload_bytes: int
    ) -> tuple[np.ndarray, list[SlotQueue]]:
        """One wave clock for the whole plan.

        Every actor of a grade advances through identical waves, so the
        round reduces to ONE per-wave completion-time vector (the
        interleaved cumsum ``((now + model_dl) + duration) + transfer``
        chain, the float-add order of one actor working through its queue)
        broadcast over the actors active in each wave.  Rows are dealt
        round-robin — wave ``w``, actor ``a`` holds row ``w * n_actors +
        a`` — so the whole plan is one ascending sequence.
        """
        total = len(plan.devices)
        n_actors = plan.n_actors
        cost = self.cost_model
        waves = -(-total // n_actors)
        steps = np.empty(2 * waves + 2, dtype=np.float64)
        steps[0] = self.sim.now
        steps[1] = cost.transfer_duration(model_bytes)  # per-round model download
        steps[2::2] = cost.device_round_duration(plan.grade, plan.flow.total_work)
        steps[3::2] = cost.transfer_duration(upload_bytes)  # per-device result upload
        wave_times = np.cumsum(steps)[3::2]
        # An actor keeps no per-round state: a drained queue settles nothing.
        return np.repeat(wave_times, n_actors)[:total], [(slice(0, total), lambda: None)]

    def teardown(self) -> None:
        """Release the placement group back to the cluster."""
        self._void_rounds()
        if self.placement_group is not None:
            self.cluster.release(self.placement_group)
            self.placement_group = None
