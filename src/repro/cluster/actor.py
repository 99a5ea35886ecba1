"""Actors: the concurrent device slots of the logical simulation.

"This master node utilizes Ray's distributed computing framework to
directly launch placement groups of actors on worker nodes, with each actor
sequentially simulating multiple devices" (§IV-A).  An actor therefore owns
one composite resource bundle and works through its queue of simulated
devices one at a time; a grade with ``f`` requested unit bundles and ``k``
units per device runs ``f/k`` actors concurrently.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.cluster.cost import LogicalCostModel
from repro.simkernel import Simulator, Timeout


class SimActor:
    """A sequential device-execution slot on the logical tier.

    Parameters
    ----------
    sim:
        Shared simulator.
    actor_id:
        Unique id.
    grade:
        Device grade this actor simulates.
    cost_model:
        Simulated-time cost constants.
    """

    def __init__(self, sim: Simulator, actor_id: str, grade: str, cost_model: LogicalCostModel) -> None:
        self.sim = sim
        self.actor_id = actor_id
        self.grade = grade
        self.cost_model = cost_model
        self.devices_completed = 0

    def startup(self) -> Generator:
        """Actor creation + runtime parameter configuration."""
        yield Timeout(self.cost_model.actor_startup)

    def download(self, n_bytes: int) -> Generator:
        """Pull data or model bytes from shared storage."""
        yield Timeout(self.cost_model.transfer_duration(n_bytes))
