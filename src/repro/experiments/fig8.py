"""Fig. 8: single-round time vs device scale for three simulators.

"For fewer than 1,000 devices, the single-round training time of SimDC is
larger than that of the other two frameworks ... The single-round training
times of SimDC and FederatedScope are comparable at large scales ...
While FedScale appears faster, its simulation deviate[s] significantly
from real-world scenarios."

SimDC's column is measured: one time-only direct round through the
logical tier (:class:`~repro.cluster.LogicalSimulation`) at each scale,
costed by :class:`~repro.cluster.LogicalCostModel` with its default
actor-startup, Runner-setup and download overheads and a per-device alpha
of 2.5 s.  The FedScale- and FederatedScope-like columns are the
closed-form models of :mod:`repro.baselines`, which stand in for systems
that are not part of this platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import FedScaleLikeSimulator, FederatedScopeLikeSimulator
from repro.checks import check_count
from repro.cluster import (
    DeviceColumns,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.cluster.rounds import IdColumn, IdTable
from repro.experiments.render import format_table
from repro.ml import standard_fl_flow
from repro.simkernel import RandomStreams, Simulator

DEFAULT_SCALES: tuple[int, ...] = (100, 316, 1000, 3162, 10_000, 31_623, 100_000)

#: Per-device operator-flow duration of one Std-grade device on an actor.
SIMDC_ALPHA_S = 2.5


@dataclass
class ScalabilityResult:
    """Round time (s) per simulator per scale."""

    scales: list[int] = field(default_factory=list)
    simdc: list[float] = field(default_factory=list)
    fedscale: list[float] = field(default_factory=list)
    federatedscope: list[float] = field(default_factory=list)

    def crossover_scale(self) -> int:
        """First scale where SimDC is within 20% of FederatedScope."""
        for scale, ours, theirs in zip(self.scales, self.simdc, self.federatedscope):
            if ours <= theirs * 1.2:
                return scale
        return self.scales[-1]


def _simdc_round_time(n_devices: int, total_cores: int) -> float:
    """Simulated seconds of one time-only logical round: ``prepare`` + ``run_round``."""
    plan = GradeExecutionPlan(
        grade="Std",
        devices=DeviceColumns(IdColumn(IdTable("d", n_devices), range(n_devices)), np.full(n_devices, 10)),
        n_actors=total_cores,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(),
        numeric=False,
    )
    sim = Simulator()
    nodes = [NodeSpec(cpus=20, memory_gb=30)] * math.ceil(total_cores / 20)
    cost = LogicalCostModel(alpha={"Std": SIMDC_ALPHA_S})
    logical = LogicalSimulation(sim, K8sCluster(nodes), cost, RandomStreams(0))

    def round_():
        yield sim.process(logical.prepare([plan], task_id="fig8"))
        yield sim.process(logical.run_round(1, None, 0.0, 0, None))
        return sim.now

    proc = sim.process(round_())
    sim.run()
    logical.teardown()
    return proc.result


def run_fig8_scalability(
    scales: tuple[int, ...] = DEFAULT_SCALES,
    total_cores: int = 200,
) -> ScalabilityResult:
    """Run SimDC's logical tier and the two baseline models over the device scales."""
    fedscale = FedScaleLikeSimulator(total_cores=total_cores)  # checks total_cores
    for scale in scales:
        check_count("scales", scale)
    federatedscope = FederatedScopeLikeSimulator()
    result = ScalabilityResult(scales=list(scales))
    for scale in scales:
        result.simdc.append(_simdc_round_time(scale, total_cores))
        result.fedscale.append(fedscale.round_time(scale))
        result.federatedscope.append(federatedscope.round_time(scale))
    return result


def format_fig8(result: ScalabilityResult) -> str:
    """Render the scalability table and key shape statements."""
    rows = [
        (scale, round(ours, 1), round(fs, 1), round(fscope, 1))
        for scale, ours, fs, fscope in zip(
            result.scales, result.simdc, result.fedscale, result.federatedscope
        )
    ]
    table = format_table(
        "Fig. 8: average single-round time (s) vs number of simulated devices",
        ["devices", "SimDC", "FedScale", "FederatedScope"],
        rows,
    )
    notes = [
        f"SimDC comparable to FederatedScope from ~{result.crossover_scale()} devices",
        "FedScale fastest throughout (no device-cloud communication)",
    ]
    return table + "\n" + "\n".join(notes)
