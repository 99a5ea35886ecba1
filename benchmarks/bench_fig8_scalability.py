"""Bench: regenerate Fig. 8 (single-round time vs scale, three simulators).

Also validates the SimDC closed-form round model against an actual
event-driven round of the logical tier at a mid scale, so the sweep's
numbers are anchored to the executable platform rather than free-floating
constants.
"""

from conftest import full_scale

from repro.baselines import SimDCRoundModel
from repro.cluster import (
    DeviceAssignment,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.experiments import format_fig8, run_fig8_scalability
from repro.ml import standard_fl_flow
from repro.simkernel import Simulator


def _sweep_cost_model(total_cores: int) -> LogicalCostModel:
    model = SimDCRoundModel(total_cores=total_cores)
    return LogicalCostModel(
        alpha={"Std": model.device_round_s},
        actor_startup=0.0,
        runner_setup=model.runner_setup_s,
        download_latency=model.download_s / 2,
        download_bandwidth_bps=1e18,
    )


def _sweep_plan(n_devices: int, total_cores: int) -> GradeExecutionPlan:
    return GradeExecutionPlan(
        grade="Std",
        assignments=[DeviceAssignment(f"d{i}", "Std", 10) for i in range(n_devices)],
        n_actors=total_cores,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(),
        numeric=False,
    )


def event_driven_round_time(n_devices: int, total_cores: int = 200) -> float:
    """One actual simulated round of the logical tier at ``n_devices``."""
    nodes = [NodeSpec(cpus=20, memory_gb=30)] * (total_cores // 20)
    sim = Simulator()
    logical = LogicalSimulation(sim, K8sCluster(nodes), _sweep_cost_model(total_cores))
    plan = _sweep_plan(n_devices, total_cores)

    def run():
        start = sim.now
        yield sim.process(logical.prepare([plan]))
        yield sim.process(logical.run_round(1, None, 0.0, 0, None))
        return sim.now - start

    proc = sim.process(run())
    sim.run()
    logical.teardown()
    return proc.result


def test_fig8_scalability(benchmark, persist_result):
    result = benchmark.pedantic(run_fig8_scalability, rounds=1, iterations=1)
    # Shape assertions from the paper's narrative.
    assert result.simdc[0] > result.fedscale[0]
    assert result.simdc[0] > result.federatedscope[0]
    assert result.crossover_scale() <= 10_000
    persist_result("fig8_scalability", format_fig8(result))


def test_fig8_event_driven_anchor(benchmark, persist_result):
    """The closed-form SimDC model matches the executable logical tier."""
    scale = 10_000 if full_scale() else 2_000
    measured = benchmark.pedantic(
        event_driven_round_time, kwargs={"n_devices": scale}, rounds=1, iterations=1
    )
    predicted = SimDCRoundModel().round_time(scale)
    assert abs(measured - predicted) / predicted < 0.25
    persist_result(
        "fig8_event_driven_anchor",
        f"Fig. 8 anchor at n={scale}: event-driven {measured:.1f}s "
        f"vs closed-form {predicted:.1f}s",
    )
