"""Fig. 10: rule-based dispatch strategies, end to end through DeviceFlow.

(a)/(b): specific time-point dispatching — amounts sent at designated
points, with the cloud receiving each burst spread over subsequent
instants because of the 700 msg/s single-threaded transmission cap.

(c)/(d): specific time-interval dispatching — a right-tailed N(0,1) curve
scaled to a 1-minute window and 10,000 messages; the realised per-second
send amounts track the curve and the cloud-side cumulative count ramps
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.deviceflow import (
    DeviceFlow,
    MessageBlock,
    TimeIntervalStrategy,
    TimePoint,
    TimePointStrategy,
    right_tailed_normal,
)
from repro.experiments.render import format_table
from repro.simkernel import RandomStreams, Simulator


@dataclass
class DispatchDemoResult:
    """Send/receive series for both rule-based mechanisms."""

    point_dispatches: list[tuple[float, int]] = field(default_factory=list)
    point_cumulative_received: list[tuple[float, int]] = field(default_factory=list)
    interval_dispatches: list[tuple[float, int]] = field(default_factory=list)
    interval_curve: list[tuple[float, float]] = field(default_factory=list)
    interval_cumulative_received: list[tuple[float, int]] = field(default_factory=list)
    interval_total: int = 0

    def received_total(self, series: list[tuple[float, int]]) -> int:
        """Final cumulative count of a receive series."""
        return series[-1][1] if series else 0


def _run_flow(strategy, n_messages: int, capacity: float, seed: int):
    sim = Simulator()
    flow = DeviceFlow(sim, streams=RandomStreams(seed), capacity_per_second=capacity)
    received: list[tuple[float, int]] = []

    def downstream(segment: MessageBlock) -> None:
        # One point of the cumulative series per message of the delivered chunk.
        count = len(received)
        received.extend((sim.now, count + row) for row in range(1, len(segment) + 1))

    flow.register_task("demo", strategy, downstream)
    flow.round_started("demo", 1)
    flow.submit_block(
        MessageBlock(task_id="demo", round_index=1, device_ids=[f"d{i}" for i in range(n_messages)])
    )
    flow.round_completed("demo", 1)
    base = sim.now
    sim.run()
    dispatcher = flow.dispatcher_for("demo")
    dispatches = [(t - base, n) for t, n in dispatcher.dispatch_log]
    cumulative = [(t - base, n) for t, n in received]
    return dispatches, cumulative


def run_fig10_dispatch_demo(
    interval_messages: int = 10_000,
    interval_seconds: float = 60.0,
    capacity: float = 700.0,
    seed: int = 0,
) -> DispatchDemoResult:
    """Run both panels' scenarios through a real DeviceFlow instance."""
    result = DispatchDemoResult(interval_total=interval_messages)

    # (a)/(b): three designated time points with fixed quantities.
    points = [TimePoint(0.0, 200), TimePoint(10.0, 400), TimePoint(30.0, 600)]
    result.point_dispatches, result.point_cumulative_received = _run_flow(
        TimePointStrategy(points), n_messages=1200, capacity=capacity, seed=seed
    )

    # (c)/(d): right-tailed N(0,1) over one minute, 10k messages.
    curve = right_tailed_normal(1.0)
    strategy = TimeIntervalStrategy(curve, interval_seconds=interval_seconds)
    result.interval_dispatches, result.interval_cumulative_received = _run_flow(
        strategy, n_messages=interval_messages, capacity=capacity, seed=seed
    )
    grid = np.linspace(0.0, interval_seconds, 61)
    scaled = curve.to_actual_time(interval_seconds)(grid)
    result.interval_curve = [(float(t), float(v)) for t, v in zip(grid, scaled)]
    return result


def format_fig10(result: DispatchDemoResult) -> str:
    """Render the four panels as compact tables."""
    part_a = format_table(
        "Fig. 10(a): time-point dispatch amounts",
        ["t (s)", "messages sent"],
        [(round(t, 2), n) for t, n in result.point_dispatches],
    )
    received_b = result.received_total(result.point_cumulative_received)
    sample_b = result.point_cumulative_received[:: max(1, len(result.point_cumulative_received) // 8)]
    part_b = format_table(
        f"Fig. 10(b): cloud cumulative receipt (total {received_b})",
        ["t (s)", "cumulative"],
        [(round(t, 2), n) for t, n in sample_b],
    )
    # Bucket the interval dispatches per second for panel (c).
    buckets: dict[int, int] = {}
    for t, n in result.interval_dispatches:
        buckets[int(t)] = buckets.get(int(t), 0) + n
    part_c = format_table(
        "Fig. 10(c): per-second dispatch amounts vs traffic function",
        ["t (s)", "sent", "f(t)"],
        [
            (second, buckets.get(second, 0), round(dict(result.interval_curve).get(float(second), 0.0), 4))
            for second in range(0, 60, 5)
        ],
    )
    received_d = result.received_total(result.interval_cumulative_received)
    part_d = f"Fig. 10(d): cloud received {received_d}/{result.interval_total} messages"
    return "\n\n".join([part_a, part_b, part_c, part_d])
