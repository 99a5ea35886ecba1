"""Fig. 5: CPU and memory trace of one benchmarking device over 3 rounds.

"Performance measurement starts with the APK launch, and no data is
recorded during the device's wait for global aggregation to complete."
The trace comes straight out of the cloud metrics database that PhoneMgr
uploads samples to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import NodeSpec
from repro.cluster.resources import ResourceBundle
from repro.core import PlatformConfig, SimDC
from repro.experiments.render import format_table
from repro.scheduler.task import GradeRequirement, TaskSpec


@dataclass
class DeviceTraceResult:
    """The sampled series of one benchmarking phone."""

    serial: str
    times: list[float] = field(default_factory=list)
    cpu_percent: list[float] = field(default_factory=list)
    memory_mb: list[float] = field(default_factory=list)
    round_windows: list[tuple[float, float]] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        """Total samples collected."""
        return len(self.times)

    def gaps(self) -> list[tuple[float, float]]:
        """Unsampled intervals between consecutive round windows."""
        out = []
        for (_, end), (start, _) in zip(self.round_windows, self.round_windows[1:]):
            out.append((end, start))
        return out


def run_fig5_device_trace(rounds: int = 3, seed: int = 0) -> DeviceTraceResult:
    """Run a 3-round task with one benchmarking phone; return its trace."""
    config = PlatformConfig(seed=seed, cluster_nodes=[NodeSpec(20, 30)] * 2)
    platform = SimDC(config)
    spec = TaskSpec(
        name="fig5",
        grades=[
            GradeRequirement(
                grade="High",
                n_devices=8,
                n_benchmark=1,
                bundles=8,
                n_phones=2,
                device_bundle=ResourceBundle(cpus=4, memory_gb=12),
            )
        ],
        rounds=rounds,
        numeric=False,
        feature_dim=4096,
    )
    platform.submit(spec)
    platform.run_until_idle(max_time=1e8)
    result = platform.result(spec.task_id)
    serial = result.benchmark_records[0].serial
    samples = platform.db.query("device_samples", task_id=spec.task_id, serial=serial)
    samples.sort(key=lambda r: r["time"])
    trace = DeviceTraceResult(serial=serial)
    for row in samples:
        trace.times.append(row["time"])
        trace.cpu_percent.append(row["cpu_percent"])
        trace.memory_mb.append(row["memory_kb"] / 1024.0)
    for record in result.benchmark_records:
        if record.serial == serial:
            start = min(s for _, s, _ in record.boundaries)
            end = max(e for _, _, e in record.boundaries)
            trace.round_windows.append((start, end))
    trace.round_windows.sort()
    return trace


def format_fig5(trace: DeviceTraceResult) -> str:
    """Render a view of the trace down-sampled to a dozen rows, plus the inter-round gaps."""
    if trace.n_samples == 0:
        return "Fig. 5: no samples collected"
    step = max(1, trace.n_samples // 12)
    rows = [
        (round(trace.times[i], 1), round(trace.cpu_percent[i], 2), round(trace.memory_mb[i], 2))
        for i in range(0, trace.n_samples, step)
    ]
    table = format_table(
        f"Fig. 5: benchmarking device {trace.serial} trace "
        f"({trace.n_samples} samples, {len(trace.round_windows)} rounds)",
        ["time s", "CPU %", "memory MB"],
        rows,
    )
    gaps = ", ".join(f"[{a:.0f}s..{b:.0f}s]" for a, b in trace.gaps())
    return table + f"\nno-data windows while waiting for aggregation: {gaps or 'none'}"
