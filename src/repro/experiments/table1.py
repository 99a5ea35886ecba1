"""Table I: physical performance metrics per APK lifecycle stage.

The paper simulates 500 High + 500 Low devices with 5 benchmarking phones
per grade and reports, for the first training round, per-stage average
power (mAh), duration (min) and communication volume (KB).  Here the same
task shape runs on the platform (time-mode computation — the measured
quantities are physical, not numeric) and the rows are reconstructed from
the sampled ADB metrics exactly as PhoneMgr uploads them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.cluster import NodeSpec
from repro.core import PlatformConfig, SimDC
from repro.experiments.render import format_table
from repro.scheduler.task import GradeRequirement, TaskSpec

#: Paper values for EXPERIMENTS.md comparison: (grade, stage) -> (mAh, min).
PAPER_TABLE1 = {
    ("High", 1): (0.24, 0.25), ("High", 2): (0.51, 0.25), ("High", 3): (0.18, 0.27),
    ("High", 4): (0.37, 0.25), ("High", 5): (0.44, 0.25),
    ("Low", 1): (1.71, 0.25), ("Low", 2): (1.80, 0.25), ("Low", 3): (0.66, 0.36),
    ("Low", 4): (1.65, 0.25), ("Low", 5): (1.82, 0.25),
}
PAPER_TRAINING_COMM_KB = 33.10


@dataclass
class StageMetricsResult:
    """Averaged Table-I rows: (grade, stage, label, mAh, min, KB)."""

    rows: list[tuple[str, int, str, float, float, float]] = field(default_factory=list)
    n_benchmark_per_grade: int = 0

    def row(self, grade: str, stage: int) -> tuple[str, int, str, float, float, float]:
        """Lookup one (grade, stage) row."""
        for entry in self.rows:
            if entry[0] == grade and entry[1] == stage:
                return entry
        raise KeyError(f"no row for {grade!r} stage {stage}")


def run_table1_stage_metrics(
    n_devices_per_grade: int = 100,
    n_benchmark_per_grade: int = 5,
    seed: int = 0,
) -> StageMetricsResult:
    """Run the Table-I task and average stage metrics across phones.

    ``n_devices_per_grade`` scales the surrounding computation (the paper
    uses 500); the benchmarking protocol itself is scale-independent.
    """
    config = PlatformConfig(seed=seed, cluster_nodes=[NodeSpec(20, 30)] * 10)
    platform = SimDC(config)
    spec = TaskSpec(
        name="table1",
        grades=[
            GradeRequirement(
                grade="High",
                n_devices=n_devices_per_grade,
                n_benchmark=n_benchmark_per_grade,
                bundles=40,
                n_phones=8,
                device_cpus=4, device_memory_gb=12,
            ),
            GradeRequirement(
                grade="Low",
                n_devices=n_devices_per_grade,
                n_benchmark=n_benchmark_per_grade,
                bundles=60,
                n_phones=6,
                device_cpus=1, device_memory_gb=6,
            ),
        ],
        rounds=1,
        numeric=False,
        feature_dim=4096,  # -> ~33 KB model payload, Table I's comm volume
    )
    platform.submit(spec)
    platform.run_until_idle(max_time=1e8)
    result = platform.result(spec.task_id)

    # Average each stage over the grade's benchmarking phones.
    buckets: dict[tuple[str, int], list] = defaultdict(list)
    serial_grade = {p.serial: p.spec.grade for p in platform.phones}
    for record in result.benchmark_records:
        grade = serial_grade[record.serial]
        for summary in record.stage_summaries():
            buckets[(grade, summary.stage)].append(summary)
    rows = []
    for grade in ("High", "Low"):
        for stage in range(1, 6):
            summaries = buckets[(grade, stage)]
            rows.append(
                (
                    grade,
                    stage,
                    summaries[0].label,
                    sum(s.power_mah for s in summaries) / len(summaries),
                    sum(s.duration_min for s in summaries) / len(summaries),
                    sum(s.comm_kb for s in summaries) / len(summaries),
                )
            )
    return StageMetricsResult(rows=rows, n_benchmark_per_grade=n_benchmark_per_grade)


def format_table1(result: StageMetricsResult) -> str:
    """Render measured-vs-paper Table I."""
    rows = []
    for grade, stage, label, mah, minutes, kb in result.rows:
        paper_mah, paper_min = PAPER_TABLE1[(grade, stage)]
        rows.append(
            (
                grade, stage, label, round(mah, 3), paper_mah,
                round(minutes, 3), paper_min,
                round(kb, 2) if stage == 3 else "",
                PAPER_TRAINING_COMM_KB if stage == 3 else "",
            )
        )
    return format_table(
        "Table I: physical performance metrics during simulation",
        ["Grade", "Stage", "Label", "Power mAh", "paper", "Dur min", "paper", "Comm KB", "paper"],
        rows,
    )
