"""Quickstart: one federated-learning task on the SimDC platform.

Builds the paper's default deployment (200-core logical cluster, 10 local
+ 20 MSP phones), submits a two-grade CTR training task with a
benchmarking phone per grade, lets the hybrid allocation optimizer split
devices across tiers, and prints what the platform measured.

Run:  python examples/quickstart.py
"""

from repro import GradeRequirement, SimDC, TaskSpec
from repro.ml import standard_fl_flow


def main(n_devices: int = 30, rounds: int = 3, feature_dim: int = 512) -> None:
    """``n_devices`` is per grade; the defaults reproduce the full demo."""
    platform = SimDC()  # the paper's experimental environment, seeded

    task = TaskSpec(
        name="quickstart-ctr",
        grades=[
            GradeRequirement(
                grade="High",
                n_devices=n_devices,
                n_benchmark=1,          # one phone measured while training
                bundles=40,             # 40 unit bundles -> 10 concurrent actors
                n_phones=3,
                device_cpus=4,          # one simulated device: 4 CPUs + 12 GB
                device_memory_gb=12,
            ),
            GradeRequirement(
                grade="Low",
                n_devices=n_devices,
                n_benchmark=1,
                bundles=60,
                n_phones=3,
                device_cpus=1,
                device_memory_gb=6,
            ),
        ],
        rounds=rounds,
        flow=standard_fl_flow(epochs=5, learning_rate=0.05),
        feature_dim=feature_dim,
        records_per_device=20,
    )

    platform.submit(task)
    platform.run_until_idle(max_time=1e7)
    result = platform.result(task.task_id)

    print(f"task {task.task_id}: {result.state.value} in {result.makespan:.0f} simulated seconds")
    allocation = result.allocation
    print(f"allocation ({allocation.solver}): T={allocation.total_time:.0f}s")
    for grade in allocation.grades:
        print(
            f"  {grade.grade}: {grade.logical} devices on the logical tier, "
            f"{grade.physical} on phones"
        )
    print("round-by-round test metrics:")
    for record in result.rounds:
        print(
            f"  round {record.round_index}: {record.n_updates} updates, "
            f"loss={record.test_loss:.4f}, accuracy={record.test_accuracy:.4f}"
        )
    # PhoneMgr's upload: each benchmarking phone's samples and stage boundaries, per round.
    serials = sorted({record.serial for record in result.benchmark_records})
    n_samples = sum(len(record.samples) for record in result.benchmark_records)
    print(f"benchmarking phones sampled: {serials} ({n_samples} samples)")
    for record in result.benchmark_records[:2]:
        for summary in record.stage_summaries():
            print(
                f"  {record.serial} stage {summary.stage} ({summary.label}): "
                f"{summary.power_mah:.3f} mAh over {summary.duration_min:.2f} min"
            )


if __name__ == "__main__":
    main()
