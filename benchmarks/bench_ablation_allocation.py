"""Ablation: the hybrid allocation optimizer.

Three studies around the §IV-B design choice:

* *optimizer-vs-fixed sweep* — how much makespan the optimizer saves over
  the best fixed ratio as the High/Low mix varies;
* *solver agreement* — the exact candidate search against the scipy MILP
  encoding on randomized instances;
* *solver scaling* — candidate-search latency as device counts grow
  (the scheduler runs it on every task submission).
"""

import sys
from pathlib import Path

import numpy as np

from conftest import full_scale

from repro.experiments.fig6 import TYPE_RATIOS
from repro.experiments.fig7 import paper_problem
from repro.experiments.render import format_table
from repro.scheduler.allocation import (
    AllocationProblem,
    GradeAllocationParams,
    fixed_ratio_allocation,
    solve_allocation,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # the MILP encoding is a test oracle
from reference.allocation_reference import solve_allocation_milp  # noqa: E402


def optimizer_saving_sweep():
    """Makespan saving of the optimizer vs the best fixed ratio."""
    rows = []
    for n_high, n_low in ((50, 450), (250, 250), (450, 50), (100, 100), (500, 500)):
        problem = paper_problem(n_high, n_low)
        best_fixed = min(
            fixed_ratio_allocation(problem, f).total_time for _, f in TYPE_RATIOS
        )
        optimal = solve_allocation(problem).total_time
        rows.append((n_high, n_low, round(best_fixed, 1), round(optimal, 1),
                     round(100.0 * (best_fixed - optimal) / best_fixed, 2)))
    return rows


def test_optimizer_saving_sweep(benchmark, persist_result):
    rows = benchmark.pedantic(optimizer_saving_sweep, rounds=3, iterations=1)
    for _, _, best_fixed, optimal, _ in rows:
        assert optimal <= best_fixed + 1e-9
    persist_result(
        "ablation_allocation_saving",
        format_table(
            "Ablation: optimizer vs best fixed ratio",
            ["High", "Low", "best fixed (s)", "optimizer (s)", "saving %"],
            rows,
        ),
    )


def random_instances(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        grades = []
        for grade in ("High", "Low"):
            k = int(rng.integers(1, 8))
            grades.append(
                GradeAllocationParams(
                    grade=grade,
                    n_devices=int(rng.integers(1, 120)),
                    bundles=k * int(rng.integers(1, 15)),
                    units_per_device=k,
                    n_phones=int(rng.integers(1, 20)),
                    alpha=float(rng.uniform(1.0, 40.0)),
                    beta=float(rng.uniform(1.0, 40.0)),
                    lam=float(rng.uniform(0.0, 120.0)),
                )
            )
        instances.append(AllocationProblem(grades))
    return instances


def test_milp_agrees_with_search(benchmark, persist_result):
    instances = random_instances(20 if full_scale() else 8)

    def agree():
        worst_gap = 0.0
        for problem in instances:
            search = solve_allocation(problem)
            milp = solve_allocation_milp(problem)
            gap = abs(search.total_time - milp.total_time)
            worst_gap = max(worst_gap, gap)
        return worst_gap

    worst_gap = benchmark.pedantic(agree, rounds=1, iterations=1)
    assert worst_gap < 1e-6
    persist_result(
        "ablation_allocation_milp_agreement",
        f"Exact search vs scipy MILP on {len(instances)} random 2-grade "
        f"instances: worst makespan gap = {worst_gap:.2e} s",
    )


def test_search_solver_scaling(benchmark, persist_result):
    scale = 100_000 if full_scale() else 20_000

    def solve_large():
        problem = paper_problem(scale, scale)
        return solve_allocation(problem).total_time

    benchmark(solve_large)
    persist_result(
        "ablation_allocation_scaling",
        f"Candidate-search solver at N={scale}+{scale} devices: "
        f"mean {benchmark.stats['mean'] * 1e3:.2f} ms per solve",
    )
