"""Hybrid allocation optimisation (§IV-B).

A task simulates ``c`` device grades with populations ``{N_i}``, of which
``{q_i}`` are benchmarking devices.  The logical tier offers ``f_i``
requested unit bundles per grade at ``k_i`` units per simulated device;
the physical tier offers ``m_i`` phones.  Splitting ``x_i`` devices to the
logical tier yields tier makespans

    T_l = max_i ceil(k_i x_i / f_i) * alpha_i
    T_p = max_i ceil((N_i - q_i - x_i) / m_i) * beta_i + lambda_i

and the task's duration is ``T = max(T_l, T_p)``; the optimiser minimises
``T`` subject to ``0 <= x_i <= N_i - q_i``, then — among optima —
maximises ``sum_i x_i`` (the paper's secondary objective of prioritising
logical resources).

One deliberate refinement over the paper's formulation: a grade whose
physical share is *zero* contributes no ``lambda_i`` term (no phones ever
start), where a literal reading of inequality (1) would force
``T >= lambda_i`` even for all-logical splits.

The solver is an exact candidate search.  A scipy MILP encoding (the
paper's "integer linear programming" framing) and brute force over every
split cross-check it from ``tests/reference/allocation_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.checks import (
    check_count,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class GradeAllocationParams:
    """Per-grade constants of the allocation problem.

    Attributes map one-to-one onto the paper's symbols:
    ``n_devices`` = N, ``n_benchmark`` = q, ``bundles`` = f,
    ``units_per_device`` = k, ``n_phones`` = m, ``alpha``/``beta``/
    ``lam`` the measured runtime constants.
    """

    grade: str
    n_devices: int
    bundles: int
    units_per_device: int
    n_phones: int
    alpha: float
    beta: float
    lam: float
    n_benchmark: int = 0

    def __post_init__(self) -> None:
        for name in ("n_devices", "n_benchmark", "bundles", "n_phones"):
            check_non_negative_int(name, getattr(self, name))
        if self.n_benchmark > self.n_devices:
            raise ValueError("n_benchmark cannot exceed n_devices")
        check_count("units_per_device", self.units_per_device)
        check_positive("alpha", self.alpha)
        check_positive("beta", self.beta)
        check_non_negative("lam", self.lam)
        if self.computable == 0:
            return
        if self.bundles == 0 and self.n_phones == 0:
            raise ValueError(f"grade {self.grade!r} has devices but no resources")

    @property
    def computable(self) -> int:
        """Devices to split across tiers: ``N - q``."""
        return self.n_devices - self.n_benchmark

    @property
    def logical_slots(self) -> int:
        """Concurrent logical device slots: ``floor(f / k)``."""
        return self.bundles // self.units_per_device

    def logical_time(self, x: int) -> float:
        """``ceil(k x / f) * alpha`` — logical makespan for this grade.

        A grade whose bundle request cannot host even one device
        concurrently (``f < k``) has no usable logical tier at all: a
        device needs its ``k`` units simultaneously, so time-multiplexing
        cannot rescue an undersized request.
        """
        if x == 0:
            return 0.0
        if self.logical_slots == 0:
            return math.inf
        return math.ceil(self.units_per_device * x / self.bundles) * self.alpha

    def physical_time(self, n_physical: int) -> float:
        """``ceil(n/m) * beta + lambda``; zero when nothing runs on phones."""
        if n_physical == 0:
            return 0.0
        if self.n_phones == 0:
            return math.inf
        return math.ceil(n_physical / self.n_phones) * self.beta + self.lam


@dataclass
class AllocationProblem:
    """The full multi-grade allocation instance."""

    grades: list[GradeAllocationParams]

    def __post_init__(self) -> None:
        if not self.grades:
            raise ValueError("at least one grade is required")
        names = [g.grade for g in self.grades]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate grade names: {names}")


@dataclass(frozen=True)
class GradeAllocation:
    """The split chosen for one grade."""

    grade: str
    logical: int
    physical: int
    logical_time: float
    physical_time: float


@dataclass
class AllocationResult:
    """Optimal (or evaluated) allocation with its makespan breakdown."""

    total_time: float
    logical_time: float
    physical_time: float
    grades: list[GradeAllocation] = field(default_factory=list)
    solver: str = ""

    @property
    def x(self) -> dict[str, int]:
        """``grade -> logical device count``."""
        return {g.grade: g.logical for g in self.grades}

    @property
    def total_logical(self) -> int:
        """Devices placed on the logical tier."""
        return sum(g.logical for g in self.grades)


def evaluate_allocation(problem: AllocationProblem, x: Sequence[int]) -> AllocationResult:
    """Makespan of an explicit split ``x`` (one entry per grade)."""
    if len(x) != len(problem.grades):
        raise ValueError("x must have one entry per grade")
    grade_allocations = []
    logical_max = 0.0
    physical_max = 0.0
    for params, xi in zip(problem.grades, x):
        xi = int(xi)
        if not 0 <= xi <= params.computable:
            raise ValueError(
                f"x[{params.grade}]={xi} outside [0, {params.computable}]"
            )
        n_physical = params.computable - xi
        lt = params.logical_time(xi)
        pt = params.physical_time(n_physical)
        grade_allocations.append(
            GradeAllocation(params.grade, xi, n_physical, lt, pt)
        )
        logical_max = max(logical_max, lt)
        physical_max = max(physical_max, pt)
    return AllocationResult(
        total_time=max(logical_max, physical_max),
        logical_time=logical_max,
        physical_time=physical_max,
        grades=grade_allocations,
        solver="evaluate",
    )


# ----------------------------------------------------------------------
# exact candidate search (default solver)
# ----------------------------------------------------------------------
def _feasible_range(params: GradeAllocationParams, deadline: float) -> tuple[int, int] | None:
    """The interval of x values whose grade finishes within ``deadline``."""
    total = params.computable
    if total == 0:
        return (0, 0)
    # Upper bound from the logical tier.
    if params.logical_slots == 0:
        x_max = 0
    else:
        waves = math.floor(deadline / params.alpha + 1e-9)
        x_max = min(total, math.floor(waves * params.bundles / params.units_per_device + 1e-9))
    # Lower bound from the physical tier.
    if params.n_phones == 0 or deadline < params.lam + params.beta - 1e-9:
        x_min = total  # phones cannot finish anything in time
    else:
        waves = math.floor((deadline - params.lam) / params.beta + 1e-9)
        x_min = max(0, total - params.n_phones * waves)
    if x_min > x_max:
        return None
    return (x_min, x_max)


def _candidate_times(problem: AllocationProblem) -> list[float]:
    candidates = {0.0}
    for params in problem.grades:
        total = params.computable
        if total == 0:
            continue
        if params.logical_slots > 0:
            max_waves = math.ceil(params.units_per_device * total / params.bundles)
            candidates.update(w * params.alpha for w in range(1, max_waves + 1))
        if params.n_phones > 0:
            max_waves = math.ceil(total / params.n_phones)
            candidates.update(w * params.beta + params.lam for w in range(1, max_waves + 1))
    return sorted(candidates)


def solve_allocation(problem: AllocationProblem) -> AllocationResult:
    """Exact min-makespan solver via binary search over candidate times.

    ``T*`` must coincide with some grade's tier completing an integral
    number of waves, so the candidate set ``{w*alpha_i} ∪ {w*beta_i +
    lambda_i}`` contains the optimum; feasibility at a deadline is an
    independent per-grade interval check.  Among optimal solutions the
    one that maximises ``sum x_i`` is returned (the paper's secondary
    objective).
    """
    candidates = _candidate_times(problem)
    lo, hi = 0, len(candidates) - 1
    best: float | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        deadline = candidates[mid]
        if all(_feasible_range(g, deadline) is not None for g in problem.grades):
            best = deadline
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RuntimeError("allocation infeasible: some grade has no viable split")
    x = []
    for params in problem.grades:
        interval = _feasible_range(params, best)
        assert interval is not None
        x.append(interval[1])
    result = evaluate_allocation(problem, x)
    result.solver = "search"
    return result


# ----------------------------------------------------------------------
# fixed-ratio baselines (the paper's Type 1-5 comparisons)
# ----------------------------------------------------------------------
def fixed_ratio_allocation(
    problem: AllocationProblem, logical_fraction: float
) -> AllocationResult:
    """Split every grade at a fixed logical share (Fig. 6/7's Types 1-5).

    Type 1 = 100% logical, Type 2 = 75%, Type 3 = 50%, Type 4 = 25%,
    Type 5 = 0% (all physical).
    """
    check_probability("logical_fraction", logical_fraction)
    x = [int(round(logical_fraction * g.computable)) for g in problem.grades]
    result = evaluate_allocation(problem, x)
    result.solver = f"fixed({logical_fraction:.2f})"
    return result
