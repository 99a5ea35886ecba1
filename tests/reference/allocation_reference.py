"""The allocation program's other solvers: scipy's MILP and brute force.

``repro.scheduler.allocation.solve_allocation`` is an exact candidate
search.  :func:`solve_allocation_milp` encodes §IV-B's integer program for
``scipy.optimize.milp`` (the paper's "integer linear programming"
framing) and :func:`solve_allocation_brute` tries every integral split of
a small instance; ``tests/test_allocation.py`` and
``benchmarks/bench_ablation_allocation.py`` hold the search to them.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.scheduler.allocation import AllocationProblem, AllocationResult, evaluate_allocation


# ----------------------------------------------------------------------
# MILP encoding (scipy) — cross-check and the paper's framing
# ----------------------------------------------------------------------
def solve_allocation_milp(problem: AllocationProblem) -> AllocationResult:
    """Encode §IV-B's program for ``scipy.optimize.milp`` and solve it.

    Variables per grade: ``x_i`` (logical devices), ``u_i`` (logical
    waves, linearising the ceil), ``v_i`` (physical waves), ``z_i``
    (indicator that any device runs on phones, gating ``lambda_i``); plus
    the global continuous makespan ``T``.
    """
    from scipy.optimize import LinearConstraint, milp
    from scipy.optimize import Bounds

    grades = problem.grades
    c = len(grades)
    # Variable layout: [x_0..x_{c-1}, u_0.., v_0.., z_0.., T]
    n_vars = 4 * c + 1
    t_index = 4 * c

    constraints = []

    def row(**entries: float) -> np.ndarray:
        r = np.zeros(n_vars)
        for idx, value in entries.items():
            r[int(idx)] = value
        return r

    big_m = max((g.computable for g in grades), default=1) or 1
    for i, g in enumerate(grades):
        xi, ui, vi, zi = i, c + i, 2 * c + i, 3 * c + i
        # f_i u_i - k_i x_i >= 0  (u_i >= ceil(k_i x_i / f_i))
        if g.logical_slots > 0:
            constraints.append(
                LinearConstraint(row(**{str(ui): g.bundles, str(xi): -g.units_per_device}), 0, np.inf)
            )
        else:
            constraints.append(LinearConstraint(row(**{str(xi): 1.0}), 0, 0))
        # m_i v_i - (computable - x_i) >= 0
        if g.n_phones > 0:
            constraints.append(
                LinearConstraint(row(**{str(vi): g.n_phones, str(xi): 1.0}), g.computable, np.inf)
            )
        else:
            constraints.append(LinearConstraint(row(**{str(xi): 1.0}), g.computable, g.computable))
            constraints.append(LinearConstraint(row(**{str(vi): 1.0}), 0, 0))
        # computable - x_i <= M z_i  (z_i = 1 whenever phones are used),
        # written as x_i + M z_i >= computable.
        constraints.append(
            LinearConstraint(row(**{str(xi): 1.0, str(zi): big_m}), g.computable, np.inf)
        )
        # T - alpha_i u_i >= 0
        constraints.append(LinearConstraint(row(**{str(t_index): 1.0, str(ui): -g.alpha}), 0, np.inf))
        # T - beta_i v_i - lambda_i z_i >= 0
        constraints.append(
            LinearConstraint(
                row(**{str(t_index): 1.0, str(vi): -g.beta, str(zi): -g.lam}), 0, np.inf
            )
        )

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    for i, g in enumerate(grades):
        upper[i] = g.computable
        upper[3 * c + i] = 1.0
    bounds = Bounds(lower, upper)
    integrality = np.ones(n_vars)
    integrality[t_index] = 0.0

    # Phase 1: minimise T.
    objective = np.zeros(n_vars)
    objective[t_index] = 1.0
    solution = milp(c=objective, constraints=constraints, bounds=bounds, integrality=integrality)
    if not solution.success:
        raise RuntimeError(f"MILP phase 1 failed: {solution.message}")
    t_star = float(solution.x[t_index])

    # Phase 2: fix T <= T* (+eps), maximise sum x_i.
    constraints_phase2 = constraints + [
        LinearConstraint(row(**{str(t_index): 1.0}), 0, t_star + 1e-6)
    ]
    objective2 = np.zeros(n_vars)
    objective2[:c] = -1.0
    solution2 = milp(
        c=objective2, constraints=constraints_phase2, bounds=bounds, integrality=integrality
    )
    if not solution2.success:
        raise RuntimeError(f"MILP phase 2 failed: {solution2.message}")
    x = [int(round(solution2.x[i])) for i in range(c)]
    result = evaluate_allocation(problem, x)
    result.solver = "milp"
    return result


# ----------------------------------------------------------------------
# brute force (test oracle)
# ----------------------------------------------------------------------
def solve_allocation_brute(problem: AllocationProblem) -> AllocationResult:
    """Exhaustive search over every integral split (small instances only)."""
    space = 1
    for g in problem.grades:
        space *= g.computable + 1
    if space > 2_000_000:
        raise ValueError(f"brute-force space too large ({space} combinations)")
    best: AllocationResult | None = None
    for combo in product(*(range(g.computable + 1) for g in problem.grades)):
        candidate = evaluate_allocation(problem, combo)
        if (
            best is None
            or candidate.total_time < best.total_time - 1e-12
            or (
                abs(candidate.total_time - best.total_time) <= 1e-12
                and candidate.total_logical > best.total_logical
            )
        ):
            best = candidate
    assert best is not None
    best.solver = "brute"
    return best
