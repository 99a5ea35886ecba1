"""Tests for the §IV-B hybrid allocation optimizer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import (
    AllocationProblem,
    GradeAllocationParams,
    evaluate_allocation,
    fixed_ratio_allocation,
    solve_allocation,
    solve_allocation_brute,
    solve_allocation_milp,
)


def grade(
    name="High",
    n=100,
    q=0,
    f=40,
    k=4,
    m=10,
    alpha=12.0,
    beta=16.2,
    lam=45.0,
):
    return GradeAllocationParams(
        grade=name, n_devices=n, n_benchmark=q, bundles=f, units_per_device=k,
        n_phones=m, alpha=alpha, beta=beta, lam=lam,
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            grade(n=-1)
        with pytest.raises(ValueError):
            grade(q=200, n=100)
        with pytest.raises(ValueError):
            grade(k=0)
        with pytest.raises(ValueError):
            grade(alpha=0)
        with pytest.raises(ValueError):
            grade(f=0, m=0)  # devices but no resources

    def test_logical_slots(self):
        assert grade(f=80, k=8).logical_slots == 10

    def test_logical_time_formula(self):
        params = grade(f=40, k=4, alpha=10.0)
        # ceil(4 * 25 / 40) = 3 waves
        assert params.logical_time(25) == pytest.approx(30.0)
        assert params.logical_time(0) == 0.0

    def test_physical_time_formula(self):
        params = grade(m=10, beta=5.0, lam=45.0)
        assert params.physical_time(25) == pytest.approx(3 * 5.0 + 45.0)
        assert params.physical_time(0) == 0.0

    def test_missing_tier_is_infeasible_time(self):
        assert grade(f=0, m=10).logical_time(5) == math.inf
        assert grade(m=0, f=40).physical_time(5) == math.inf

    def test_duplicate_grades_rejected(self):
        with pytest.raises(ValueError):
            AllocationProblem([grade("A"), grade("A")])
        with pytest.raises(ValueError):
            AllocationProblem([])


class TestEvaluate:
    def test_matches_hand_computation(self):
        problem = AllocationProblem([grade(n=100, f=40, k=4, m=10, alpha=10.0, beta=5.0, lam=45.0)])
        result = evaluate_allocation(problem, [60])
        # logical: ceil(240/40)=6 waves * 10 = 60; physical: ceil(40/10)=4*5+45 = 65.
        assert result.logical_time == pytest.approx(60.0)
        assert result.physical_time == pytest.approx(65.0)
        assert result.total_time == pytest.approx(65.0)

    def test_bounds_checked(self):
        problem = AllocationProblem([grade(n=10)])
        with pytest.raises(ValueError):
            evaluate_allocation(problem, [11])
        with pytest.raises(ValueError):
            evaluate_allocation(problem, [5, 5])

    def test_benchmark_devices_excluded(self):
        problem = AllocationProblem([grade(n=100, q=10)])
        result = evaluate_allocation(problem, [90])
        assert result.grades[0].physical == 0


class TestSolvers:
    def test_all_logical_when_phones_slow(self):
        problem = AllocationProblem(
            [grade(n=20, f=80, k=4, m=2, alpha=1.0, beta=100.0, lam=1000.0)]
        )
        result = solve_allocation(problem)
        assert result.x["High"] == 20
        assert result.total_time == pytest.approx(1.0)  # one 1-second wave

    def test_all_physical_when_cluster_tiny(self):
        problem = AllocationProblem(
            [grade(n=20, f=4, k=4, m=20, alpha=1000.0, beta=1.0, lam=2.0)]
        )
        result = solve_allocation(problem)
        assert result.x["High"] == 0
        assert result.total_time == pytest.approx(3.0)

    def test_no_lambda_for_all_logical_split(self):
        """Refinement over the paper: unused phones cost no startup."""
        problem = AllocationProblem(
            [grade(n=10, f=100, k=1, m=5, alpha=1.0, beta=1.0, lam=10_000.0)]
        )
        result = solve_allocation(problem)
        assert result.x["High"] == 10
        assert result.total_time == pytest.approx(1.0)

    def test_hybrid_beats_pure_strategies(self):
        problem = AllocationProblem(
            [grade(n=500, f=40, k=4, m=15, alpha=20.0, beta=16.2, lam=45.0)]
        )
        optimal = solve_allocation(problem)
        pure_logical = fixed_ratio_allocation(problem, 1.0)
        pure_physical = fixed_ratio_allocation(problem, 0.0)
        assert optimal.total_time < pure_logical.total_time
        assert optimal.total_time < pure_physical.total_time
        assert 0 < optimal.x["High"] < 500

    def test_secondary_objective_prefers_logical(self):
        # Generous resources: many splits achieve the optimum; the tie
        # must break toward max logical usage.
        problem = AllocationProblem(
            [grade(n=10, f=1000, k=1, m=100, alpha=5.0, beta=5.0, lam=0.0)]
        )
        result = solve_allocation(problem)
        assert result.x["High"] == 10
        all_physical = evaluate_allocation(problem, [0])
        assert all_physical.total_time == result.total_time

    def test_multi_grade_coupling(self):
        problem = AllocationProblem(
            [
                grade("High", n=100, f=40, k=4, m=17, alpha=20.0, beta=16.2, lam=45.0),
                grade("Low", n=100, f=60, k=6, m=13, alpha=30.0, beta=21.6, lam=60.0),
            ]
        )
        result = solve_allocation(problem)
        brute = solve_allocation_brute(problem)
        assert result.total_time == pytest.approx(brute.total_time)

    def test_milp_matches_search(self):
        problem = AllocationProblem(
            [
                grade("High", n=60, f=40, k=4, m=8, alpha=12.0, beta=16.2, lam=45.0),
                grade("Low", n=80, f=30, k=6, m=6, alpha=20.0, beta=21.6, lam=60.0),
            ]
        )
        search = solve_allocation(problem)
        milp = solve_allocation_milp(problem)
        assert milp.total_time == pytest.approx(search.total_time, rel=1e-9)
        assert milp.total_logical == search.total_logical

    def test_zero_devices(self):
        problem = AllocationProblem([grade(n=5, q=5)])
        result = solve_allocation(problem)
        assert result.total_time == 0.0

    def test_resourceless_grade_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no resources"):
            GradeAllocationParams(
                grade="G", n_devices=10, n_benchmark=0, bundles=0, units_per_device=1,
                n_phones=0, alpha=1.0, beta=1.0, lam=0.0,
            )

    def test_undersized_bundles_detected_as_infeasible(self):
        # f > 0 but f < k: the logical tier exists on paper yet cannot
        # host a single device, and there are no phones -> infeasible.
        params = GradeAllocationParams(
            grade="G", n_devices=10, n_benchmark=0, bundles=2, units_per_device=4,
            n_phones=0, alpha=1.0, beta=1.0, lam=0.0,
        )
        with pytest.raises(RuntimeError, match="infeasible"):
            solve_allocation(AllocationProblem([params]))

    def test_fixed_ratio_types(self):
        problem = AllocationProblem([grade(n=100)])
        for fraction, expected in ((1.0, 100), (0.75, 75), (0.5, 50), (0.25, 25), (0.0, 0)):
            result = fixed_ratio_allocation(problem, fraction)
            assert result.x["High"] == expected
        with pytest.raises(ValueError):
            fixed_ratio_allocation(problem, 1.5)


class TestSolverCrossCheck:
    @given(
        n=st.integers(min_value=1, max_value=40),
        f=st.integers(min_value=0, max_value=30),
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=0, max_value=8),
        alpha=st.floats(min_value=0.5, max_value=50.0),
        beta=st.floats(min_value=0.5, max_value=50.0),
        lam=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_search_equals_brute_force(self, n, f, k, m, alpha, beta, lam):
        """The candidate search is exact: it always matches brute force."""
        if f // k == 0 and m == 0:
            return  # no resources at all: construction rejects it
        params = GradeAllocationParams(
            grade="G", n_devices=n, n_benchmark=0, bundles=f, units_per_device=k,
            n_phones=m, alpha=alpha, beta=beta, lam=lam,
        )
        problem = AllocationProblem([params])
        # Skip instances where one tier exists on paper but cannot host
        # anything (f > 0 but f < k): the search treats them correctly but
        # brute force is the reference here.
        brute = solve_allocation_brute(problem)
        if not math.isfinite(brute.total_time):
            return
        search = solve_allocation(problem)
        assert search.total_time == pytest.approx(brute.total_time, rel=1e-9)

    @given(
        n1=st.integers(min_value=1, max_value=15),
        n2=st.integers(min_value=1, max_value=15),
        m1=st.integers(min_value=1, max_value=5),
        m2=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_two_grade_search_equals_brute(self, n1, n2, m1, m2):
        problem = AllocationProblem(
            [
                grade("A", n=n1, f=8, k=4, m=m1, alpha=7.0, beta=3.0, lam=11.0),
                grade("B", n=n2, f=12, k=6, m=m2, alpha=9.0, beta=4.0, lam=13.0),
            ]
        )
        brute = solve_allocation_brute(problem)
        search = solve_allocation(problem)
        assert search.total_time == pytest.approx(brute.total_time, rel=1e-9)
        # Secondary objective: equal makespan, max logical usage.
        assert search.total_logical >= brute.total_logical
