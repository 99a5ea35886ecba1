"""Cost model of the physical device tier.

Parameterises the allocation model's physical-tier constants: the per-
device training durations ``beta`` and the compute-framework startup times
``lambda`` (§IV-B), plus the fixed measurement windows surrounding the
training stage in Table I and remote-control latency for MSP phones.

The defaults reproduce Table I's durations: High-grade training runs 0.27
minutes (16.2 s) and Low-grade 0.36 minutes (21.6 s), while the four non-
training stages are measured over 0.25-minute (15 s) windows each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checks import check_non_negative, check_positive

#: Table I training durations in seconds.
DEFAULT_BETA = {"High": 16.2, "Low": 21.6}

#: Compute-framework (APK + SDK) startup per phone, per task.
DEFAULT_LAMBDA = {"High": 45.0, "Low": 60.0}


@dataclass
class PhysicalCostModel:
    """Simulated-time costs of the phone tier.

    Attributes
    ----------
    beta:
        Per-grade duration (seconds) of one device's training round on a
        phone (the C++ MNN operators — faster than the server's Python
        operators at steady state, per §VI-B3).
    framework_startup:
        Per-grade lambda: APK install/launch + SDK warm-up paid once per
        phone per task.
    stage_window:
        Fixed measurement window for the non-training Table-I stages.
    msp_control_latency:
        Extra per-command latency when driving remote MSP phones.
    flow_reference_work:
        Flow work units ``beta`` was calibrated against.
    """

    beta: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BETA))
    framework_startup: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_LAMBDA))
    stage_window: float = 15.0
    msp_control_latency: float = 0.8
    flow_reference_work: float = 10.4

    def __post_init__(self) -> None:
        for mapping, label in ((self.beta, "beta"), (self.framework_startup, "framework_startup")):
            if not mapping:
                raise ValueError(f"{label} must define at least one grade")
            for grade, value in mapping.items():
                check_positive(f"{label}[{grade!r}]", value)
        check_positive("stage_window", self.stage_window)
        check_non_negative("msp_control_latency", self.msp_control_latency)
        check_positive("flow_reference_work", self.flow_reference_work)

    def training_duration(self, grade: str, flow_work: float) -> float:
        """Seconds one phone spends in the training stage per device, for a flow of ``flow_work`` units."""
        if grade not in self.beta:
            raise KeyError(f"no beta calibrated for grade {grade!r}; known: {sorted(self.beta)}")
        if flow_work <= 0:
            raise ValueError("flow_work must be positive")
        return self.beta[grade] * (flow_work / self.flow_reference_work)

    def startup_duration(self, grade: str) -> float:
        """The lambda term: one-off framework startup on a phone."""
        if grade not in self.framework_startup:
            raise KeyError(f"no lambda calibrated for grade {grade!r}")
        return self.framework_startup[grade]
