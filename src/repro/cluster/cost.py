"""Cost model of the logical simulation tier.

The hybrid allocation optimisation (§IV-B) is parameterised by empirically
measured runtime constants: "the average duration for the completion of the
scheduled task in Logical Simulation with c grades of devices, denoted as
{alpha_1..alpha_c}".  This module owns those constants plus the secondary
overheads (actor startup, Runner setup, per-actor data/model downloads)
that explain why SimDC is slower than in-memory simulators below ~1000
devices: Fig. 8's SimDC column is a round of the logical tier costed by
this model (:mod:`repro.experiments.fig8`).

Durations are seconds of *simulated* time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checks import check_non_negative, check_positive


#: Defaults calibrated against the paper's figures: logical per-device
#: round durations (alpha) sit above the physical tier's in-round training
#: cost (beta) because server-side PyMNN operators are slower than the
#: compiled MNN kernels in business SDKs (§VI-B3), while physical devices
#: pay a large one-off APK/framework startup (lambda).
DEFAULT_ALPHA = {"High": 12.0, "Low": 20.0}


@dataclass
class LogicalCostModel:
    """Simulated-time costs of the logical tier.

    Attributes
    ----------
    alpha:
        Per-grade average duration (seconds) of one device's operator-flow
        execution on an actor.
    actor_startup:
        Actor creation + runtime-parameter configuration time.
    runner_setup:
        One-off master (Ray Runner) job setup time.
    download_bandwidth_bps:
        Shared-storage download bandwidth seen by each actor.
    download_latency:
        Per-transfer latency floor.
    flow_reference_work:
        Operator-flow work units that ``alpha`` was calibrated against;
        flows with more/less declared work scale proportionally.
    """

    alpha: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_ALPHA))
    actor_startup: float = 1.5
    runner_setup: float = 8.0
    download_bandwidth_bps: float = 200e6 / 8  # 200 Mbit/s shared storage link
    download_latency: float = 0.05
    flow_reference_work: float = 10.4  # standard_fl_flow().total_work

    def __post_init__(self) -> None:
        if not self.alpha:
            raise ValueError("alpha must define at least one grade")
        for grade, value in self.alpha.items():
            check_positive(f"alpha[{grade!r}]", value)
        for name in ("actor_startup", "runner_setup", "download_latency"):
            check_non_negative(name, getattr(self, name))
        check_positive("download_bandwidth_bps", self.download_bandwidth_bps)
        check_positive("flow_reference_work", self.flow_reference_work)

    def device_round_duration(self, grade: str, flow_work: float) -> float:
        """Seconds one actor spends simulating one device's round of ``flow_work`` units."""
        if grade not in self.alpha:
            raise KeyError(f"no alpha calibrated for grade {grade!r}; known: {sorted(self.alpha)}")
        if flow_work <= 0:
            raise ValueError("flow_work must be positive")
        return self.alpha[grade] * (flow_work / self.flow_reference_work)

    def transfer_duration(self, n_bytes: int) -> float:
        """Storage transfer time for a payload of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        return self.download_latency + n_bytes / self.download_bandwidth_bps
