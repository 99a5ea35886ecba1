"""Execution/cost models of FedScale- and FederatedScope-like simulators.

Each baseline offers ``round_time(n_devices)`` — the calibrated
single-round wall-time model used by the Fig. 8 scalability sweep, with a
:class:`RoundCostBreakdown` explaining where the time goes (the paper's
point: FedScale's speed comes from skipping the device-cloud path).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RoundCostBreakdown:
    """Where one simulated round's wall time goes."""

    setup: float = 0.0
    compute: float = 0.0
    memory_copies: float = 0.0
    communication: float = 0.0
    storage: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.setup + self.compute + self.memory_copies + self.communication + self.storage


@dataclass
class FedScaleLikeSimulator:
    """In-memory, communication-free round execution (FedScale's design).

    "FedScale does not use device-cloud communication during simulations.
    Its data and models are stored directly in memory, and data is
    transferred only between memories when simulating different clients"
    (§VI-B4).  Fast, but "its simulation deviate[s] significantly from
    real-world scenarios".

    Attributes
    ----------
    total_cores:
        Parallelism of the hosting server cluster (the sweep uses the
        paper's 200 cores).
    client_train_s:
        CPU seconds of one client's local training.
    memory_copy_s:
        Per-client in-memory data/model hand-off cost.
    startup_s:
        Fixed per-round framework overhead.
    """

    total_cores: int = 200
    client_train_s: float = 1.0
    memory_copy_s: float = 0.0005
    startup_s: float = 2.0

    def __post_init__(self) -> None:
        if self.total_cores <= 0:
            raise ValueError("total_cores must be positive")
        if self.client_train_s <= 0:
            raise ValueError("client_train_s must be positive")

    def round_breakdown(self, n_devices: int) -> RoundCostBreakdown:
        """Cost components for one round over ``n_devices`` clients."""
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        return RoundCostBreakdown(
            setup=self.startup_s,
            compute=n_devices * self.client_train_s / self.total_cores,
            memory_copies=n_devices * self.memory_copy_s,
        )

    def round_time(self, n_devices: int) -> float:
        """Single-round wall time (seconds)."""
        return self.round_breakdown(n_devices).total


@dataclass
class FederatedScopeLikeSimulator:
    """Single-instance execution with device-cloud communication.

    "FederatedScope employs a similar strategy for data and models and can
    only use a single resource instance to simulate clients", yet — like
    SimDC — it "independently simulate[s] clients and use[s] device-cloud
    communication for aggregation" (§VI-B4).

    Attributes
    ----------
    instance_cores:
        Cores of the one resource instance clients run on.
    client_train_s:
        CPU seconds of one client's local training.
    client_comm_s:
        Per-client device-cloud communication cost.
    startup_s:
        Fixed per-round overhead.
    """

    instance_cores: int = 64
    client_train_s: float = 1.0
    client_comm_s: float = 0.05
    startup_s: float = 3.0

    def __post_init__(self) -> None:
        if self.instance_cores <= 0:
            raise ValueError("instance_cores must be positive")

    def round_breakdown(self, n_devices: int) -> RoundCostBreakdown:
        """Cost components for one round over ``n_devices`` clients."""
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        return RoundCostBreakdown(
            setup=self.startup_s,
            compute=n_devices * self.client_train_s / self.instance_cores,
            communication=n_devices * self.client_comm_s / self.instance_cores,
        )

    def round_time(self, n_devices: int) -> float:
        """Single-round wall time (seconds)."""
        return self.round_breakdown(n_devices).total


@dataclass
class SimDCRoundModel:
    """SimDC's own round-time model for the same sweep.

    Ray actors spread over physical servers; every actor pays per-round
    data and model downloads and uploads results to shared storage before
    messaging the cloud (§VI-B4) — "although SimDC takes longer for fewer
    devices, its architecture more closely mirrors real-world business
    applications".

    Attributes
    ----------
    total_cores:
        Actor slots (one single-grade device per 1-core bundle).
    device_round_s:
        Per-device operator-flow execution time (alpha at this scale).
    download_s / upload_s:
        Per-device data+model download and result upload via shared
        storage.
    runner_setup_s:
        Ray Runner job setup per round.
    """

    total_cores: int = 200
    device_round_s: float = 2.5
    download_s: float = 0.2
    upload_s: float = 0.1
    runner_setup_s: float = 8.0

    def __post_init__(self) -> None:
        if self.total_cores <= 0:
            raise ValueError("total_cores must be positive")
        if self.device_round_s <= 0:
            raise ValueError("device_round_s must be positive")

    def round_breakdown(self, n_devices: int) -> RoundCostBreakdown:
        """Cost components for one round over ``n_devices`` devices."""
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        waves = -(-n_devices // self.total_cores)
        return RoundCostBreakdown(
            setup=self.runner_setup_s,
            compute=waves * self.device_round_s,
            storage=waves * (self.download_s + self.upload_s),
        )

    def round_time(self, n_devices: int) -> float:
        """Single-round wall time (seconds)."""
        return self.round_breakdown(n_devices).total
