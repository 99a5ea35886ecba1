"""Execution/cost models of FedScale- and FederatedScope-like simulators.

Each baseline offers ``round_time(n_devices)`` — the calibrated
single-round wall-time formula used by the Fig. 8 scalability sweep.
FedScale's formula has no communication term: its speed comes from
skipping the device-cloud path, which is the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks import check_count, check_positive


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
        check_count("total_cores", self.total_cores)
        check_positive("client_train_s", self.client_train_s)

    def round_time(self, n_devices: int) -> float:
        """Single-round wall time (seconds): setup, parallel training and per-client memory copies."""
        check_count("n_devices", n_devices)
        compute = n_devices * self.client_train_s / self.total_cores
        return self.startup_s + compute + n_devices * self.memory_copy_s


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
        check_count("instance_cores", self.instance_cores)

    def round_time(self, n_devices: int) -> float:
        """Single-round wall time (seconds): setup plus training and communication on one instance."""
        check_count("n_devices", n_devices)
        compute = n_devices * self.client_train_s / self.instance_cores
        return self.startup_s + compute + n_devices * self.client_comm_s / self.instance_cores
