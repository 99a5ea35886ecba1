"""Platform configuration, every number checked at construction by field name.

The Task Manager has no period to configure: it runs a pass on events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.checks import check_non_negative, check_positive, check_probability
from repro.cloud.transport import ChannelModel
from repro.cluster.cost import LogicalCostModel
from repro.cluster.resources import NodeSpec, ResourceBundle
from repro.phones.cost import PhysicalCostModel
from repro.phones.specs import DEFAULT_LOCAL_FLEET, DEFAULT_MSP_FLEET, PhoneSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import Tracer


@dataclass
class PlatformConfig:
    """Everything needed to stand up a SimDC deployment.

    The defaults reproduce the paper's experimental environment (§VI-A2):
    a 200-core / 300-GB Ray-on-k8s cluster, 10 local phones (4 High +
    6 Low), 20 MSP phones (13 High + 7 Low), a 700-message/s DeviceFlow
    dispatcher, and 1-CPU/1-GB unit resource bundles.

    Attributes
    ----------
    seed:
        Master seed for every random stream in the run.
    cluster_nodes:
        Worker-node shapes of the logical tier.
    local_fleet / msp_fleet:
        Phone hardware of the physical tier.
    msp_availability / msp_control_latency:
        Remote-pool behaviour.
    deviceflow_capacity:
        Single-threaded dispatcher throughput (messages per second).
    unit_bundle:
        The indivisible logical allocation unit.
    logical_cost / physical_cost:
        Calibrated runtime constants (alpha / beta / lambda ...).
    poll_interval:
        Benchmarking-device sampling period.
    """

    seed: int = 0
    cluster_nodes: Sequence[NodeSpec] = field(
        default_factory=lambda: [NodeSpec(cpus=20, memory_gb=30)] * 10
    )
    local_fleet: Sequence[PhoneSpec] = DEFAULT_LOCAL_FLEET
    msp_fleet: Sequence[PhoneSpec] = DEFAULT_MSP_FLEET
    msp_availability: float = 1.0
    msp_control_latency: float = 0.8
    deviceflow_capacity: float = 700.0
    unit_bundle: ResourceBundle = field(
        default_factory=lambda: ResourceBundle(cpus=1.0, memory_gb=1.0)
    )
    logical_cost: LogicalCostModel | None = None
    physical_cost: PhysicalCostModel | None = None
    poll_interval: float = 1.0
    #: Optional device→cloud transport channel fronting every task's
    #: ingestion (loss, retries, duplication, outages).  ``None`` keeps
    #: the ideal lossless exactly-once uplink.
    channel: ChannelModel | None = None
    #: Optional :class:`~repro.observability.tracing.Tracer` capturing
    #: the span records nothing else keeps: rounds and handed-over blocks
    #: (task runner), upload fates (channel), gate drops (sink) and flow
    #: traffic (DeviceFlow); folds and bench stages come from the Monitor
    #: and the task results at assembly.  ``None`` (default) compiles
    #: every instrumentation point down to a skipped ``if`` — zero cost,
    #: byte-identical runs.
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if not self.cluster_nodes:
            raise ValueError("cluster_nodes must hold at least one node")
        check_positive("deviceflow_capacity", self.deviceflow_capacity)
        check_positive("poll_interval", self.poll_interval)
        check_non_negative("msp_control_latency", self.msp_control_latency)
        check_probability("msp_availability", self.msp_availability)
        if self.logical_cost is None:
            self.logical_cost = LogicalCostModel()
        if self.physical_cost is None:
            self.physical_cost = PhysicalCostModel(
                msp_control_latency=self.msp_control_latency
            )
