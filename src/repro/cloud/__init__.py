"""Cloud-side services: ingestion, aggregation, monitoring.

In the paper's architecture the compute tiers upload results to shared
storage and notify cloud services through DeviceFlow; "cloud services then
retrieve the corresponding data from storage based on the received
messages for further processing" (§V-A).  Here the message block carries
its results inline and the cloud folds them as delivered: the storage hop
cost no simulated time and nothing read it back, so it is not modelled.
The flagship cloud service is model aggregation, triggered either by a
sample-count threshold or on a schedule — the two conditions §VI-C1
evaluates.  The transport module models the imperfect device→cloud uplink
in front of ingestion: loss, retries with backoff, duplication, outages
and deadline-based round closure.
"""

from repro.cloud.aggregation import (
    AggregationRecord,
    AggregationService,
    AggregationTrigger,
    SampleThresholdTrigger,
    ScheduledTrigger,
)
from repro.cloud.monitor import Monitor, MonitorEvent
from repro.cloud.sink import CloudIngestSink, OutcomeSink
from repro.cloud.transport import (
    ChannelModel,
    ChannelWindow,
    TransportChannel,
    TransportCounters,
    UploadPlan,
)

__all__ = [
    "AggregationRecord",
    "AggregationService",
    "AggregationTrigger",
    "ChannelModel",
    "ChannelWindow",
    "CloudIngestSink",
    "Monitor",
    "MonitorEvent",
    "OutcomeSink",
    "SampleThresholdTrigger",
    "ScheduledTrigger",
    "TransportChannel",
    "TransportCounters",
    "UploadPlan",
]
