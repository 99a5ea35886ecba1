"""DeviceFlow: the programmable device-behaviour traffic controller.

§V: "DeviceFlow operates as an intermediary component, bridging edge
devices and cloud services by managing message transmission.  From the
perspective of edge devices, DeviceFlow functions as a proxy for the
cloud, while from the viewpoint of cloud services, it serves as a
representation of the edge devices."

Four modules cooperate (Fig. 4): the **Sorter** (the task-id lookup in
``DeviceFlow.submit_block``) routes incoming messages to per-task
**Shelves**; per-shelf **Dispatchers** release buffered messages
downstream according to the user-defined **Strategy** — real-time
accumulated dispatching, specific time-point dispatching, or specific
time-interval dispatching over an arbitrary bounded non-negative rate
curve, each with dropout simulation (per-message failure probability and
random discard).
"""

from repro.deviceflow.controller import DeviceFlow, TaskFlowStats
from repro.deviceflow.curves import (
    TABLE2_CURVES,
    TrafficCurve,
    cos_plus_one,
    exponential_curve,
    gaussian_pdf,
    right_tailed_normal,
    sin_plus_one,
)
from repro.deviceflow.discretize import DispatchTick, discretize_curve
from repro.deviceflow.dispatcher import Dispatcher
from repro.deviceflow.messages import MessageBlock
from repro.deviceflow.shelf import Shelf
from repro.deviceflow.strategy import (
    DispatchStrategy,
    RealTimeAccumulatedStrategy,
    TimeIntervalStrategy,
    TimePoint,
    TimePointStrategy,
)

__all__ = [
    "DeviceFlow",
    "DispatchStrategy",
    "DispatchTick",
    "Dispatcher",
    "MessageBlock",
    "RealTimeAccumulatedStrategy",
    "Shelf",
    "TABLE2_CURVES",
    "TaskFlowStats",
    "TimeIntervalStrategy",
    "TimePoint",
    "TimePointStrategy",
    "TrafficCurve",
    "cos_plus_one",
    "discretize_curve",
    "exponential_curve",
    "gaussian_pdf",
    "right_tailed_normal",
    "sin_plus_one",
]
