"""Device Simulation substrate: a virtual Android phone cluster.

The paper's physical tier is a cluster of real Android phones (10 local +
20 remote "MSP" devices) driven over ADB by the PhoneMgr module, with
dedicated *Benchmarking Devices* whose current, voltage, CPU, memory and
bandwidth are polled during training (§IV-C).

No physical phones exist in this environment, so this package provides
virtual phones whose battery, CPU, memory and network counters evolve in
simulated time, plus a :class:`~repro.phones.adb.SimulatedAdb` that answers
the control commands PhoneMgr sends (``pm clear``, ``am start -n``,
``am force-stop``).  The benchmarking sampler reads the virtual sensors
directly (:func:`~repro.phones.metrics.direct_metric_sample`); the paper's
text read protocol (sysfs microamp/microvolt readings, ``top`` tables,
``dumpsys`` PSS lines, ``/proc/net/dev`` rows) and its post-processing
parsers are the test oracle that read is held to, in
``tests/reference/adb_reference.py``.
"""

from repro.phones.adb import AdbError, SimulatedAdb
from repro.phones.apk import ApkStage, TrainingApk
from repro.phones.battery import BatteryModel
from repro.phones.cost import PhysicalCostModel
from repro.phones.metrics import DeviceMetricSample, StageSummary
from repro.phones.msp import MobileServicePlatform
from repro.phones.phone import VirtualPhone
from repro.phones.phonemgr import PhoneAssignment, PhoneMgr
from repro.phones.specs import (
    DEFAULT_LOCAL_FLEET,
    DEFAULT_MSP_FLEET,
    PhoneSpec,
    build_fleet,
)

__all__ = [
    "AdbError",
    "ApkStage",
    "BatteryModel",
    "DEFAULT_LOCAL_FLEET",
    "DEFAULT_MSP_FLEET",
    "DeviceMetricSample",
    "MobileServicePlatform",
    "PhoneAssignment",
    "PhoneMgr",
    "PhoneSpec",
    "PhysicalCostModel",
    "SimulatedAdb",
    "StageSummary",
    "TrainingApk",
    "VirtualPhone",
    "build_fleet",
]
