"""Device-behaviour models: timezones, networks, availability.

§V motivates DeviceFlow with real-world phone populations that differ in
"timezones, environmental networks, user actions, and inherent
variability" (Fig. 3).  This package provides generative models of those
factors; their aggregate upload-rate curves are exactly the traffic curves
DeviceFlow's time-interval strategy consumes, closing the loop between
per-device behaviour and population-level traffic shaping.
"""

from repro.behavior.availability import DiurnalAvailability, population_traffic_curve
from repro.behavior.network import (
    FLIGHT_MODE,
    GPRS,
    LTE,
    WIFI,
    NetworkMixture,
    NetworkProfile,
)
from repro.behavior.timezone import TimezoneMixture

__all__ = [
    "DiurnalAvailability",
    "FLIGHT_MODE",
    "GPRS",
    "LTE",
    "NetworkMixture",
    "NetworkProfile",
    "TimezoneMixture",
    "WIFI",
    "population_traffic_curve",
]
