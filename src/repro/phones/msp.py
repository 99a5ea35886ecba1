"""Mobile Service Platform: the remote phone pool.

The paper's physical cluster combines local phones with "remote phones
provided by the Mobile Service Platform (MSP)" — 13 High + 7 Low devices
in the default experimental setup.  Remote phones behave identically but
every control command pays an extra round-trip latency, and devices may be
temporarily unavailable (leased to other tenants of the platform).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.checks import check_probability
from repro.phones.adb import SimulatedAdb
from repro.phones.phone import VirtualPhone
from repro.phones.specs import PhoneSpec
from repro.simkernel import RandomStreams, Simulator


class MobileServicePlatform:
    """Provisioning facade for remote MSP phones.

    Parameters
    ----------
    sim / adb / streams:
        Shared simulation plumbing.
    specs:
        Hardware of the remote fleet (``PlatformConfig.msp_fleet`` defaults
        to the paper's 13 High + 7 Low devices).
    availability:
        Probability a phone is free when provisioning is attempted.
    """

    def __init__(
        self,
        sim: Simulator,
        adb: SimulatedAdb,
        specs: Sequence[PhoneSpec],
        streams: RandomStreams,
        availability: float = 1.0,
    ) -> None:
        check_probability("availability", availability)
        self.sim = sim
        self.adb = adb
        self.specs = list(specs)
        self.streams = streams
        self.availability = availability
        self.phones: list[VirtualPhone] = []

    def provision(self) -> list[VirtualPhone]:
        """Attach available remote phones to the bridge; returns them.

        With ``availability < 1`` a seeded draw decides which devices the
        platform can actually lease right now.
        """
        if self.phones:
            raise RuntimeError("MSP fleet already provisioned")
        rng = self.streams.get("msp.availability")
        for index, spec in enumerate(self.specs):
            if self.availability < 1.0 and rng.random() > self.availability:
                continue
            serial = f"msp-{index:03d}"
            phone = VirtualPhone(self.sim, serial, spec, streams=self.streams, is_msp=True)
            self.adb.register(phone)
            self.phones.append(phone)
        return self.phones
