"""Replay a global day of device traffic against a cloud service.

Fig. 3's real-world picture: phones spread over timezones, each willing
to train only when idle and charging, produce a fleet-level upload curve
that the cloud's aggregation service must ride.  This example closes that
loop with the behaviour models:

1. draw a timezone mixture for 100k (virtual) devices;
2. compose their diurnal availability into a population traffic curve;
3. hand that curve to DeviceFlow's time-interval strategy, replaying a
   24-hour window (scaled to 24 simulated minutes) of 100k update
   messages against a sample-threshold aggregation service;
4. report the cloud-side load profile and aggregation cadence.

Run:  python examples/global_traffic_replay.py
"""

import numpy as np

from repro.behavior import DiurnalAvailability, TimezoneMixture, population_traffic_curve
from repro.cloud import AggregationService, SampleThresholdTrigger
from repro.deviceflow import DeviceFlow, MessageBlock, TimeIntervalStrategy
from repro.simkernel import RandomStreams, Simulator

N_DEVICES = 100_000
WINDOW_S = 24 * 60.0  # one simulated "day", 1 minute per hour


def main(n_devices: int = N_DEVICES, window_s: float = WINDOW_S) -> None:
    timezones = TimezoneMixture()
    availability = DiurnalAvailability(night_peak=2.0, evening_peak=21.0)
    curve = population_traffic_curve(timezones, availability)
    print(f"population curve over UTC: {curve.name}, peak-to-trough "
          f"{curve(np.linspace(0, 24, 200)).max() / curve(np.linspace(0, 24, 200)).min():.2f}x")

    sim = Simulator()
    service = AggregationService(
        sim,
        SampleThresholdTrigger(threshold_samples=max(100, n_devices // 10)),
        model=None,  # counting mode: the interest here is load, not ML
    )
    service.start()

    flow = DeviceFlow(sim, streams=RandomStreams(3), capacity_per_second=700.0)
    flow.register_task(
        "day-replay",
        TimeIntervalStrategy(curve, interval_seconds=window_s, failure_prob=0.02),
        service.receive_block,
    )
    flow.round_started("day-replay", 1)
    flow.submit_block(
        MessageBlock(task_id="day-replay", round_index=1,
                     device_ids=[f"dev-{i}" for i in range(n_devices)])
    )
    flow.round_completed("day-replay", 1)
    sim.run()

    stats = flow.stats("day-replay")
    print(f"devices: {stats.received}, delivered {stats.delivered}, "
          f"dropped {stats.dropped} (network failures)")
    print(f"aggregations triggered: {service.rounds_completed}")

    # Cloud-side hourly load profile (each simulated minute = one hour).
    hourly = np.zeros(24, dtype=int)
    for t, n in service.receive_log:
        hourly[min(23, int(24 * t // window_s))] += n
    peak = hourly.max()
    print("cloud load by UTC hour (each bar = received updates):")
    for hour, count in enumerate(hourly):
        bar = "#" * int(40 * count / peak) if peak else ""
        print(f"  {hour:02d}:00  {count:>7,}  {bar}")
    quiet = int(np.argmin(hourly))
    busy = int(np.argmax(hourly))
    print(f"peak hour {busy:02d}:00 carries {hourly[busy] / max(1, hourly[quiet]):.1f}x "
          f"the quiet hour {quiet:02d}:00 — the fluctuating access load §I warns about")


if __name__ == "__main__":
    main()
