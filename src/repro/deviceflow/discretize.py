"""AUC discretisation of traffic curves into dispatch ticks.

§V-B's three-step recipe for specific time-interval dispatching:

1. "the total amount of pending messages is equated to the total area
   under the curve (AUC) y = f(t) over its entire domain";
2. "based on the single-threaded transmission capacity limit of DeviceFlow
   (e.g., 700 messages per second), a reasonable discrete transmission
   time interval is calculated ... to ensure that the number of messages
   sent at any single point does not exceed the transmission capacity
   limit and that the interval is sufficiently small";
3. "the corresponding dispatching quantity is calculated for each discrete
   interval based on the AUC ratios with total AUC, and the starting point
   of the interval is taken as the transmission time point."

Only step 3 depends on the message total.  The curve's grid area and peak
(step 2's input) and its per-tick AUC for each ``(window, tick count)``
are pure functions of the curve, memoised on the :class:`TrafficCurve`
itself, so a strategy that discretises the same curve every round
evaluates it once per distinct tick count, not once per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import check_count, check_positive
from repro.deviceflow.curves import TrafficCurve


@dataclass(frozen=True)
class DispatchTick:
    """One transmission time point with its message quantity.

    ``offset`` is seconds from the start of the dispatch window (the
    tick's interval *start*, per the paper).
    """

    offset: float
    count: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if self.count < 0:
            raise ValueError("count must be >= 0")


def choose_tick_width(
    curve: TrafficCurve,
    interval_seconds: float,
    total_messages: int,
    capacity_per_second: float,
) -> float:
    """Pick the discrete transmission interval (step 2 of the recipe).

    The tick must be small enough that (a) no single tick's quantity
    exceeds the single-point capacity limit and (b) the curve is sampled
    finely ("the interval is sufficiently small": at most one second, at
    least 24 ticks per window), but not so small that every tick rounds
    to zero messages.
    """
    check_positive("interval_seconds", interval_seconds)
    check_count("total_messages", total_messages)
    check_positive("capacity_per_second", capacity_per_second)
    area, peak = curve.grid_area_peak()
    # Peak dispatch rate in messages per actual second after scaling the
    # AUC to total_messages and the domain to the window.
    peak_rate = total_messages * peak * curve.width / (area * interval_seconds)
    tick = min(1.0, interval_seconds / 24)
    if peak_rate > 0:
        # Single-point quantity peak_rate * tick must stay within capacity.
        tick = min(tick, capacity_per_second / peak_rate)
    # Avoid sub-millisecond ticks on extreme curves.
    return max(tick, 1e-3)


def discretize_curve(
    curve: TrafficCurve,
    interval_seconds: float,
    total_messages: int,
    capacity_per_second: float,
    tick_width: float | None,
) -> list[DispatchTick]:
    """Turn a rate curve into exact-integer dispatch ticks.

    ``tick_width`` of ``None`` derives the step from ``capacity_per_second``
    (:func:`choose_tick_width`); a strategy's manual step overrides it.

    Message conservation is exact: tick counts are produced by cumulative
    rounding of the scaled AUC, so ``sum(counts) == total_messages``
    regardless of tick width or curve shape.  Ticks with a zero quantity
    are dropped (no empty transmissions).  The per-tick areas come from
    :meth:`TrafficCurve.segment_areas`, so a repeat call for the same
    window and tick count only redoes the rounding.
    """
    if tick_width is None:
        tick_width = choose_tick_width(curve, interval_seconds, total_messages, capacity_per_second)
    check_positive("tick_width", tick_width)
    n_ticks = max(1, int(np.ceil(interval_seconds / tick_width)))
    edges = np.linspace(0.0, interval_seconds, n_ticks + 1)
    segment_area = curve.segment_areas(interval_seconds, n_ticks)
    total_area = float(segment_area.sum())
    if total_area <= 0:
        raise ValueError("curve has zero area over the dispatch window")

    cumulative = np.cumsum(segment_area) / total_area * total_messages
    rounded = np.round(cumulative).astype(int)
    counts = np.diff(np.concatenate(([0], rounded)))

    ticks = [
        DispatchTick(offset=float(edges[i]), count=int(counts[i]))
        for i in range(n_ticks)
        if counts[i] > 0
    ]
    assert sum(t.count for t in ticks) == total_messages
    return ticks


def schedule_correlation(
    curve: TrafficCurve, ticks: list[DispatchTick], interval_seconds: float
) -> float:
    """Pearson correlation between the curve and the realised schedule.

    This is Table II's fidelity metric: curve values at the tick offsets
    (mapped back to the curve domain) against per-tick dispatch amounts.
    """
    if len(ticks) < 2:
        raise ValueError("need at least two ticks to correlate")
    offsets = np.array([t.offset for t in ticks])
    counts = np.array([t.count for t in ticks], dtype=np.float64)
    low, width = curve.domain[0], curve.width
    # Each tick's quantity integrates the curve over [offset, offset+dt);
    # comparing against the curve at the tick *midpoint* avoids penalising
    # the comparison with a spurious half-tick phase shift.
    diffs = np.diff(offsets)
    tick_width = float(np.median(diffs)) if len(diffs) else interval_seconds
    midpoints = offsets + tick_width / 2.0
    expected = curve(low + width * midpoints / interval_seconds)
    if np.std(expected) == 0 or np.std(counts) == 0:
        return 1.0 if np.allclose(counts, counts[0]) else 0.0
    return float(np.corrcoef(expected, counts)[0, 1])
