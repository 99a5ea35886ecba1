"""User-definable message dispatching strategies (§V-B).

Two families exist:

* **Real-time accumulated dispatching** — activated at the beginning of
  each round; whenever the shelf accumulates the next threshold ``n`` of a
  user-defined sequence, that many messages ship immediately.  ``n = 1``
  degenerates to the plain real-time forwarding other simulators perform.
  A per-message transmission-failure probability models device dropout.

* **Rule-based dispatching** — activated upon round completion; messages
  ship at specific *time points* (relative to round end, or absolute) or
  across a *time interval* shaped by an arbitrary rate curve (see
  :mod:`repro.deviceflow.discretize`).  Both support dropout via failure
  probability and random discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.checks import check_count, check_finite, check_non_negative_int, check_positive, check_probability
from repro.deviceflow.curves import TrafficCurve
from repro.deviceflow.discretize import DispatchTick, discretize_curve
from repro.deviceflow.dispatcher import Dispatcher


class DispatchStrategy:
    """Base class; concrete strategies override the lifecycle hooks."""

    def bind(self, dispatcher: Dispatcher) -> None:
        """Called once when the dispatcher is created."""

    def on_round_start(self, dispatcher: Dispatcher, round_index: int) -> None:
        """A new round of the task's operator flow began."""

    def on_message(self, dispatcher: Dispatcher) -> None:
        """A message — or a whole block of them, at one instant — was shelved."""

    def on_round_complete(self, dispatcher: Dispatcher, round_index: int) -> None:
        """The round's computation finished."""


class RealTimeAccumulatedStrategy(DispatchStrategy):
    """Threshold-sequence dispatching with failure-probability dropout.

    Parameters
    ----------
    thresholds:
        Cyclic quantity sequence, e.g. ``[20, 100, 50]`` (§VI-C2); the
        plain ``[1]`` behaves "like other simulators, immediately sending
        messages to the cloud service after computation".
    failure_prob:
        Independent per-message transmission-failure probability ``p``.
    flush_on_round_complete:
        Ship any sub-threshold remainder when the round ends, so no
        update is silently stranded between rounds.
    """

    def __init__(
        self,
        thresholds: Sequence[int] = (1,),
        failure_prob: float = 0.0,
        flush_on_round_complete: bool = True,
    ) -> None:
        self.thresholds = [check_count("thresholds", t) for t in thresholds]
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")
        self.failure_prob = check_probability("failure_prob", failure_prob)
        self.flush_on_round_complete = flush_on_round_complete
        self._cycle = 0

    @property
    def current_threshold(self) -> int:
        """The next quantity to accumulate before shipping."""
        return self.thresholds[self._cycle % len(self.thresholds)]

    def on_round_start(self, dispatcher: Dispatcher, round_index: int) -> None:
        self._cycle = 0

    def on_message(self, dispatcher: Dispatcher) -> None:
        available = dispatcher.shelf_size()
        if available < self.current_threshold:
            return
        # Every threshold the shelf now crosses, in cycle order: whole
        # cycles first, then as far into the next one as the rest reaches.
        start = self._cycle % len(self.thresholds)
        cycle = self.thresholds[start:] + self.thresholds[:start]
        whole, rest = divmod(available, sum(cycle))
        groups = cycle * whole
        for threshold in cycle:
            if rest < threshold:
                break
            groups.append(threshold)
            rest -= threshold
        self._cycle += len(groups)
        dispatcher.dispatch(
            dispatcher.take(available - rest), failure_prob=self.failure_prob, group_sizes=groups
        )

    def on_round_complete(self, dispatcher: Dispatcher, round_index: int) -> None:
        if self.flush_on_round_complete and dispatcher.shelf_size() > 0:
            dispatcher.dispatch(dispatcher.take_all(), failure_prob=self.failure_prob)


@dataclass(frozen=True)
class TimePoint:
    """One rule-based transmission instant.

    ``time`` is seconds after round completion in relative mode, or an
    absolute simulated timestamp otherwise.  Dropout per §V-B: "the
    probability of transmission failure can be set for each time point,
    and a random selection of a certain number of messages can be
    discarded at each time point."
    """

    time: float
    count: int
    failure_prob: float = 0.0
    discard_count: int = 0

    def __post_init__(self) -> None:
        check_finite("time", self.time)
        check_count("count", self.count)
        check_probability("failure_prob", self.failure_prob)
        check_non_negative_int("discard_count", self.discard_count)


class TimePointStrategy(DispatchStrategy):
    """Specific time-point dispatching (rule-based, §V-B).

    Parameters
    ----------
    points:
        Transmission instants with quantities and dropout settings.
    relative:
        Whether point times are measured from the end of the round
        (the paper supports both relative and absolute settings).
    """

    def __init__(self, points: Sequence[TimePoint], relative: bool = True) -> None:
        points = list(points)
        if not points:
            raise ValueError("at least one time point is required")
        if relative and any(p.time < 0 for p in points):
            raise ValueError("relative time points must be >= 0")
        self.points = sorted(points, key=lambda p: p.time)
        self.relative = relative

    def on_round_complete(self, dispatcher: Dispatcher, round_index: int) -> None:
        base = dispatcher.now if self.relative else 0.0
        for point in self.points:
            fire_at = base + point.time

            def fire(p: TimePoint = point) -> None:
                available = dispatcher.shelf_size()
                if available == 0:
                    return
                batch = dispatcher.take(min(p.count, available))
                dispatcher.dispatch(batch, failure_prob=p.failure_prob, discard_count=p.discard_count)

            dispatcher.schedule_at(fire_at, fire)


class TimeIntervalStrategy(DispatchStrategy):
    """Specific time-interval dispatching over a rate curve (§V-B).

    On round completion the pending message total is matched to the area
    under the user's curve, the curve is discretised against DeviceFlow's
    transmission capacity, and each resulting tick becomes a time-point
    dispatch — "these above operations transform the specific time-
    interval dispatching mechanism into the aforementioned specific
    time-point dispatching mechanism for execution".

    Parameters
    ----------
    curve:
        Validated transmission-rate function.
    interval_seconds:
        Actual dispatch window length the curve domain is scaled onto.
    relative:
        Window starts at round completion (True) or at ``start_time``.
    start_time:
        Absolute window start when ``relative`` is False.
    failure_prob / discard_per_tick:
        Dropout applied within every tick.
    tick_width:
        Optional manual discretisation step (otherwise derived from the
        capacity limit).
    """

    def __init__(
        self,
        curve: TrafficCurve,
        interval_seconds: float,
        relative: bool = True,
        start_time: float | None = None,
        failure_prob: float = 0.0,
        discard_per_tick: int = 0,
        tick_width: float | None = None,
    ) -> None:
        interval_seconds = check_positive("interval_seconds", interval_seconds)
        if not relative and start_time is None:
            raise ValueError("absolute mode requires start_time")
        if start_time is not None:
            start_time = check_finite("start_time", start_time)
        if tick_width is not None:
            tick_width = check_positive("tick_width", tick_width)
        self.curve = curve
        self.interval_seconds = interval_seconds
        self.relative = relative
        self.start_time = start_time
        self.failure_prob = check_probability("failure_prob", failure_prob)
        self.discard_per_tick = check_non_negative_int("discard_per_tick", discard_per_tick)
        self.tick_width = tick_width
        self.last_schedule: list[DispatchTick] = []

    def on_round_complete(self, dispatcher: Dispatcher, round_index: int) -> None:
        total = dispatcher.shelf_size()
        if total == 0:
            return
        ticks = discretize_curve(
            self.curve,
            self.interval_seconds,
            total,
            capacity_per_second=dispatcher.capacity_per_second,
            tick_width=self.tick_width,
        )
        self.last_schedule = ticks
        base = dispatcher.now if self.relative else float(self.start_time)  # type: ignore[arg-type]
        for tick in ticks:

            def fire(t: DispatchTick = tick) -> None:
                available = dispatcher.shelf_size()
                if available == 0:
                    return
                batch = dispatcher.take(min(t.count, available))
                dispatcher.dispatch(
                    batch, failure_prob=self.failure_prob, discard_count=self.discard_per_tick
                )

            dispatcher.schedule_at(base + tick.offset, fire)
