"""Traffic-curve library for time-interval dispatching.

§V-B constrains user-defined transmission-rate functions: "The transmission
rate function y must be a single-valued, bounded, non-negative continuous
function, supporting piecewise continuity."  :class:`TrafficCurve` wraps a
plain callable with its domain and enforces those properties numerically;
the module also ships every curve the paper evaluates (Table II and the
right-tailed normals of Figs. 9-10).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.checks import check_finite, check_positive


class TrafficCurve:
    """A validated transmission-rate function ``y = f(t)`` on ``[a, b]``.

    Parameters
    ----------
    fn:
        Vectorisable callable (accepts numpy arrays).
    domain:
        Closed interval the curve is defined on.  §V-B: "the domain of t
        is a closed interval, which can be scaled to align with the user-
        defined specific time interval."
    name:
        Display name (appears in Table II).
    validation_points:
        Grid resolution used to check non-negativity and boundedness.

    ``fn`` must be pure: the curve memoises what discretisation reads
    (:meth:`grid_area_peak`, :meth:`segment_areas`) for its own lifetime.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        domain: tuple[float, float],
        name: str = "custom",
        validation_points: int = 2048,
    ) -> None:
        low, high = check_finite("domain", domain[0]), check_finite("domain", domain[1])
        if high <= low:
            raise ValueError(f"domain must satisfy a < b, got [{low}, {high}]")
        self.fn = fn
        self.domain = (low, high)
        self.name = name
        self._validate(validation_points)
        self._grid_area_peak: tuple[float, float] | None = None
        self._segment_areas: dict[tuple[float, int], np.ndarray] = {}

    def _validate(self, n_points: int) -> None:
        grid = np.linspace(self.domain[0], self.domain[1], n_points)
        values = np.asarray(self.fn(grid), dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"curve {self.name!r} is not single-valued/vectorised")
        if not np.all(np.isfinite(values)) or float(np.abs(values).max()) > 1e12:
            raise ValueError(f"curve {self.name!r} is unbounded on its domain")
        if np.any(values < 0):
            raise ValueError(f"curve {self.name!r} is negative on its domain")
        if float(values.max()) == 0.0:
            raise ValueError(f"curve {self.name!r} is identically zero")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(t, dtype=np.float64)), dtype=np.float64)

    @property
    def width(self) -> float:
        """Domain length ``b - a``."""
        return self.domain[1] - self.domain[0]

    def area(self, n_points: int = 4096) -> float:
        """Trapezoidal area under the curve over its whole domain."""
        grid = np.linspace(self.domain[0], self.domain[1], n_points)
        return float(np.trapezoid(self(grid), grid))

    def grid_area_peak(self) -> tuple[float, float]:
        """Trapezoidal area and peak value on a 4,096-point domain grid, computed once."""
        if self._grid_area_peak is None:
            grid = np.linspace(self.domain[0], self.domain[1], 4096)
            values = self(grid)
            self._grid_area_peak = (float(np.trapezoid(values, grid)), float(values.max()))
        return self._grid_area_peak

    def segment_areas(self, interval_seconds: float, n_ticks: int) -> np.ndarray:
        """Per-tick areas of the curve scaled onto ``[0, interval_seconds]``, computed once per pair.

        Window edges map onto the domain and each tick integrates a
        16-point trapezoid sub-grid, so narrow spikes are not lost between
        edges.  The array is read-only: it is the memo itself.
        """
        key = (interval_seconds, n_ticks)
        areas = self._segment_areas.get(key)
        if areas is None:
            sub = 16
            fine = np.linspace(0.0, interval_seconds, n_ticks * sub + 1)
            v = self(self.domain[0] + self.width * fine / interval_seconds)
            areas = (np.diff(fine) * (v[1:] + v[:-1]) / 2.0).reshape(n_ticks, sub).sum(axis=1)
            areas.flags.writeable = False
            self._segment_areas[key] = areas
        return areas

    def to_actual_time(self, interval_seconds: float) -> Callable[[np.ndarray], np.ndarray]:
        """Rate as a function of actual elapsed seconds in ``[0, T]``.

        Linearly rescales the domain onto the dispatch window; the *shape*
        is preserved, message totals handle amplitude separately.
        """
        check_positive("interval_seconds", interval_seconds)
        low, width = self.domain[0], self.width

        def rate(tau: np.ndarray) -> np.ndarray:
            t = low + width * np.asarray(tau, dtype=np.float64) / interval_seconds
            return self(t)

        return rate


# ----------------------------------------------------------------------
# the paper's curve families
# ----------------------------------------------------------------------
def gaussian_pdf(sigma: float, domain: tuple[float, float] = (-4.0, 4.0)) -> TrafficCurve:
    """``N(0, sigma)`` density on ``domain`` (Table II rows 1-2)."""
    check_positive("sigma", sigma)

    def fn(t: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    return TrafficCurve(fn, domain, name=f"N(0, {sigma:g})")


def right_tailed_normal(sigma: float, tail_sigmas: float = 4.0) -> TrafficCurve:
    """The right tail of ``N(0, sigma)`` — the Fig. 9/10 response curves.

    Models devices whose responses peak immediately after a round opens
    and decay with timezone/network spread controlled by ``sigma``.
    """
    check_positive("sigma", sigma)

    def fn(t: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    return TrafficCurve(fn, (0.0, tail_sigmas * sigma), name=f"right-tail N(0, {sigma:g})")


def sin_plus_one(domain: tuple[float, float] = (0.0, 6.0 * math.pi)) -> TrafficCurve:
    """``sin(t) + 1`` on ``[0, 6π]`` (Table II row 3)."""
    return TrafficCurve(lambda t: np.sin(t) + 1.0, domain, name="sin(t)+1")


def cos_plus_one(domain: tuple[float, float] = (0.0, 6.0 * math.pi)) -> TrafficCurve:
    """``cos(t) + 1`` on ``[0, 6π]`` (Table II row 4)."""
    return TrafficCurve(lambda t: np.cos(t) + 1.0, domain, name="cos(t)+1")


def exponential_curve(base: float, domain: tuple[float, float] = (0.0, 3.0)) -> TrafficCurve:
    """``base ** t`` on ``[0, 3]`` (Table II rows 5-6)."""
    check_positive("base", base)
    return TrafficCurve(lambda t: np.power(base, t), domain, name=f"{base:g}^t")


#: The exact rows of Table II: (curve, paper-stated domain).
TABLE2_CURVES: tuple[TrafficCurve, ...] = (
    gaussian_pdf(1.0, (-4.0, 4.0)),
    gaussian_pdf(2.0, (-4.0, 4.0)),
    sin_plus_one((0.0, 6.0 * math.pi)),
    cos_plus_one((0.0, 6.0 * math.pi)),
    exponential_curve(2.0, (0.0, 3.0)),
    exponential_curve(10.0, (0.0, 3.0)),
)
