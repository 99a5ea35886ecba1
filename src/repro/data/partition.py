"""Device partitioning and distribution-shift helpers.

Two concerns live here:

* planting the paper's "differentially distributed" label skew (70% of
  devices positive-heavy, 30% negative-heavy — Fig. 11b);
* mapping device CTR to upload delay profiles (the Fig. 9 scenario where
  high-CTR clients respond faster than low-CTR clients).
"""

from __future__ import annotations

import numpy as np

from repro.checks import check_non_negative, check_positive, check_probability


def label_skew_device_biases(
    n_devices: int,
    positive_fraction: float = 0.7,
    spread: float = 2.5,
    seed: int = 0,
) -> np.ndarray:
    """Per-device logit offsets realising the paper's 70/30 split.

    A fraction ``positive_fraction`` of devices receives logit offset
    ``+spread`` (a high proportion of positive samples) and the rest
    ``-spread`` (negative-heavy).  Device order is shuffled so grade or id
    ordering does not correlate with skew.

    Returns an array aligned with generator device index ``i``.
    """
    check_probability("positive_fraction", positive_fraction)
    check_non_negative("spread", spread)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    n_positive = int(round(positive_fraction * n_devices))
    biases = np.full(n_devices, -spread)
    biases[:n_positive] = spread
    rng.shuffle(biases)
    return biases


def assign_delay_profiles(
    device_biases: dict[str, float], sigma: float, max_delay: float, seed: int
) -> dict[str, float]:
    """Map device label bias (a CTR proxy) to an upload delay.

    The Fig. 9 scenario: "clients with higher CTR transmit data faster to
    the cloud, while those with lower CTR experience longer delays".  The
    delay for the device at CTR-rank ``u`` (0 = highest CTR) is the
    ``u``-quantile of a right-tailed normal ``|N(0, sigma)|`` — exactly the
    family of traffic curves the paper shapes with DeviceFlow — truncated
    to ``max_delay``.  Ties in bias are broken by a seeded jitter so equal-
    bias devices spread across the curve.

    Returns ``device_id -> delay_seconds``.
    """
    check_positive("sigma", sigma)
    check_positive("max_delay", max_delay)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE1A)))
    ids = sorted(device_biases)
    jitter = rng.normal(0.0, 1e-6, len(ids))
    scores = np.array([device_biases[d] for d in ids]) + jitter
    # Highest CTR (largest bias) should get rank 0 -> shortest delay.
    order = np.argsort(-scores)
    ranks = np.empty(len(ids), dtype=int)
    ranks[order] = np.arange(len(ids))
    quantiles = (ranks + 0.5) / len(ids)
    # Quantile of |N(0, sigma)|: use the inverse error function.  Delays
    # beyond the window are truncated (the device responds at the window
    # edge), preserving sigma's control over how early mass arrives.
    from scipy.special import erfinv

    delays = sigma * np.sqrt(2.0) * erfinv(quantiles)
    delays = np.minimum(delays, max_delay)
    return {device_id: float(delay) for device_id, delay in zip(ids, delays)}
