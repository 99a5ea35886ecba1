"""Synthetic Avazu-like federated CTR dataset.

Each record is an ad impression: a handful of categorical fields hashed to
feature indices plus a binary click label.  Records are grouped by device;
the generator plants a logistic ground truth so that (a) models can
actually learn, (b) per-device click-through rates are controllable, which
the paper's non-IID experiments (Fig. 9, Fig. 11) rely on.

Random-stream layout
--------------------
A dataset is a pure function of the generator's parameters: one
``Generator`` seeded from ``(seed, 0xA7A2)`` is consumed in this fixed order,
and every dataset, report digest and paper figure depends on it.

1. ground truth — the active hash buckets (``choice`` without
   replacement), then their normal weights;
2. calibration sample — ``n_fields`` rows of 4000 field uniforms;
3. device biases — ``n_devices`` normals, skipped when the caller passes
   explicit biases;
4. sizes — ``n_devices`` Poisson draws, floored at 2;
5. per device ``i``, in index order, one contiguous run of
   ``(n_fields + 1) * n_i`` uniforms: ``n_fields`` rows of ``n_i`` field
   uniforms (field order :data:`AVAZU_FIELDS`), then one row of ``n_i``
   label uniforms;
6. the test shard, laid out like one device of ``test_records`` records.

A field uniform ``u`` selects category ``cdf.searchsorted(u, side="right")``
of that field's Zipf CDF, which is exactly what ``Generator.choice(n, p=p)``
does with it; a label uniform clicks when it falls below the record's
planted click probability.  Because consecutive ``rng.random`` calls
concatenate, the generator draws step 5 for a whole run of devices in one
call and gathers each field's uniforms by index arithmetic.
``tests/reference/avazu_reference.py`` keeps the per-device loop that
defined this layout; the two must stay bit-identical.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.checks import check_count, is_number
from repro.data.features import HashingEncoder

#: Categorical fields modelled after the public Avazu schema.
AVAZU_FIELDS: tuple[str, ...] = (
    "hour_of_day",
    "banner_pos",
    "site_category",
    "app_category",
    "device_model",
    "device_type",
    "device_conn_type",
    "C14",
    "C17",
    "C21",
)

#: Vocabulary sizes per field (rough Avazu orders of magnitude, trimmed so
#: a 4096-bucket hash space stays informative).
_FIELD_CARDINALITIES: dict[str, int] = {
    "hour_of_day": 24,
    "banner_pos": 7,
    "site_category": 26,
    "app_category": 36,
    "device_model": 200,
    "device_type": 5,
    "device_conn_type": 4,
    "C14": 300,
    "C17": 120,
    "C21": 60,
}

#: Devices are synthesised in consecutive runs of at most this many records
#: (always at least one device), which bounds the transient uniform, index
#: and gathered-weight buffers at ~10 MB however many devices a task has.
#: The stream is sequential, so where the runs are cut does not change the
#: data; runs of this size also stay cache-resident, which larger ones do not.
_CHUNK_RECORDS = 1 << 15


@functools.lru_cache(maxsize=None)
def _zipf_cdf(cardinality: int) -> np.ndarray:
    """CDF of the Zipf-ish category popularity of a ``cardinality``-value field.

    Categorical fields in click logs are heavily skewed toward a few
    frequent values.  The CDF is normalised the way ``Generator.choice``
    normalises its ``p``, so ``searchsorted`` on it picks the same ids.
    """
    probs = 1.0 / np.arange(1, cardinality + 1, dtype=float)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


@functools.lru_cache(maxsize=16)
def _field_tables(feature_dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per field, in :data:`AVAZU_FIELDS` order: ``(zipf_cdf, hash_buckets)``.

    A pure function of ``feature_dim`` (782 SHA hashes), so it is built on
    the first ``generate`` that needs it, never at import.
    """
    encoder = HashingEncoder(feature_dim, AVAZU_FIELDS)
    tables = []
    for fld in AVAZU_FIELDS:
        buckets = encoder.vocabulary_indices(fld, _FIELD_CARDINALITIES[fld])
        buckets.setflags(write=False)
        tables.append((_zipf_cdf(len(buckets)), buckets))
    return tuple(tables)


@dataclass
class DeviceDataset:
    """The local data of one simulated device.

    Attributes
    ----------
    device_id:
        Stable identifier, mirrors Avazu's ``device_id`` column.
    features:
        ``(n_records, n_fields)`` int32 array of hashed feature indices.
    labels:
        ``(n_records,)`` int8 array of click labels.
    """

    device_id: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (records x fields)")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_samples(self) -> int:
        """Number of local records."""
        return len(self.labels)

    @property
    def positive_rate(self) -> float:
        """Observed click-through rate of this shard."""
        if len(self.labels) == 0:
            return 0.0
        return float(self.labels.mean())

    def nbytes(self) -> int:
        """Approximate in-memory payload size (used for transfer costing)."""
        return int(self.features.nbytes + self.labels.nbytes)


@dataclass
class FederatedDataset:
    """A device-partitioned CTR dataset plus a held-out test shard."""

    devices: dict[str, DeviceDataset]
    test: DeviceDataset
    feature_dim: int
    fields: tuple[str, ...] = AVAZU_FIELDS
    device_biases: dict[str, float] = field(default_factory=dict)
    #: Total training records when the builder knows it (the generator does,
    #: from its shard offsets); ``None`` means count the shards.
    _n_records: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_devices(self) -> int:
        """Number of device shards."""
        return len(self.devices)

    @property
    def n_records(self) -> int:
        """Total training records across all devices."""
        if self._n_records is None:
            return sum(len(shard) for shard in self.devices.values())
        return self._n_records

    def device_ids(self) -> list[str]:
        """Sorted device identifiers (stable iteration order)."""
        return sorted(self.devices)

    def shard(self, device_id: str) -> DeviceDataset:
        """Return the shard of one device."""
        return self.devices[device_id]

    def subset(self, device_ids: Sequence[str]) -> FederatedDataset:
        """A view restricted to ``device_ids`` (same test shard)."""
        return FederatedDataset(
            devices={d: self.devices[d] for d in device_ids},
            test=self.test,
            feature_dim=self.feature_dim,
            fields=self.fields,
            device_biases={d: self.device_biases.get(d, 0.0) for d in device_ids},
        )


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function in ``z``'s precision, branch-free.

    ``exp`` only ever sees ``-|z|``, so it cannot overflow.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class SyntheticAvazu:
    """Generator of device-partitioned synthetic CTR data.

    The ground truth is a sparse logistic model over the hashed feature
    space.  Each device adds a scalar logit bias: zero for the IID setting,
    or drawn from a two-component distribution for the paper's
    "differentially distributed" scenario.

    Parameters
    ----------
    n_devices:
        Number of device shards to generate.
    records_per_device:
        Mean local dataset size (actual sizes are Poisson-distributed
        around this mean, min 2 records).
    feature_dim:
        Hash-bucket count (model dimensionality).
    base_ctr:
        Population click-through rate before device bias.
    seed:
        Reproducibility seed (independent of any simulator seed).
    """

    #: Standard deviation of benign device-level logit noise.
    DEVICE_BIAS_STD = 0.3
    #: Strength of the planted logistic signal: standard deviation of the
    #: active weights and the fraction of hash buckets that carry signal.
    #: These make the task genuinely learnable (test accuracy climbs well
    #: above the majority rate within a few FedAvg rounds), which the
    #: aggregation-dynamics experiments (Figs. 6, 9, 11) rely on.
    SIGNAL_SCALE = 1.5
    ACTIVE_FRACTION = 0.5
    #: Records drawn to calibrate the intercept.
    N_CALIBRATION = 4000

    def __init__(
        self,
        n_devices: int = 100,
        records_per_device: int = 20,
        feature_dim: int = 4096,
        base_ctr: float = 0.17,
        seed: int = 0,
    ) -> None:
        self.n_devices = check_count("n_devices", n_devices)
        self.records_per_device = check_count("records_per_device", records_per_device)
        if self.records_per_device < 2:  # the mean of shard sizes that are floored at 2
            raise ValueError(f"records_per_device must be >= 2, got {records_per_device!r}")
        if not (is_number(base_ctr) and 0.0 < base_ctr < 1.0):  # a rate of 0 or 1 has no finite intercept
            raise ValueError(f"base_ctr must be in (0, 1), got {base_ctr!r}")
        self.feature_dim = int(feature_dim)
        self.base_ctr = float(base_ctr)
        self.seed = int(seed)

    def generate(
        self,
        device_biases: np.ndarray | None = None,
        test_records: int = 2000,
    ) -> FederatedDataset:
        """Create the federated dataset.

        Parameters
        ----------
        device_biases:
            Optional per-device logit offsets of length ``n_devices``;
            overrides the benign Gaussian biases.  Use
            :func:`repro.data.partition.label_skew_device_biases` for the
            paper's 70/30 differential distribution.
        test_records:
            Size of the held-out (bias-free) test shard.
        """
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xA7A2)))
        true_weights, _ = self._ground_truth(rng)
        tables = _field_tables(self.feature_dim)
        global_bias = self._calibrate_intercept(rng, true_weights, tables)
        if device_biases is None:
            device_biases = rng.normal(0.0, self.DEVICE_BIAS_STD, self.n_devices)
        elif len(device_biases) != self.n_devices:
            raise ValueError(
                f"device_biases must have length {self.n_devices}, got {len(device_biases)}"
            )
        device_biases = np.asarray(device_biases, dtype=float)
        sizes = np.maximum(2, rng.poisson(self.records_per_device, self.n_devices))

        features, labels, offsets = self._draw_shards(
            rng, sizes, global_bias + device_biases, true_weights, tables
        )
        test_features, test_labels, _ = self._draw_shards(
            rng, np.array([test_records]), np.array([global_bias]), true_weights, tables
        )

        device_ids = [f"dev-{i:06d}" for i in range(self.n_devices)]
        bounds = offsets.tolist()
        dataset = FederatedDataset(
            devices={
                device_id: DeviceDataset(device_id, features[lo:hi], labels[lo:hi])
                for device_id, lo, hi in zip(device_ids, bounds, bounds[1:])
            },
            test=DeviceDataset("test", test_features, test_labels),
            feature_dim=self.feature_dim,
            device_biases=dict(zip(device_ids, device_biases.tolist())),
        )
        dataset._n_records = bounds[-1]
        return dataset

    # ------------------------------------------------------------------
    def _ground_truth(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Sparse true weights plus the naive (uncalibrated) intercept."""
        weights = np.zeros(self.feature_dim)
        n_active = max(8, int(self.ACTIVE_FRACTION * self.feature_dim))
        active = rng.choice(self.feature_dim, size=n_active, replace=False)
        weights[active] = rng.normal(0.0, self.SIGNAL_SCALE, n_active)
        intercept = float(np.log(self.base_ctr / (1.0 - self.base_ctr)))
        return weights, intercept

    def _calibrate_intercept(
        self,
        rng: np.random.Generator,
        true_weights: np.ndarray,
        tables: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> float:
        """Intercept such that the *population* CTR hits ``base_ctr``.

        High-variance logits pull the mean of a sigmoid toward 0.5, so the
        naive log-odds intercept undershoots skewed targets; bisection on
        a calibration sample fixes the realised rate.
        """
        features = self._draw_features(rng, self.N_CALIBRATION, tables)
        scores = true_weights[features].sum(axis=1)
        low, high = -15.0, 15.0
        for _ in range(60):
            mid = (low + high) / 2.0
            if float(sigmoid(scores + mid).mean()) < self.base_ctr:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def _draw_features(
        self,
        rng: np.random.Generator,
        n_records: int,
        tables: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Sample hashed feature index rows, Zipf-skewed per field."""
        uniforms = rng.random((len(tables), n_records))
        features = np.empty((n_records, len(tables)), dtype=np.int32)
        for f, (cdf, buckets) in enumerate(tables):
            features[:, f] = buckets[cdf.searchsorted(uniforms[f], side="right")]
        return features

    def _draw_shards(
        self,
        rng: np.random.Generator,
        sizes: np.ndarray,
        biases: np.ndarray,
        true_weights: np.ndarray,
        tables: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features and Bernoulli labels of consecutive shards, drawn columnwise.

        Shard ``i`` holds ``sizes[i]`` records whose logits are offset by
        ``biases[i]``.  Returns one read-only ``(total, n_fields)`` int32
        feature matrix, one read-only int8 label vector and the
        ``len(sizes) + 1`` row offsets: shard ``i`` is rows
        ``offsets[i]:offsets[i + 1]`` of both.
        """
        n_fields = len(tables)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        features = np.empty((int(offsets[-1]), n_fields), dtype=np.int32)
        labels = np.empty(len(features), dtype=np.int8)
        lo = 0
        while lo < len(sizes):
            # The longest run of shards within the record budget, at least one.
            start = offsets[lo]
            hi = max(lo + 1, int(offsets.searchsorted(start + _CHUNK_RECORDS, side="right")) - 1)
            n = sizes[lo:hi]
            n_rows = offsets[hi] - start
            rows = slice(start, offsets[hi])
            uniforms = rng.random((n_fields + 1) * n_rows)
            # Shard i's run starts (n_fields + 1) * rows-before-it into
            # ``uniforms``; its record j reads row r of the run at r * n_i + j.
            stride = np.repeat(n, n)
            index = np.arange(n_rows) + n_fields * np.repeat(offsets[lo:hi] - start, n)
            block = features[rows]
            for f, (cdf, buckets) in enumerate(tables):
                block[:, f] = buckets[cdf.searchsorted(uniforms[index], side="right")]
                index += stride
            logits = true_weights[block].sum(axis=1) + np.repeat(biases[lo:hi], n)
            labels[rows] = uniforms[index] < sigmoid(logits)
            lo = hi
        features.setflags(write=False)
        labels.setflags(write=False)
        return features, labels, offsets


_SKEW_KEYS = frozenset({"positive_fraction", "spread"})


def make_federated_ctr_data(
    n_devices: int,
    records_per_device: int = 20,
    feature_dim: int = 4096,
    seed: int = 0,
    skew: dict | None = None,
    test_records: int = 2000,
    base_ctr: float = 0.17,
) -> FederatedDataset:
    """One-call helper combining the generator with optional label skew.

    ``skew`` of ``None`` produces the identically-distributed setting; a
    dict like ``{"positive_fraction": 0.7, "spread": 2.5}`` produces the
    paper's differentially-distributed devices (see
    :func:`repro.data.partition.label_skew_device_biases`).  ``base_ctr``
    of 0.5 yields a balanced population, which keeps plain accuracy an
    informative convergence metric in the aggregation experiments.
    """
    from repro.data.partition import label_skew_device_biases

    generator = SyntheticAvazu(
        n_devices=n_devices,
        records_per_device=records_per_device,
        feature_dim=feature_dim,
        seed=seed,
        base_ctr=base_ctr,
    )
    biases = None
    if skew is not None:
        unknown = sorted(set(skew) - _SKEW_KEYS)
        if unknown:
            raise ValueError(f"unknown skew key(s) {unknown}; allowed: {sorted(_SKEW_KEYS)}")
        biases = label_skew_device_biases(n_devices, seed=seed, **skew)
    return generator.generate(device_biases=biases, test_records=test_records)
