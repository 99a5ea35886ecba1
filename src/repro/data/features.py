"""Hashing-trick feature encoder for categorical CTR fields.

Avazu-style records are tuples of categorical values (site category, app
category, device type, ...).  Production CTR pipelines hash each
``(field, value)`` pair into a fixed-size feature space; the logistic model
then owns one weight per hash bucket.  The encoder here reproduces that
scheme deterministically (SHA-based, no process-salt) so datasets are
reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.checks import check_count
from repro.simkernel.random import stable_hash


class HashingEncoder:
    """Map categorical field values to indices in ``[0, dim)``.

    Each record with ``len(fields)`` categorical values becomes a fixed-
    length integer vector of hash-bucket indices (a "multi-hot" encoding:
    the model scores a record by summing the weights at those indices).

    Parameters
    ----------
    dim:
        Size of the hashed feature space.  The paper's ~33 KB model uplink
        corresponds to a float64 weight vector of 4096 entries, which is
        the default used throughout the reproduction.
    fields:
        Ordered categorical field names.
    """

    def __init__(self, dim: int, fields: Sequence[str]) -> None:
        self.dim = check_count("dim", dim)
        if not fields:
            raise ValueError("at least one field is required")
        self.fields = tuple(fields)
        self._cache: dict[tuple[str, str], int] = {}

    def index_of(self, field: str, value: str) -> int:
        """Hash one ``(field, value)`` pair to its bucket index."""
        key = (field, value)
        if key not in self._cache:
            words = stable_hash(f"{field}={value}")
            self._cache[key] = words[0] % self.dim
        return self._cache[key]

    def encode_column(self, field: str, values: Sequence[str]) -> np.ndarray:
        """Vector-encode many values of a single field."""
        return np.array([self.index_of(field, v) for v in values], dtype=np.int32)

    def vocabulary_indices(self, field: str, cardinality: int) -> np.ndarray:
        """Bucket indices for the synthetic vocabulary ``{field}:0..n-1``.

        The synthetic generator draws category *ids* uniformly or by Zipf
        and maps them through this table, so generation is fully
        vectorised.
        """
        return self.encode_column(field, [str(i) for i in range(cardinality)])
