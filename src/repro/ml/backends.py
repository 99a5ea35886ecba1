"""Numeric backends emulating differing operator implementations.

The paper's logical simulation trains with PyMNN operators while physical
devices run the C++ MNN operators shipped in business SDKs; "disparities in
hardware architecture and compilation optimizations ... can lead to
variations when executing the same operator across platforms" (§VI-B2).

A backend here pins down the floating-point story of one implementation:

* ``SERVER_BACKEND`` ("pymnn-server") — float64, natural accumulation
  order: the reference semantics of a server-side framework.
* ``DEVICE_BACKEND`` ("mnn-device") — float32 storage and arithmetic with
  reversed reduction order: mobile inference engines trade precision for
  speed and fuse reductions differently.

Both run the same algorithm, so accuracy differences stay tiny — which is
precisely the property Fig. 6 verifies end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.avazu import sigmoid


@dataclass(frozen=True)
class NumericBackend:
    """Floating-point semantics of one operator implementation.

    Attributes
    ----------
    name:
        Human-readable identifier (appears in task/run metadata).
    dtype:
        Numpy dtype used for parameters and intermediate math.
    reverse_reduction:
        Whether per-record feature-weight sums reduce right-to-left.
        Changing reduction order changes rounding, not semantics — the
        classic cross-platform divergence.
    """

    name: str
    dtype: np.dtype
    reverse_reduction: bool = False

    def cast(self, array: np.ndarray) -> np.ndarray:
        """Bring an array into this backend's working precision."""
        return np.asarray(array, dtype=self.dtype)

    def gather_scores(
        self, weights: np.ndarray, biases: np.ndarray, features: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """Per-record logits ``sum_f w[features[r, f]] + bias`` of ragged block rows.

        ``weights`` is ``(n_devices, dim)``, ``biases`` ``(n_devices,)``,
        ``features`` ``(rows, n_fields)`` hash indices and ``owners``
        ``(rows,)`` the device each row scores against; the result is
        ``(rows,)``.  The reduction runs field-by-field in this backend's
        precision and order so rounding behaviour is faithful to the
        implementation, and every floating-point operation is elementwise
        over rows, so a row does not depend on what it is stacked with
        (one device is a one-segment layout).
        """
        flat = features + (owners * weights.shape[1])[:, None]
        gathered = self.cast(np.asarray(weights).reshape(-1)[flat])
        if self.reverse_reduction:
            gathered = gathered[:, ::-1]
        scores = np.zeros(len(features), dtype=self.dtype)
        for column in range(gathered.shape[1]):
            scores += gathered[:, column]
        scores += self.cast(biases)[owners]
        return scores

    def sigmoid(self, z: np.ndarray) -> np.ndarray:
        """Numerically-stable logistic function in backend precision."""
        return sigmoid(self.cast(z))


SERVER_BACKEND = NumericBackend(name="pymnn-server", dtype=np.dtype(np.float64))
DEVICE_BACKEND = NumericBackend(
    name="mnn-device", dtype=np.dtype(np.float32), reverse_reduction=True
)
