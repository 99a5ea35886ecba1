"""Evaluation metrics for binary CTR models, per segment of a ragged block."""

from __future__ import annotations

import numpy as np

from repro.ml.ragged import segment_sums


def _check_segments(labels: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> None:
    if labels.shape != values.shape or labels.ndim != 1 or np.any(lengths < 0) or lengths.sum() != len(labels):
        raise ValueError("labels and scores must be equal-length 1-D arrays cut by the segment lengths")


def block_metrics(
    labels: np.ndarray, probabilities: np.ndarray, lengths: np.ndarray
) -> list[dict[str, float]]:
    """Per-device metric dicts for ragged rows cut into segments of ``lengths``.

    Accuracy (fraction of records whose probability thresholded at 0.5
    matches the label), log-loss (mean binary cross-entropy, probabilities
    clipped to ``[1e-12, 1 - 1e-12]``) and AUC (:func:`roc_auc_block`)
    reduce per segment — the means through :func:`segment_sums`, which
    sums exactly as ``segment.mean()`` does — so a device's dict does not
    depend on what it is stacked with; one labelled batch is a
    one-segment layout (:meth:`LogisticRegressionModel.evaluate`).
    """
    labels = np.asarray(labels)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    _check_segments(labels, probabilities, lengths)
    if np.any(lengths == 0):
        raise ValueError("cannot compute metrics of empty batches")
    predictions = (probabilities >= 0.5).astype(labels.dtype)
    accuracies = segment_sums((predictions == labels).astype(np.float64), lengths) / lengths
    float_labels = labels.astype(np.float64)
    clipped = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
    losses = -(float_labels * np.log(clipped) + (1.0 - float_labels) * np.log(1.0 - clipped))
    mean_losses = segment_sums(losses, lengths) / lengths
    aucs = roc_auc_block(labels, probabilities, lengths)
    return [
        {"accuracy": accuracy, "log_loss": loss, "auc": auc}
        for accuracy, loss, auc in zip(accuracies.tolist(), mean_losses.tolist(), aucs.tolist())
    ]


def roc_auc_block(labels: np.ndarray, scores: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment area under the ROC curve via the rank-sum (Mann-Whitney) identity.

    One stable ``lexsort`` by (segment, score) orders every segment at
    once; tie groups are cut at segment starts and receive the exact
    dyadic midpoint ``(i + j + 2) / 2`` of the in-segment positions
    ``i..j`` they span, so positive rank sums are sums of half-integers
    and exact in any order.  A segment with one class absent (or no
    rows) scores 0.5, which keeps round-by-round evaluation robust on
    tiny shards.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    _check_segments(labels, scores, lengths)
    n_segments, n_rows = len(lengths), len(scores)
    owners = np.repeat(np.arange(n_segments), lengths)
    starts = np.cumsum(lengths) - lengths
    positive = labels == 1
    n_positive = np.bincount(owners[positive], minlength=n_segments)
    n_negative = np.bincount(owners[labels == 0], minlength=n_segments)
    order = np.lexsort((scores, owners))
    sorted_scores = scores[order]
    indices = np.arange(n_rows)
    # Index of each tie group's first/last member, per sorted position.
    is_start = np.ones(n_rows, dtype=bool)
    is_start[1:] = sorted_scores[1:] != sorted_scores[:-1]
    is_start[starts[lengths > 0]] = True
    group_start = np.maximum.accumulate(np.where(is_start, indices, 0))
    is_end = np.ones(n_rows, dtype=bool)
    is_end[:-1] = is_start[1:]
    group_end = np.minimum.accumulate(np.where(is_end, indices, n_rows - 1)[::-1])[::-1]
    # Sorting by segment first keeps every segment on its own rows, so
    # sorted position p belongs to segment owners[p].
    ranks = np.empty(n_rows, dtype=np.float64)
    ranks[order] = (group_start + group_end - 2 * starts[owners] + 2) / 2.0
    positive_rank_sums = np.bincount(owners[positive], weights=ranks[positive], minlength=n_segments)
    u_statistics = positive_rank_sums - n_positive * (n_positive + 1) / 2.0
    result = np.full(n_segments, 0.5)
    both = (n_positive > 0) & (n_negative > 0)
    result[both] = u_statistics[both] / (n_positive[both] * n_negative[both])
    return result
