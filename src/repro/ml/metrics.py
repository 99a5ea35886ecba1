"""Evaluation metrics for binary CTR models."""

from __future__ import annotations

import numpy as np


def block_metrics(labels: np.ndarray, probabilities: np.ndarray) -> list[dict[str, float]]:
    """Per-device metric dicts for stacked ``(n_devices, n_records)`` batches.

    Accuracy (fraction of records whose probability thresholded at 0.5
    matches the label), log-loss (mean binary cross-entropy, probabilities
    clipped to ``[1e-12, 1 - 1e-12]``) and AUC (:func:`roc_auc_block`)
    reduce rowwise, so a row's dict does not depend on what it is stacked
    with; one labelled batch is a block of one row
    (:meth:`LogisticRegressionModel.evaluate`).
    """
    labels = np.asarray(labels)
    probabilities = np.asarray(probabilities)
    if labels.shape != probabilities.shape or labels.ndim != 2:
        raise ValueError("labels and probabilities must be equal-shape 2-D arrays")
    if labels.shape[1] == 0:
        raise ValueError("cannot compute metrics of empty batches")
    predictions = (probabilities >= 0.5).astype(labels.dtype)
    accuracies = (predictions == labels).mean(axis=1)
    float_labels = labels.astype(np.float64)
    clipped = np.clip(probabilities.astype(np.float64), 1e-12, 1.0 - 1e-12)
    losses = -(
        float_labels * np.log(clipped) + (1.0 - float_labels) * np.log(1.0 - clipped)
    ).mean(axis=1)
    aucs = roc_auc_block(labels, probabilities)
    return [
        {
            "accuracy": float(accuracies[row]),
            "log_loss": float(losses[row]),
            "auc": float(aucs[row]),
        }
        for row in range(labels.shape[0])
    ]


def roc_auc_block(labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Rowwise area under the ROC curve via the rank-sum (Mann-Whitney) identity.

    Ties receive average ranks — the exact dyadic ``(i + j + 2) / 2``
    midpoint of a tie group spanning sorted positions ``i..j`` — found
    with one stable ``argsort`` and a handful of accumulate passes.  A row
    with one class absent scores 0.5, which keeps round-by-round
    evaluation robust on tiny shards.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 2:
        raise ValueError("labels and scores must be equal-shape 2-D arrays")
    n_rows, n_records = scores.shape
    if n_records == 0:
        return np.full(n_rows, 0.5)
    positive = labels == 1
    n_positive = positive.sum(axis=1)
    n_negative = (labels == 0).sum(axis=1)
    order = np.argsort(scores, axis=1, kind="mergesort")
    sorted_scores = np.take_along_axis(scores, order, axis=1)
    indices = np.arange(n_records)
    # Index of each tie group's first/last member, per position.
    is_start = np.ones((n_rows, n_records), dtype=bool)
    is_start[:, 1:] = sorted_scores[:, 1:] != sorted_scores[:, :-1]
    group_start = np.maximum.accumulate(np.where(is_start, indices, 0), axis=1)
    is_end = np.ones((n_rows, n_records), dtype=bool)
    is_end[:, :-1] = is_start[:, 1:]
    group_end = np.minimum.accumulate(
        np.where(is_end, indices, n_records - 1)[:, ::-1], axis=1
    )[:, ::-1]
    averaged = (group_start + group_end + 2) / 2.0
    ranks = np.empty_like(scores)
    np.put_along_axis(ranks, order, averaged, axis=1)
    result = np.full(n_rows, 0.5)
    for row in np.nonzero((n_positive > 0) & (n_negative > 0))[0]:
        positive_rank_sum = ranks[row][positive[row]].sum()
        u_statistic = positive_rank_sum - n_positive[row] * (n_positive[row] + 1) / 2.0
        result[row] = u_statistic / (n_positive[row] * n_negative[row])
    return result
