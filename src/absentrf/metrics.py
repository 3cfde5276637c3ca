"""Evaluation metrics and paired-comparison summaries.

Everything here is defined on plain arrays so it can be checked against
brute-force re-implementations: rank-based ROC AUC with half credit for
ties, average-precision PR AUC with tied scores grouped, Cohen's kappa,
clipped log loss, and bucketed paired-difference summaries.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"

# cells of one chunk of a bucket's paired differences (2 MiB), unless one
# pair alone holds more
_DIFF_CELLS = 1 << 18


def rmse(truth, predictions) -> float:
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if t.shape != p.shape or t.size == 0:
        raise ValueError("need two equal-length non-empty arrays")
    return float(np.sqrt(np.mean((t - p) ** 2)))


def relative_to_best(values: Mapping[str, float], baseline: Sequence[str], orientation: str) -> dict[str, float]:
    """Each value's relative distance from the best *baseline* value.

    ``lower`` orientation: ``(x - min) / min``; ``higher``:
    ``(x - max) / max``.  Baseline members attain 0 at the optimum; a
    zero-valued optimum has no meaningful relative scale and errors.
    """
    baseline = list(baseline)
    if not baseline:
        raise ValueError("baseline set is empty")
    missing = [b for b in baseline if b not in values]
    if missing:
        raise ValueError(f"baseline entries {missing} missing from values")
    pool = [values[b] for b in baseline]
    best = min(pool) if orientation == LOWER_IS_BETTER else max(pool)
    if orientation not in (LOWER_IS_BETTER, HIGHER_IS_BETTER):
        raise ValueError(f"unknown orientation {orientation!r}")
    if best == 0:
        raise ValueError("best baseline value is zero; relative scale undefined")
    return {k: (v - best) / best for k, v in values.items()}


def cohen_kappa(a, b, n_classes: int) -> float:
    """Chance-corrected agreement ``(o - e) / (1 - e)`` between two
    labelings; identical inputs score 1 even when chance agreement is
    total (both constant on the same class)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need two equal-length non-empty labelings")
    for arr in (a, b):
        if arr.min() < 1 or arr.max() > n_classes:
            raise ValueError(f"labels outside 1..{n_classes}")
    if np.array_equal(a, b):
        return 1.0
    o = float(np.mean(a == b))
    pa = np.bincount(a, minlength=n_classes + 1)[1:] / a.size
    pb = np.bincount(b, minlength=n_classes + 1)[1:] / b.size
    e = float(np.sum(pa * pb))
    return (o - e) / (1.0 - e)


def _binary_masks(labels, positive) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    pos = labels == positive
    if not pos.any() or pos.all():
        raise ValueError("need at least one positive and one negative label")
    return pos, ~pos


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with tied values sharing their midrank."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    new = np.concatenate(([True], s[1:] != s[:-1]))  # a run of equal values starts
    start = np.flatnonzero(new)
    end = np.append(start[1:], s.size) - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = ((start + end) / 2.0 + 1.0)[np.cumsum(new) - 1]
    return ranks


def roc_auc(scores, labels, positive) -> float:
    """Mann-Whitney AUC: the probability a random positive outscores a
    random negative, counting ties as half."""
    scores = np.asarray(scores, dtype=np.float64)
    pos, neg = _binary_masks(labels, positive)
    ranks = _midranks(scores)
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores, labels, positive) -> float:
    """Average precision: the recall-weighted sum of precisions over
    descending score thresholds, with tied scores entering together."""
    scores = np.asarray(scores, dtype=np.float64)
    pos, _ = _binary_masks(labels, positive)
    n_pos = int(pos.sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    is_pos = pos[order].astype(np.int64)
    # indices closing each group of equal scores
    closes = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(is_pos)[closes]
    n_seen = closes + 1
    precision = tp / n_seen
    recall = tp / n_pos
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * precision))


def log_loss(probabilities, truth, eps: float) -> float:
    """Mean negative log of the probability assigned to the true class,
    with probabilities clipped to ``[eps, 1 - eps]``."""
    probs = np.asarray(probabilities, dtype=np.float64)
    t = np.asarray(truth, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != t.size or t.size == 0:
        raise ValueError("probabilities must be (N, K) matching truth length")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    if t.min() < 1 or t.max() > probs.shape[1]:
        raise ValueError(f"truth outside 1..{probs.shape[1]}")
    p_true = probs[np.arange(t.size), t - 1]
    return float(-np.mean(np.log(np.clip(p_true, eps, 1.0 - eps))))


@dataclass(frozen=True)
class PairedBucket:
    """Distribution of per-observation differences between two heuristics
    within one absence-proportion bucket."""

    first: str
    second: str
    bucket_low: float
    bucket_high: float
    count: int
    mean: float | None
    lo95: float | None
    hi95: float | None

    @property
    def excludes_zero(self) -> bool:
        if self.count == 0:
            return False
        return self.lo95 > 0.0 or self.hi95 < 0.0


def paired_difference_summary(
    values: Mapping[str, np.ndarray],
    absence: np.ndarray,
    bucket_width: float = 0.05,
) -> list[PairedBucket]:
    """Bucketed paired differences ``first - second`` for every pair of
    heuristics, in the order of ``values``.

    ``values[h]`` is an (R, N) array of per-observation quantities for
    heuristic ``h`` over R replications; every (replication, row) pair
    contributes one difference to the bucket of that row's pooled
    absence proportion.  Buckets cover [0, 1] in ``bucket_width`` steps
    (the last bucket is closed above); empty buckets are reported with
    count 0 rather than dropped.  A bucket's mean and 95% interval are
    ``.mean()`` and ``np.percentile(..., [2.5, 97.5])`` of its
    differences, taken one bucket and one chunk of pairs (``_DIFF_CELLS``)
    at a time.
    """
    if not 0 < bucket_width <= 1:
        raise ValueError("bucket_width must lie in (0, 1]")
    absence = np.asarray(absence, dtype=np.float64)
    n_buckets = int(np.ceil(1.0 / bucket_width))
    edges = np.minimum(np.arange(n_buckets + 1) * bucket_width, 1.0)
    usable = np.flatnonzero(~np.isnan(absence))
    idx = np.minimum((absence[usable] / bucket_width).astype(np.int64), n_buckets - 1)

    arrays = {h: np.asarray(v, dtype=np.float64) for h, v in values.items()}
    pairs = list(itertools.combinations(arrays, 2))
    for first, second in pairs:
        a, b = arrays[first], arrays[second]
        if a.shape != b.shape or a.ndim != 2 or a.shape[1] != absence.size:
            raise ValueError("value arrays must share an (R, N) shape matching absence")
    reps = arrays[pairs[0][0]].shape[0] if pairs else 0

    counts, stats = [], []  # per bucket: its size, and (mean, lo95, hi95) per pair
    for k in range(n_buckets):
        cols = usable[idx == k]
        count = reps * cols.size
        counts.append(count)
        if not count:
            stats.append([(None, None, None)] * len(pairs))
            continue
        stats.append([])
        step = max(1, _DIFF_CELLS // count)
        for start in range(0, len(pairs), step):
            chunk = pairs[start : start + step]
            diffs = np.empty((len(chunk), count))
            for row, (f, s) in zip(diffs, chunk):
                np.subtract(arrays[f][:, cols], arrays[s][:, cols], out=row.reshape(reps, cols.size))
            means = diffs.mean(axis=1).tolist()  # before the percentile reorders diffs in place
            lo, hi = np.percentile(diffs, [2.5, 97.5], axis=1, overwrite_input=True).tolist()
            stats[-1].extend(zip(means, lo, hi))
            del diffs  # before the next chunk allocates

    return [
        PairedBucket(first, second, float(edges[k]), float(edges[k + 1]), counts[k], *stats[k][p])
        for p, (first, second) in enumerate(pairs)
        for k in range(n_buckets)
    ]
