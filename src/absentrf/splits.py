"""Impurity criteria and best-split search for ordered and categorical predictors.

Three categorical strategies are implemented, mirroring the classical
CART toolbox:

* pseudo-value search: each present level is replaced by a per-level
  summary (mean response for regression, first-class proportion for
  binary classification) and an ordered scan over those pseudo values
  finds the best threshold.  By Fisher's grouping argument the induced
  level bipartition is optimal over all ``2**(Q-1) - 1`` candidates.
* exhaustive search: integer bitmask enumeration of every bipartition,
  scanning encodings ``1 .. 2**(Q-1) - 1`` in increasing order and
  keeping a candidate only on *strict* improvement.  Bit ``q-1`` of the
  encoding sends level ``q`` left, so e.g. encoding 5 with four levels
  (binary 0101) puts levels {1, 3} left and {2, 4} right.  Because ties
  never displace an earlier winner, levels that do not occur in the
  node -- and level ``Q``, whose bit is never set -- always end up in
  the right daughter.
* random search: a fixed number of bitmask candidates with every bit an
  independent fair coin, for level counts where enumeration is too
  expensive.

All searches resolve objective ties by keeping the first candidate in
scan order, and comparisons are exact ``<`` on float64 -- both choices
are deliberate, because downstream behaviour for unseen levels depends
on them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, CLASSIFICATION, NUMERIC, REGRESSION, Dataset

LEFT = "left"
RIGHT = "right"

# Enumerating 2**(Q-1) - 1 bitmasks beyond this point is refused outright;
# callers are expected to fall back to random_categorical_split.
EXHAUSTIVE_HARD_LIMIT = 16

_ENUM_CHUNK = 1 << 15


@dataclass(frozen=True)
class OrderedRule:
    """Route left iff ``x <= threshold``; threshold is an observed value."""

    threshold: float


@dataclass(frozen=True)
class CategoricalRule:
    """Level bipartition plus the bookkeeping needed at routing time.

    ``present``/``absent`` record which levels occurred in the node's
    training multiset when the split was chosen; only present levels
    have a defined side (``left_levels`` and its complement within
    ``present``).  ``bitmask`` is the little-endian integer encoding
    (bit ``q-1`` on = level ``q`` left) used for serialization; for
    random-search splits it may carry bits for absent levels, which the
    router never consults.  ``pseudo_split`` and ``gamma`` are retained
    for pseudo-value splits so the zero-imputation emulation and audits
    can reconstruct the decision.
    """

    left_levels: frozenset[int]
    present: frozenset[int]
    absent: frozenset[int]
    bitmask: int
    pseudo_split: float | None = None
    gamma: tuple[tuple[int, float], ...] | None = None

    @property
    def n_levels(self) -> int:
        return len(self.present) + len(self.absent)


@dataclass(frozen=True)
class GammaTable:
    """Per-level pseudo values for one categorical predictor at one node."""

    predictor: int
    values: tuple[tuple[int, float], ...]  # (level, gamma), ascending level
    present: frozenset[int]
    absent: frozenset[int]

    def value(self, level: int) -> float:
        for q, g in self.values:
            if q == level:
                return g
        raise KeyError(f"level {level} is not present in the node")


@dataclass(frozen=True)
class CandidateSplit:
    predictor: int
    rule: OrderedRule | CategoricalRule
    impurity: float
    left_size: int
    right_size: int


# ---------------------------------------------------------------------------
# node summaries


def node_mean(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean of an empty node is undefined")
    return float(arr.mean())


def class_proportions(values, n_classes: int) -> np.ndarray:
    """Class share vector (index 0 = class 1) for int labels ``1..K``."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("class proportions of an empty node are undefined")
    if arr.min() < 1 or arr.max() > n_classes:
        raise ValueError(f"class index outside 1..{n_classes}")
    counts = np.bincount(arr, minlength=n_classes + 1)[1:]
    return counts / arr.size


def gini(proportions) -> float:
    """Gini impurity ``sum_k p_k * (1 - p_k)`` of a proportion vector."""
    p = np.asarray(proportions, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty proportion vector")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError("proportions must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")
    return float(np.sum(p * (1.0 - p)))


def split_objective(task: str, left_values, right_values, n_classes: int | None = None) -> float:
    """Criterion minimised by every split search.

    Regression: total within-daughter sum of squared deviations from the
    daughter means.  Classification: daughter Gini impurities weighted
    by daughter size, divided by the mother size.
    """
    left = np.asarray(left_values)
    right = np.asarray(right_values)
    if left.size == 0 or right.size == 0:
        raise ValueError("both daughters must be non-empty")
    if task == REGRESSION:
        l = left.astype(np.float64)
        r = right.astype(np.float64)
        return float(((l - l.mean()) ** 2).sum() + ((r - r.mean()) ** 2).sum())
    if task == CLASSIFICATION:
        if not n_classes:
            raise ValueError("classification objective needs n_classes")
        gl = gini(class_proportions(left, n_classes))
        gr = gini(class_proportions(right, n_classes))
        n = left.size + right.size
        return float((left.size * gl + right.size * gr) / n)
    raise ValueError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# vectorised objective kernels (private)


def _prefix_objective_regression(y_sorted: np.ndarray, cut_idx: np.ndarray) -> np.ndarray:
    """Objective at each cut (left block = sorted positions 0..c).

    Values are centred on the mother mean first; the objective is
    shift-invariant and centring keeps the cumulative-sum formula well
    conditioned.
    """
    yc = y_sorted - y_sorted.mean()
    cs = np.cumsum(yc)
    css = np.cumsum(yc * yc)
    n = yc.size
    nl = cut_idx + 1.0
    nr = n - nl
    sl = cs[cut_idx]
    ssl = css[cut_idx]
    st, sst = cs[-1], css[-1]
    sse_l = ssl - sl * sl / nl
    sse_r = (sst - ssl) - (st - sl) ** 2 / nr
    # tiny negatives are cancellation noise
    return np.maximum(sse_l, 0.0) + np.maximum(sse_r, 0.0)


def _prefix_objective_gini(y_sorted: np.ndarray, cut_idx: np.ndarray, n_classes: int) -> np.ndarray:
    onehot = (y_sorted[:, None] == np.arange(1, n_classes + 1)[None, :]).astype(np.int64)
    cum = np.cumsum(onehot, axis=0)
    n = y_sorted.size
    lc = cum[cut_idx].astype(np.float64)
    rc = cum[-1].astype(np.float64) - lc
    nl = (cut_idx + 1).astype(np.float64)
    nr = n - nl
    gl = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
    return (nl * gl + nr * gr) / n


def _masked_gini_objective(
    bits: np.ndarray, level_class_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-Gini objective for a batch of level bitmasks.

    ``bits`` is (M, Q) 0/1, ``level_class_counts`` is (Q, K) ints.
    Returns (objective, left_n, right_n) with ``inf`` objective where a
    present-level daughter would be empty.
    """
    lc = bits @ level_class_counts  # (M, K) ints
    tc = level_class_counts.sum(axis=0)
    rc = tc[None, :] - lc
    ln = lc.sum(axis=1)
    rn = rc.sum(axis=1)
    n = float(tc.sum())
    valid = (ln > 0) & (rn > 0)
    lnf = ln.astype(np.float64)
    rnf = rn.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = 1.0 - ((lc / lnf[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / rnf[:, None]) ** 2).sum(axis=1)
        obj = (lnf * gl + rnf * gr) / n
    obj = np.where(valid, obj, np.inf)
    return obj, ln, rn


def _mother_arrays(dataset: Dataset, rows, predictor: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty mother node")
    if dataset.y is None:
        raise ValueError("dataset has no response")
    return dataset.columns[predictor][rows], dataset.y[rows]


# ---------------------------------------------------------------------------
# ordered predictors


def best_ordered_split(dataset: Dataset, rows, predictor: int) -> CandidateSplit | None:
    """Best threshold split of an ordered predictor, or None if every
    observed value is identical.  Ties on the objective keep the lowest
    threshold."""
    spec = dataset.schema[predictor]
    if spec.kind != NUMERIC:
        raise ValueError(f"column {spec.name!r} is not ordered")
    x, y = _mother_arrays(dataset, rows, predictor)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    cuts = np.flatnonzero(xs[:-1] != xs[1:])
    if cuts.size == 0:
        return None
    if dataset.task == REGRESSION:
        obj = _prefix_objective_regression(ys, cuts)
    else:
        obj = _prefix_objective_gini(ys, cuts, dataset.response.n_classes)
    i = int(np.argmin(obj))
    c = int(cuts[i])
    return CandidateSplit(
        predictor=predictor,
        rule=OrderedRule(threshold=float(xs[c])),
        impurity=float(obj[i]),
        left_size=c + 1,
        right_size=int(xs.size) - c - 1,
    )


# ---------------------------------------------------------------------------
# categorical predictors: pseudo-value route


def gamma_table(dataset: Dataset, rows, predictor: int) -> GammaTable:
    """Per-level pseudo values for the rows of one node.

    Regression: the mean response of each present level.  Binary
    classification: each present level's proportion of class 1.
    Undefined for more than two classes.
    """
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    x, y = _mother_arrays(dataset, rows, predictor)
    q = spec.n_levels
    counts = np.bincount(x, minlength=q + 1)[1:]
    present = frozenset(int(v) + 1 for v in np.flatnonzero(counts > 0))
    absent = frozenset(range(1, q + 1)) - present
    if dataset.task == REGRESSION:
        sums = np.bincount(x, weights=y.astype(np.float64), minlength=q + 1)[1:]
    else:
        if dataset.response.n_classes != 2:
            raise ValueError("pseudo values are undefined for more than two classes")
        sums = np.bincount(x[y == 1], minlength=q + 1)[1:].astype(np.float64)
    with np.errstate(invalid="ignore"):
        gam = sums / counts
    values = tuple((int(q_), float(gam[q_ - 1])) for q_ in sorted(present))
    return GammaTable(predictor=predictor, values=values, present=present, absent=absent)


def pseudo_value_split(
    dataset: Dataset, rows, predictor: int, table: GammaTable
) -> CandidateSplit | None:
    """Ordered scan over per-level pseudo values.

    Levels are sorted by pseudo value and every boundary between
    distinct values is a candidate threshold; the returned split stores
    the winning threshold and sends exactly the levels with pseudo value
    at or below it to the left.  Returns None when fewer than two
    distinct pseudo values exist.
    """
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    if table.predictor != predictor:
        raise ValueError("pseudo-value table belongs to a different predictor")
    x, y = _mother_arrays(dataset, rows, predictor)
    q = spec.n_levels
    counts = np.bincount(x, minlength=q + 1)[1:]
    observed = frozenset(int(v) + 1 for v in np.flatnonzero(counts > 0))
    if observed != table.present:
        raise ValueError("pseudo-value table is inconsistent with the node rows")
    if len(observed) < 2:
        return None

    levels = np.array(sorted(observed), dtype=np.int64)
    gam = np.array([table.value(int(q_)) for q_ in levels])
    order = np.argsort(gam, kind="stable")
    levels_sorted = levels[order]
    gam_sorted = gam[order]
    cuts = np.flatnonzero(gam_sorted[:-1] != gam_sorted[1:])
    if cuts.size == 0:
        return None  # all pseudo values equal: no bipartition can improve

    n_lvl = counts[levels_sorted - 1].astype(np.int64)
    nl = np.cumsum(n_lvl)
    if dataset.task == REGRESSION:
        yc = y - y.mean()
        s_lvl = np.bincount(x, weights=yc, minlength=q + 1)[1:][levels_sorted - 1]
        ss_lvl = np.bincount(x, weights=yc * yc, minlength=q + 1)[1:][levels_sorted - 1]
        sl = np.cumsum(s_lvl)[cuts]
        ssl = np.cumsum(ss_lvl)[cuts]
        nlc = nl[cuts].astype(np.float64)
        nrc = x.size - nlc
        st, sst = float(np.sum(s_lvl)), float(np.sum(ss_lvl))
        sse_l = ssl - sl * sl / nlc
        sse_r = (sst - ssl) - (st - sl) ** 2 / nrc
        obj = np.maximum(sse_l, 0.0) + np.maximum(sse_r, 0.0)
    else:
        k = dataset.response.n_classes
        lvl_cc = np.zeros((q + 1, k + 1), dtype=np.int64)
        np.add.at(lvl_cc, (x, y), 1)
        cc_sorted = lvl_cc[levels_sorted, 1:]
        cum = np.cumsum(cc_sorted, axis=0).astype(np.float64)
        lc = cum[cuts]
        rc = cum[-1][None, :] - lc
        nlc = nl[cuts].astype(np.float64)
        nrc = x.size - nlc
        gl = 1.0 - ((lc / nlc[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / nrc[:, None]) ** 2).sum(axis=1)
        obj = (nlc * gl + nrc * gr) / x.size

    i = int(np.argmin(obj))
    c = int(cuts[i])
    pseudo_split = float(gam_sorted[c])
    left = frozenset(int(v) for v in levels_sorted[: c + 1])
    bitmask = 0
    for q_ in left:
        bitmask |= 1 << (q_ - 1)
    rule = CategoricalRule(
        left_levels=left,
        present=table.present,
        absent=table.absent,
        bitmask=bitmask,
        pseudo_split=pseudo_split,
        gamma=table.values,
    )
    return CandidateSplit(
        predictor=predictor,
        rule=rule,
        impurity=float(obj[i]),
        left_size=int(nl[c]),
        right_size=int(x.size - nl[c]),
    )


def emulate_zero_imputed_routing(table: GammaTable, pseudo_split: float) -> dict[int, str]:
    """Side each absent level takes under the classical implementation
    trick of treating never-seen levels as pseudo value zero: left
    exactly when ``0 <= pseudo_split``."""
    side = LEFT if 0.0 <= pseudo_split else RIGHT
    return {int(q): side for q in sorted(table.absent)}


# ---------------------------------------------------------------------------
# categorical predictors: bitmask routes


def count_partitions(n_levels: int) -> int:
    """Number of distinct level bipartitions: ``2**(Q-1) - 1``."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    return (1 << (n_levels - 1)) - 1


def _level_class_counts(x: np.ndarray, y: np.ndarray, q: int, k: int) -> np.ndarray:
    mat = np.zeros((q + 1, k + 1), dtype=np.int64)
    np.add.at(mat, (x, y), 1)
    return mat[1:, 1:]


def _finish_bitmask_split(
    predictor: int,
    bitmask: int,
    impurity: float,
    left_n: int,
    right_n: int,
    counts_per_level: np.ndarray,
) -> CandidateSplit:
    q = counts_per_level.size
    present = frozenset(int(v) + 1 for v in np.flatnonzero(counts_per_level > 0))
    absent = frozenset(range(1, q + 1)) - present
    left = frozenset(q_ for q_ in present if bitmask >> (q_ - 1) & 1)
    rule = CategoricalRule(
        left_levels=left, present=present, absent=absent, bitmask=int(bitmask)
    )
    return CandidateSplit(predictor, rule, float(impurity), int(left_n), int(right_n))


def exhaustive_categorical_split(
    dataset: Dataset, rows, predictor: int, limit: int = EXHAUSTIVE_HARD_LIMIT
) -> CandidateSplit | None:
    """Enumerate every level bipartition of a categorical predictor.

    Classification only.  Encodings ``1 .. 2**(Q-1) - 1`` are scanned in
    increasing order and the incumbent is replaced only on strict
    improvement, so among tied optima the smallest encoding wins --
    which is the one sending every absent level (and level ``Q``) right.
    Raises when ``Q`` exceeds ``limit``; use the random search instead.
    """
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    if dataset.task != CLASSIFICATION:
        raise ValueError("exhaustive bitmask search applies to classification splits")
    q = spec.n_levels
    if q > limit or q > EXHAUSTIVE_HARD_LIMIT:
        raise ValueError(
            f"{count_partitions(q)} bipartitions of {q} levels exceed the exhaustive "
            f"limit ({min(limit, EXHAUSTIVE_HARD_LIMIT)} levels); use random_categorical_split"
        )
    if q < 2:
        return None
    x, y = _mother_arrays(dataset, rows, predictor)
    k = dataset.response.n_classes
    lvl_cc = _level_class_counts(x, y, q, k)
    shifts = np.arange(q, dtype=np.int64)

    best_obj = np.inf
    best = None  # (bitmask, left_n, right_n)
    top = 1 << (q - 1)
    for start in range(1, top, _ENUM_CHUNK):
        masks = np.arange(start, min(start + _ENUM_CHUNK, top), dtype=np.int64)
        bits = (masks[:, None] >> shifts[None, :]) & 1
        obj, ln, rn = _masked_gini_objective(bits, lvl_cc)
        i = int(np.argmin(obj))
        if obj[i] < best_obj:  # strict: earlier chunks keep ties
            best_obj = float(obj[i])
            best = (int(masks[i]), int(ln[i]), int(rn[i]))
    if best is None or not np.isfinite(best_obj):
        return None
    counts_per_level = lvl_cc.sum(axis=1)
    return _finish_bitmask_split(predictor, best[0], best_obj, best[1], best[2], counts_per_level)


def random_bitmasks(rng: np.random.Generator, n_candidates: int, n_levels: int) -> np.ndarray:
    """(n_candidates, n_levels) matrix of independent fair-coin bits."""
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    return rng.integers(0, 2, size=(n_candidates, n_levels), dtype=np.int64)


def random_categorical_split(
    dataset: Dataset, rows, predictor: int, rng: np.random.Generator, n_candidates: int = 1024
) -> CandidateSplit | None:
    """Random bitmask search for high-cardinality categorical predictors.

    Draws ``n_candidates`` masks with every one of the ``Q`` bits an
    independent fair coin (absent levels included), discards draws that
    leave a present-level daughter empty, and keeps the first strict
    optimum in draw order.  Returns None when no draw is valid.
    """
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    if dataset.task != CLASSIFICATION:
        raise ValueError("random bitmask search applies to classification splits")
    x, y = _mother_arrays(dataset, rows, predictor)
    q = spec.n_levels
    k = dataset.response.n_classes
    bits = random_bitmasks(rng, n_candidates, q)
    lvl_cc = _level_class_counts(x, y, q, k)
    obj, ln, rn = _masked_gini_objective(bits, lvl_cc)
    i = int(np.argmin(obj))
    if not np.isfinite(obj[i]):
        return None
    bitmask = 0
    for q_ in range(q):
        if bits[i, q_]:
            bitmask |= 1 << q_
    counts_per_level = lvl_cc.sum(axis=1)
    return _finish_bitmask_split(
        predictor, bitmask, float(obj[i]), int(ln[i]), int(rn[i]), counts_per_level
    )
