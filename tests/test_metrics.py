"""Metric unit tests against independent brute-force oracles.

The oracles below are deliberately naive re-derivations -- pairwise
comparison AUC, a per-threshold recount for average precision, the
agreement formula for kappa written with explicit loops -- so that the
vectorised implementations are checked by a genuinely separate route.
"""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absentrf.metrics import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    PairedBucket,
    cohen_kappa,
    log_loss,
    paired_difference_summary,
    pr_auc,
    relative_to_best,
    rmse,
    roc_auc,
)
from absentrf.metrics import _midranks

# ---------------------------------------------------------------------------
# oracles


def auc_pairwise(scores, labels, positive):
    """Probability a random positive outscores a random negative, ties
    counted half, by looping over every (positive, negative) pair."""
    pos = [s for s, l in zip(scores, labels) if l == positive]
    neg = [s for s, l in zip(scores, labels) if l != positive]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def ap_recount(scores, labels, positive):
    """Average precision by recounting tp/fp at every distinct score."""
    n_pos = sum(1 for l in labels if l == positive)
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        kept = [l for s, l in zip(scores, labels) if s >= t]
        tp = sum(1 for l in kept if l == positive)
        precision = tp / len(kept)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def kappa_loops(a, b, n_classes):
    n = len(a)
    o = sum(1 for x, y in zip(a, b) if x == y) / n
    e = 0.0
    for k in range(1, n_classes + 1):
        e += (sum(1 for x in a if x == k) / n) * (sum(1 for x in b if x == k) / n)
    if list(a) == list(b):
        return 1.0
    return (o - e) / (1.0 - e)


# ---------------------------------------------------------------------------
# frozen examples


def test_roc_auc_frozen_example():
    # one concordant pair, one discordant pair
    value = roc_auc([0.9, 0.8, 0.3], [1, 2, 1], positive=1)
    assert value == auc_pairwise([0.9, 0.8, 0.3], [1, 2, 1], 1)
    assert value == 0.5


def test_pr_auc_frozen_example():
    scores = [0.9, 0.8, 0.3]
    labels = [1, 2, 1]
    value = pr_auc(scores, labels, positive=1)
    assert value == ap_recount(scores, labels, 1)
    assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-15)


def test_pr_auc_constant_scores_equals_prevalence():
    assert pr_auc([0.4, 0.4, 0.4, 0.4], [1, 2, 2, 2], positive=1) == pytest.approx(0.25)


def test_roc_auc_constant_scores_is_half():
    assert roc_auc([1.0, 1.0, 1.0], [1, 2, 1], positive=1) == pytest.approx(0.5)


def test_kappa_frozen_example():
    a = [1, 1, 2, 2]
    b = [1, 2, 1, 2]
    assert cohen_kappa(a, b, 2) == kappa_loops(a, b, 2) == 0.0


def test_kappa_identical_is_one_even_when_chance_is_total():
    assert cohen_kappa([1, 1, 1], [1, 1, 1], 3) == 1.0


def test_rmse_basics():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0], [5.0]) == 2.0


def test_log_loss_clips_zero_probability():
    probs = np.array([[0.0, 1.0]])
    eps = 1.0 / 1000.0
    assert log_loss(probs, [1], eps) == pytest.approx(-np.log(eps))


def test_log_loss_perfect_prediction_is_clipped_too():
    probs = np.array([[1.0, 0.0]])
    assert log_loss(probs, [1], 0.001) == pytest.approx(-np.log(0.999))


def test_relative_to_best_lower_orientation():
    values = {"stop": 2.0, "majority": 2.5, "left": 3.0}
    rel = relative_to_best(values, ["stop", "majority"], LOWER_IS_BETTER)
    assert rel["stop"] == 0.0
    assert rel["majority"] == pytest.approx(0.25)
    assert rel["left"] == pytest.approx(0.5)


def test_relative_to_best_higher_orientation():
    values = {"stop": 0.8, "majority": 0.9, "left": 0.6}
    rel = relative_to_best(values, ["stop", "majority"], HIGHER_IS_BETTER)
    assert rel["majority"] == 0.0
    assert rel["left"] == pytest.approx((0.6 - 0.9) / 0.9)


def test_relative_to_best_zero_optimum_errors():
    with pytest.raises(ValueError):
        relative_to_best({"stop": 0.0, "left": 1.0}, ["stop"], LOWER_IS_BETTER)


# ---------------------------------------------------------------------------
# randomized agreement with the oracles


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_roc_auc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
    labels = rng.integers(1, 3, size=n)
    if labels.min() == labels.max():
        labels[0] = 3 - labels[0]
    assert roc_auc(scores, labels, 1) == pytest.approx(
        auc_pairwise(list(scores), list(labels), 1), abs=1e-12
    )


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_pr_auc_matches_recount_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    scores = np.round(rng.normal(size=n), 2)
    labels = rng.integers(1, 3, size=n)
    if labels.min() == labels.max():
        labels[0] = 3 - labels[0]
    assert pr_auc(scores, labels, 1) == pytest.approx(
        ap_recount(list(scores), list(labels), 1), abs=1e-12
    )


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_kappa_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    k = int(rng.integers(2, 5))
    a = rng.integers(1, k + 1, size=n)
    b = rng.integers(1, k + 1, size=n)
    assert cohen_kappa(a, b, k) == pytest.approx(kappa_loops(list(a), list(b), k), abs=1e-12)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_roc_auc_monotone_transform_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    scores = rng.normal(size=n)
    labels = rng.integers(1, 3, size=n)
    if labels.min() == labels.max():
        labels[0] = 3 - labels[0]
    a = roc_auc(scores, labels, 1)
    b = roc_auc(np.exp(scores) * 3.0 + 1.0, labels, 1)
    assert a == pytest.approx(b, abs=1e-12)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_kappa_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    a = rng.integers(1, 4, size=n)
    b = rng.integers(1, 4, size=n)
    assert cohen_kappa(a, b, 3) == pytest.approx(cohen_kappa(b, a, 3), abs=1e-12)


# ---------------------------------------------------------------------------
# paired difference buckets


def test_paired_difference_buckets():
    values = {
        "stop": np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
        "left": np.array([[1.0, 1.0, 0.0], [1.0, 1.5, 1.0]]),
    }
    absence = np.array([0.02, 0.02, 0.93])
    out = paired_difference_summary(values, absence, bucket_width=0.05)
    assert all(isinstance(b, PairedBucket) for b in out)
    assert len(out) == 20  # one pair, twenty buckets
    first = out[0]
    assert (first.first, first.second) == ("stop", "left")
    assert first.count == 4  # two rows x two replications
    assert first.mean == pytest.approx((0.0 + 1.0 + 0.0 + 0.5) / 4)
    last = out[-2]  # bucket [0.90, 0.95)
    assert last.count == 2
    assert last.mean == pytest.approx((3.0 + 2.0) / 2)
    assert last.excludes_zero
    empties = [b for b in out if b.count == 0]
    assert empties and all(b.mean is None and not b.excludes_zero for b in empties)


def test_paired_difference_skips_undefined_rows():
    values = {"a": np.ones((1, 2)), "b": np.zeros((1, 2))}
    absence = np.array([0.5, np.nan])
    out = paired_difference_summary(values, absence, bucket_width=0.5)
    assert sum(b.count for b in out) == 1


# quarters give ties; differences of signed zeros give both 0.0 and -0.0
_CELL = st.one_of(st.integers(-8, 8).map(lambda v: v / 4), st.sampled_from([-0.0, np.nan, np.inf, -np.inf]))


@given(n_heuristics=st.integers(2, 4), reps=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_paired_difference_summary_equals_np_percentile_per_bucket(n_heuristics, reps, data):
    bucket = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, None]), max_size=12))
    absence = np.array([np.nan if b is None else (b + 0.5) / 4 for b in bucket])
    size = reps * len(bucket)
    values = {
        f"h{i}": np.array(data.draw(st.lists(_CELL, min_size=size, max_size=size)), dtype=np.float64).reshape(
            reps, len(bucket)
        )
        for i in range(n_heuristics)
    }
    # inf - inf warns as it does in np.percentile and .mean(), and only where it does
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        got = paired_difference_summary(values, absence, bucket_width=0.25)
    names = list(values)
    pairs = [(f, s) for i, f in enumerate(names) for s in names[i + 1 :]]
    assert [(b.first, b.second) for b in got] == [pair for pair in pairs for _ in range(4)]
    with warnings.catch_warnings(record=True) as theirs:
        warnings.simplefilter("always")
        for j, (first, second) in enumerate(pairs):
            diffs = values[first] - values[second]
            for k in range(4):
                out = got[4 * j + k]
                sel = diffs[:, [c for c, b in enumerate(bucket) if b == k]].ravel()
                assert out.count == sel.size
                if sel.size == 0:
                    assert (out.mean, out.lo95, out.hi95) == (None, None, None)
                    continue
                want = np.array([sel.mean(), *np.percentile(sel, [2.5, 97.5])])
                have = np.array([out.mean, out.lo95, out.hi95])
                assert np.array_equal(np.isnan(have), np.isnan(want))
                assert have[~np.isnan(want)].tobytes() == want[~np.isnan(want)].tobytes()
    assert bool(ours) <= bool(theirs)


def test_paired_difference_summary_holds_a_chunk_of_pairs_at_a_time():
    # R = 100 replications of N = 2,000 rows for 7 heuristics, most rows in
    # one bucket: 21 pairs of up to 200,000 differences, 32 MiB all at once
    rng = np.random.default_rng(0)
    values = {f"h{i}": rng.normal(size=(100, 2000)) for i in range(7)}
    absence = np.clip(0.37 + 0.01 * rng.normal(size=2000), 0.0, 1.0)
    tracemalloc.start()
    try:
        got = paired_difference_summary(values, absence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
    bucket = np.minimum((absence / 0.05).astype(np.int64), 19)
    for out in got:
        if out.count:
            k = round(out.bucket_low / 0.05)
            sel = (values[out.first] - values[out.second])[:, bucket == k].ravel()
            want = np.array([sel.mean(), *np.percentile(sel, [2.5, 97.5])])
            assert np.array([out.mean, out.lo95, out.hi95]).tobytes() == want.tobytes()


@pytest.mark.parametrize("bucket_values", [[1.5], [2.0, -1.0], [0.5, 0.5], [3.0, 3.0, 3.0, -1.0]])
def test_paired_difference_interval_of_small_and_tied_buckets(bucket_values):
    values = {"a": np.array([bucket_values]), "b": np.zeros((1, len(bucket_values)))}
    out = paired_difference_summary(values, np.full(len(bucket_values), 0.5), bucket_width=0.5)
    want = np.percentile(np.array(bucket_values), [2.5, 97.5])
    assert (out[1].lo95, out[1].hi95) == (float(want[0]), float(want[1]))


# ---------------------------------------------------------------------------
# midranks against the loop it replaced


def midranks_loop(values):
    """Average 1-based ranks, one run of equal sorted values at a time."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan, np.inf, -np.inf]), st.floats()),
        max_size=80,
    )
)
@settings(max_examples=300, deadline=None)
def test_midranks_equals_the_loop(values):
    values = np.array(values, dtype=np.float64)
    assert _midranks(values).tobytes() == midranks_loop(values).tobytes()
