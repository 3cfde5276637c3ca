"""Split-search tests against a brute-force bipartition oracle.

The oracle enumerates every level bipartition directly (last present
level pinned right so each partition appears once) and recomputes the
objective from first principles, independent of the vectorised kernels
under test.
"""
import contextlib
import dataclasses
import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absentrf import splits, synth
from absentrf.data import (
    CATEGORICAL,
    CLASSIFICATION,
    NUMERIC,
    REGRESSION,
    RESPONSE_CLASS,
    RESPONSE_NUMERIC,
    ColumnSchema,
    ResponseSpec,
    from_arrays,
    one_hot_transform,
)
from absentrf.forest import ForestConfig, forest_hash, train_forest
from absentrf.splits import (
    EXHAUSTIVE_HARD_LIMIT,
    LEFT,
    RIGHT,
    CandidateSplit,
    CategoricalRule,
    ColumnTable,
    NodeBlock,
    OrderedRule,
    best_ordered_split,
    bitmask_batch,
    count_partitions,
    emulate_zero_imputed_routing,
    exhaustive_categorical_split,
    gamma_table,
    ordered_split_batch,
    pseudo_value_batch,
    pseudo_value_split,
    random_bitmasks,
    random_categorical_split,
)
from absentrf.splits import _column_sum, _gini, _row_sums, _runs

import reference
from test_golden import GOLDEN
from reference import (
    _masked_gini_objective,
    best_ordered_splits,
    class_proportions,
    gini,
    node_mean,
    pseudo_value_search,
    split_objective,
)

# ---------------------------------------------------------------------------
# construction helpers and the oracle


def cat_dataset(x, y, q, task, k=2):
    schema = (ColumnSchema("cat", CATEGORICAL, tuple(f"L{i}" for i in range(1, q + 1))),)
    if task == REGRESSION:
        response = ResponseSpec(RESPONSE_NUMERIC)
    else:
        response = ResponseSpec(RESPONSE_CLASS, tuple(f"c{i}" for i in range(1, k + 1)))
    return from_arrays(schema, response, [np.asarray(x, dtype=np.int64)], np.asarray(y))


def num_dataset(x, y):
    schema = (ColumnSchema("num", NUMERIC),)
    return from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), [np.asarray(x, float)], np.asarray(y, float))


def nums_dataset(columns, y, task, k=2):
    schema = tuple(ColumnSchema(f"num{j}", NUMERIC) for j in range(len(columns)))
    if task == REGRESSION:
        response = ResponseSpec(RESPONSE_NUMERIC)
    else:
        response = ResponseSpec(RESPONSE_CLASS, tuple(f"c{i}" for i in range(1, k + 1)))
    return from_arrays(schema, response, [np.asarray(c, float) for c in columns], np.asarray(y))


def direct_objective(left, right, task, k=2):
    left = np.asarray(left)
    right = np.asarray(right)
    if task == REGRESSION:
        l = left.astype(float)
        r = right.astype(float)
        return float(((l - l.mean()) ** 2).sum() + ((r - r.mean()) ** 2).sum())

    def g(v):
        p = np.array([(v == c).sum() for c in range(1, k + 1)]) / v.size
        return float((p * (1.0 - p)).sum())

    n = left.size + right.size
    return (left.size * g(left) + right.size * g(right)) / n


def best_bipartition(x, y, task, k=2):
    """(objective, left level sets attaining it) by full enumeration."""
    x = np.asarray(x)
    y = np.asarray(y)
    present = sorted(set(int(v) for v in x))
    m = len(present)
    best = np.inf
    winners = []
    for mask in range(1, 1 << (m - 1)):
        left_levels = frozenset(present[i] for i in range(m - 1) if mask >> i & 1)
        sel = np.isin(x, sorted(left_levels))
        obj = direct_objective(y[sel], y[~sel], task, k)
        if obj < best - 1e-12:
            best = obj
            winners = [left_levels]
        elif obj <= best + 1e-12:
            winners.append(left_levels)
    return best, winners


def random_instance(seed, task, k=2, min_q=2, max_q=8, max_n=30, tie_prone=False):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(min_q, max_q + 1))
    n = int(rng.integers(2, max_n + 1))
    x = rng.integers(1, q + 1, size=n)
    if task == REGRESSION:
        y = rng.choice([0.0, 1.0, 2.0], size=n) if tie_prone else np.round(rng.normal(0, 5, n), 3)
    else:
        y = rng.integers(1, k + 1, size=n)
    return x, y, q


# ---------------------------------------------------------------------------
# reference formulas


def test_node_mean_and_proportions():
    assert node_mean([1.0, 2.0, 6.0]) == 3.0
    p = class_proportions([1, 1, 2, 3], 3)
    assert np.allclose(p, [0.5, 0.25, 0.25])
    assert gini(p) == pytest.approx(0.5 * 0.5 + 0.25 * 0.75 + 0.25 * 0.75)
    assert gini([1.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        node_mean([])
    with pytest.raises(ValueError):
        class_proportions([0, 1], 2)


def test_split_objective_regression_is_total_sse():
    left = np.array([1.0, 3.0])
    right = np.array([10.0, 10.0, 13.0])
    assert split_objective(REGRESSION, left, right) == pytest.approx(2.0 + 6.0)


def test_split_objective_classification_is_weighted_gini():
    left = np.array([1, 1])
    right = np.array([1, 2, 2])
    expected = (2 * 0.0 + 3 * (2.0 / 9.0 + 2.0 / 9.0)) / 5
    assert split_objective(CLASSIFICATION, left, right, 2) == pytest.approx(expected)
    with pytest.raises(ValueError):
        split_objective(CLASSIFICATION, left, np.array([]), 2)


def test_count_partitions():
    assert count_partitions(2) == 1
    assert count_partitions(4) == 7
    assert count_partitions(10) == 511
    # matches what the oracle actually enumerates
    x = np.arange(1, 5).repeat(2)
    y = np.arange(8, dtype=float)
    present = sorted(set(x))
    assert count_partitions(4) == (1 << (len(present) - 1)) - 1


# ---------------------------------------------------------------------------
# ordered splits


def test_ordered_split_simple():
    s = best_ordered_split(num_dataset([1, 2, 3, 4], [0, 0, 10, 10]), np.arange(4), 0)
    assert isinstance(s.rule, OrderedRule)
    assert s.rule.threshold == 2.0
    assert s.impurity == 0.0
    assert (s.left_size, s.right_size) == (2, 2)


def test_ordered_split_tie_keeps_lowest_threshold():
    # thresholds 1 and 3 tie at SSE 2/3; the scan keeps 1
    s = best_ordered_split(num_dataset([1, 2, 3, 4], [0, 1, 1, 0]), np.arange(4), 0)
    assert s.rule.threshold == 1.0
    assert s.impurity == pytest.approx(2.0 / 3.0)


def test_ordered_split_constant_predictor_is_none():
    assert best_ordered_split(num_dataset([5, 5, 5], [1, 2, 3]), np.arange(3), 0) is None


@given(st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_ordered_split_matches_threshold_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    x = rng.integers(0, 6, size=n).astype(float)  # few distinct values: ties likely
    y = np.round(rng.normal(0, 3, size=n), 3)
    ds = num_dataset(x, y)
    s = best_ordered_split(ds, np.arange(n), 0)
    thresholds = sorted(set(x))[:-1]
    if not thresholds:
        assert s is None
        return
    objs = [direct_objective(y[x <= t], y[x > t], REGRESSION) for t in thresholds]
    i = int(np.argmin(objs))  # first minimum, like the scan
    assert s.rule.threshold == thresholds[i]
    assert s.impurity == pytest.approx(objs[i], abs=1e-9)
    assert s.left_size == int((x <= thresholds[i]).sum())


@pytest.mark.parametrize("k", [2, 3])
@given(seed=st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_ordered_split_classification_matches_threshold_enumeration(k, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    x = rng.integers(0, 6, size=n).astype(float)
    y = rng.integers(1, k + 1, size=n)
    ds = nums_dataset([x], y, CLASSIFICATION, k)
    s = best_ordered_split(ds, np.arange(n), 0)
    thresholds = sorted(set(x))[:-1]
    if not thresholds:
        assert s is None
        return
    objs = [split_objective(CLASSIFICATION, y[x <= t], y[x > t], k) for t in thresholds]
    # Gini ties are common and the kernel's cumulative formula may order
    # exact ties differently in the last bit, so require an optimum and
    # no clearly better threshold below the chosen one
    i = thresholds.index(s.rule.threshold)
    assert objs[i] == pytest.approx(min(objs), abs=1e-12)
    assert s.impurity == pytest.approx(objs[i], abs=1e-12)
    assert all(o > objs[i] - 1e-12 for o in objs[:i])
    assert (s.left_size, s.right_size) == (int((x <= s.rule.threshold).sum()), int((x > s.rule.threshold).sum()))


@pytest.mark.parametrize("task,k", [(REGRESSION, 0), (CLASSIFICATION, 2), (CLASSIFICATION, 3)])
@given(seed=st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_batched_ordered_splits_equal_single_predictor_search(task, k, seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 25))
    p = int(rng.integers(1, 21))
    columns = []
    for _ in range(p):
        kind = rng.integers(0, 3)
        if kind == 0:
            columns.append(np.full(n_rows, float(rng.integers(-2, 3))))  # constant
        elif kind == 1:
            columns.append(rng.integers(0, 3, size=n_rows).astype(float))  # ties
        else:
            columns.append(np.round(rng.normal(0, 2, size=n_rows), 2))
    y = np.round(rng.normal(0, 3, size=n_rows), 3) if task == REGRESSION else rng.integers(1, k + 1, size=n_rows)
    ds = nums_dataset(columns, y, task, k)
    n = int(rng.choice([1, 2, int(rng.integers(1, 40))]))
    rows = rng.integers(0, n_rows, size=n)  # repeated row ids count twice
    predictors = rng.permutation(p)[: int(rng.integers(1, p + 1))].tolist()
    batch = best_ordered_splits(ds, rows, predictors)
    assert len(batch) == len(predictors)
    for j, predictor in enumerate(predictors):
        assert batch[j] == best_ordered_split(ds, rows, predictor)


def test_batched_ordered_splits_rejects_categorical():
    ds = cat_dataset([1, 2, 1], [0.0, 1.0, 2.0], 2, REGRESSION)
    with pytest.raises(ValueError, match="not ordered"):
        best_ordered_splits(ds, np.arange(3), [0])


# ---------------------------------------------------------------------------
# batched scans over many nodes vs the per-node kernels


def batch_instance(seed, task, k=2):
    """A dataset with numeric and categorical columns of every shape the
    scans branch on, and nodes with sizes around the 8- and 128-value
    steps of numpy's pairwise sum, one-row nodes and constant nodes."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(2, 300))
    columns, schema = [], []
    for j in range(int(rng.integers(1, 7))):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            col = np.full(n_rows, float(rng.integers(-2, 3)))  # constant
        elif kind == 1:
            col = rng.integers(0, 3, size=n_rows).astype(float)  # tie-heavy
        elif kind == 2:
            col = np.round(rng.normal(0, 2, size=n_rows), 2)
        if kind <= 2:
            columns.append(col)
            schema.append(ColumnSchema(f"num{j}", NUMERIC))
            continue
        q = int(rng.integers(1, 5)) if kind == 3 else int(rng.integers(5, 40))
        weights = rng.random(q) ** 3  # rare levels
        columns.append(rng.choice(np.arange(1, q + 1), size=n_rows, p=weights / weights.sum()))
        schema.append(ColumnSchema(f"cat{j}", CATEGORICAL, tuple(f"L{i}" for i in range(q))))
    if task == REGRESSION:
        y = rng.choice([0.0, 1.0, -2.5], size=n_rows) if seed % 3 == 0 else np.round(rng.normal(0, 3, n_rows), 3)
        response = ResponseSpec(RESPONSE_NUMERIC)
    else:
        y = rng.integers(1, k + 1, size=n_rows)
        response = ResponseSpec(RESPONSE_CLASS, tuple(f"c{i}" for i in range(1, k + 1)))
    ds = from_arrays(tuple(schema), response, columns, y)
    nodes = []
    for _ in range(int(rng.integers(1, 8))):
        size = int(rng.choice([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 257, int(rng.integers(1, 400))]))
        if rng.random() < 0.15:
            nodes.append(np.full(size, rng.integers(0, n_rows)))  # one row repeated: constant
        else:
            nodes.append(rng.integers(0, n_rows, size=size))  # repeated row ids count twice
    return ds, nodes, rng


def assert_same_entry(got: dict, want):
    """``got`` is the dump form of ``want``, its list order and float reprs
    included: the split entry that growth writes."""
    assert json.dumps(got, sort_keys=True) == json.dumps(reference._split_entry(want), sort_keys=True)


def assert_same_split(got, want):
    assert got == want
    assert repr(got.impurity) == repr(want.impurity)
    if isinstance(want.rule, OrderedRule):
        assert repr(got.rule.threshold) == repr(want.rule.threshold)
    else:
        assert repr(got.rule.pseudo_split) == repr(want.rule.pseudo_split)
        assert repr(got.rule.gamma) == repr(want.rule.gamma)


@pytest.mark.parametrize(
    "task,k",
    [(REGRESSION, 0)] + [(CLASSIFICATION, k) for k in (2, 3, 7, 8, 9, 17)],  # 7 | 8: where the share sum changes
)
@given(seed=st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_ordered_split_batch_equals_per_node_kernel(task, k, seed):
    ds, nodes, rng = batch_instance(seed, task, k)
    numeric = [p for p, spec in enumerate(ds.schema) if spec.kind == NUMERIC]
    if not numeric:
        return
    pairs = np.array([(i, p) for i in range(len(nodes)) for p in numeric if rng.random() < 0.8] or [(0, numeric[0])])
    impurity, found, entry = ordered_split_batch(NodeBlock(ColumnTable(ds), nodes), pairs[:, 0], pairs[:, 1])
    assert len(impurity) == len(found) == len(pairs)
    for j, (i, p) in enumerate(pairs.tolist()):
        want = best_ordered_splits(ds, nodes[i], [p])[0]
        assert found[j] == (want is not None)
        one = best_ordered_split(ds, nodes[i], p)
        assert (one is None) == (want is None)
        if want is not None:
            assert repr(float(impurity[j])) == repr(want.impurity)
            assert_same_entry(entry(j), want)
            assert_same_split(one, want)


# values of two-valued columns: both orders of the rarer value, 0/1 and others, ±inf
PAIR_VALUES = [(0.0, 1.0), (1.0, 0.0), (-2.5, 3.0), (7.0, -np.inf), (-np.inf, np.inf), (np.inf, 0.5), (1e300, -1e-300)]


@st.composite
def two_valued_instances(draw):
    """A dataset of two-valued numeric columns (the rarer value drawn first
    or second), with columns that must still be sorted: one holding -0.0
    beside 0.0 or another value, one holding NaN, one of a single value
    and one of three values; and nodes with repeated rows, nodes holding
    one value and one-row nodes."""
    task = draw(st.sampled_from([CLASSIFICATION] * 4 + [REGRESSION]))
    k = draw(st.sampled_from([2, 3, 7, 9]))
    n_rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["two"] * 4 + ["-0.0", "nan", "one", "three"]))
        pair = draw(st.sampled_from(PAIR_VALUES))
        col = np.where(rng.random(n_rows) < draw(st.sampled_from([0.05, 0.3, 0.5, 0.9])), *pair)
        if kind == "-0.0":
            col[rng.integers(0, n_rows)] = -0.0
        elif kind == "nan":
            col[rng.integers(0, n_rows)] = np.nan
        elif kind == "one":
            col[:] = pair[0]
        elif kind == "three":
            col[rng.integers(0, n_rows)] = 0.25
        columns.append(col)
    y = rng.normal(0, 2, n_rows) if task == REGRESSION else rng.integers(1, k + 1, n_rows)
    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.sampled_from([1, 1, 2, 5, 17, 60]))
        if draw(st.booleans()):  # the rows of one value of column 0 only
            among = np.flatnonzero(columns[0] == columns[0][rng.integers(0, n_rows)])
            nodes.append(rng.choice(among, size=size))
        else:
            nodes.append(rng.integers(0, n_rows, size=size))  # repeated row ids count twice
    return nums_dataset(columns, y, task, k), nodes


def is_two_valued(ds, p) -> bool:
    col = ds.columns[p]
    if ds.task != CLASSIFICATION or np.isnan(col).any() or ((col == 0) & np.signbit(col)).any():
        return False
    return np.unique(col).size == 2


@given(two_valued_instances())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ordered_split_batch_scores_two_valued_columns_without_sorting(case):
    ds, nodes = case
    sorted_preds = []

    def spy(block, node, pred, pairs, out):
        sorted_preds.extend(pred[pairs].tolist())
        return sorting_scan(block, node, pred, pairs, out)

    sorting_scan = splits._sorting_scan
    pairs = np.array([(i, p) for i in range(len(nodes)) for p in range(ds.n_predictors)])
    splits._sorting_scan = spy
    try:
        impurity, found, entry = ordered_split_batch(NodeBlock(ColumnTable(ds), nodes), pairs[:, 0], pairs[:, 1])
    finally:
        splits._sorting_scan = sorting_scan
    assert sorted(sorted_preds) == sorted(p for p in pairs[:, 1].tolist() if not is_two_valued(ds, p))
    for j, (i, p) in enumerate(pairs.tolist()):
        want = best_ordered_splits(ds, nodes[i], [p])[0]
        assert found[j] == (want is not None)
        if want is not None:
            assert repr(float(impurity[j])) == repr(want.impurity)
            assert_same_entry(entry(j), want)


@st.composite
def constant_column_instances(draw):
    """Numeric columns that hold one value (0.0, -0.0, ±inf or another),
    or nearly: NaN in every row, 0.0 beside -0.0, one other value; beside
    columns of many values, on regression or classification data; and
    nodes with repeated rows and one-row nodes."""
    task = draw(st.sampled_from([REGRESSION, CLASSIFICATION]))
    n_rows = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["one"] * 3 + ["nan", "zeros", "other", "many"]))
        col = np.full(n_rows, draw(st.sampled_from([0.0, -0.0, 1.5, -np.inf, np.inf])))
        if kind == "nan":
            col[:] = np.nan
        elif kind == "zeros":
            col[:] = 0.0
            col[rng.integers(0, n_rows)] = -0.0
        elif kind == "other":
            col[rng.integers(0, n_rows)] = 2.0
        elif kind == "many":
            col = np.round(rng.normal(size=n_rows), 1)
        columns.append(col)
    y = rng.normal(0, 2, n_rows) if task == REGRESSION else rng.integers(1, 4, n_rows)
    nodes = [rng.integers(0, n_rows, size=draw(st.sampled_from([1, 2, 9, 40]))) for _ in range(draw(st.integers(1, 4)))]
    return nums_dataset(columns, y, task, 3), nodes


@given(constant_column_instances())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ordered_split_batch_dispatch_on_constant_columns_and_regression_tables(case):
    ds, nodes = case
    pairs = np.array([(i, p) for i in range(len(nodes)) for p in range(ds.n_predictors)])
    table = ColumnTable(ds)
    one = [np.unique(c.view(np.int64)).size == 1 and not np.isnan(c[0]) for c in ds.columns]  # bitwise
    assert repr(table.const.tolist()) == repr([float(c[0]) if o else np.nan for c, o in zip(ds.columns, one)])
    sorted_pairs, sorting_scan = [], splits._sorting_scan

    def spy(block, node, pred, pairs, out):
        sorted_pairs.append(pairs)
        return sorting_scan(block, node, pred, pairs, out)

    splits._sorting_scan = spy
    try:
        impurity, found, entry = ordered_split_batch(NodeBlock(table, nodes), pairs[:, 0], pairs[:, 1])
    finally:
        splits._sorting_scan = sorting_scan
    if not table.any_two:  # every regression table: no lookup, every pair to the sorting scan at once
        assert len(sorted_pairs) == 1 and sorted_pairs[0] == slice(None)
    for j, (i, p) in enumerate(pairs.tolist()):
        want = best_ordered_splits(ds, nodes[i], [p])[0]
        assert found[j] == (want is not None)
        if want is not None:
            assert repr(float(impurity[j])) == repr(want.impurity)
            assert_same_entry(entry(j), want)
        elif one[p]:  # the outputs of a sorting scan that finds no cut
            got = entry(j)
            assert impurity[j] == np.inf and got["left_size"] == 1
            assert repr(got["threshold"]) == repr(float(ds.columns[p][0]))


def test_column_table_lists_two_valued_columns_of_classification_data_only():
    columns = [[1.0, 0.0, 0.0, 0.0], [3.0, 3.0, -np.inf, 3.0], [0.0, -0.0, 1.0, 1.0], [0.0, np.nan, 1.0, 1.0], [2.0] * 4]
    table = ColumnTable(nums_dataset(columns, [1, 2, 2, 1], CLASSIFICATION))
    assert repr(table.low.tolist()) == repr([0.0, -np.inf, np.nan, np.nan, np.nan])
    assert repr(table.rare.tolist()) == repr([1.0, -np.inf, np.nan, np.nan, np.nan])
    assert table.rare_at.tolist() == [0, 1, 2, 2, 2, 2] and table.rare_rows.tolist() == [0, 2]
    table = ColumnTable(nums_dataset(columns, [0.5, 1.0, 2.0, 1.0], REGRESSION))
    assert np.isnan(table.low).all() and np.isnan(table.rare).all() and table.rare_rows.size == 0


@pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
@given(seed=st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_pseudo_value_batch_equals_per_node_kernel(task, seed):
    ds, nodes, rng = batch_instance(seed, task)
    cats = [p for p, spec in enumerate(ds.schema) if spec.kind == CATEGORICAL]
    if not cats:
        return
    pairs = np.array([(i, p) for i in range(len(nodes)) for p in cats if rng.random() < 0.8] or [(0, cats[0])])
    impurity, found, entry = pseudo_value_batch(NodeBlock(ColumnTable(ds), nodes), pairs[:, 0], pairs[:, 1])
    assert len(impurity) == len(found) == len(pairs)
    for j, (i, p) in enumerate(pairs.tolist()):
        want = pseudo_value_search(ds, nodes[i], p)
        assert found[j] == (want is not None)
        one = pseudo_value_split(ds, nodes[i], p, gamma_table(ds, nodes[i], p))
        assert (one is None) == (want is None)
        if want is not None:
            assert repr(float(impurity[j])) == repr(want.impurity)
            assert_same_entry(entry(j), want)
            assert_same_split(one, want)


def test_batched_scans_reject_wrong_column_kinds():
    one = [np.arange(3)]
    zero = np.array([0])
    ds = cat_dataset([1, 2, 1], [0.0, 1.0, 2.0], 2, REGRESSION)
    with pytest.raises(ValueError, match="not ordered"):
        ordered_split_batch(NodeBlock(ColumnTable(ds), one), zero, zero)
    ds = num_dataset([1, 2, 3], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="not categorical"):
        pseudo_value_batch(NodeBlock(ColumnTable(ds), one), zero, zero)
    ds = cat_dataset([1, 2, 1], [1, 2, 3], 2, CLASSIFICATION, k=3)
    with pytest.raises(ValueError, match="more than two classes"):
        pseudo_value_batch(NodeBlock(ColumnTable(ds), one), zero, zero)


@given(seed=st.integers(0, 10**9), shape=st.sampled_from(["mixed", "wide", "short"]))
@settings(max_examples=100, deadline=None)
def test_row_sums_equal_ndarray_sum_of_each_prefix(seed, shape):
    rng = np.random.default_rng(seed)
    if shape == "wide":  # rows past numpy's 8192-element reduction buffer
        m, w = int(rng.integers(1, 6)), int(rng.integers(8193, 20000))
    elif shape == "short":  # many nodes of a few rows, as deep in a tree
        m, w = int(rng.integers(1000, 3000)), int(rng.integers(1, 12))
    else:
        m, w = int(rng.integers(1, 400)), int(rng.integers(1, 600))
    mat = rng.normal(size=(m, w)) * 10.0 ** rng.integers(-8, 9, size=(m, w))
    mat[rng.random((m, w)) < 0.2] = -0.0
    # as NodeBlock.mean passes them: many rows over a few lengths, or all apart
    pool = rng.integers(1, w + 1, size=int(rng.integers(1, 5)) if seed % 2 else m)
    lengths = rng.choice(pool, size=m)
    cells = np.arange(w) < lengths[:, None]
    # padding that would poison, or warn in, any sum that read it
    mat[~cells] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=int((~cells).sum()))
    want = np.array([mat[i, : lengths[i]].sum() for i in range(m)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_sums(mat, cells)
    assert got.tobytes() == want.tobytes()
    # and each node's mean, of rows drawn with repeats from a dataset
    y = rng.normal(size=w) * 10.0 ** rng.integers(-8, 9, size=w)
    ds = num_dataset(np.zeros(w), y)
    nodes = [rng.integers(0, w, size=n) for n in lengths.tolist()]
    block = NodeBlock(ColumnTable(ds), nodes)
    assert block.mean.tobytes() == np.array([ds.y[rows].mean() for rows in nodes]).tobytes()


@given(seed=st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_runs_cut_the_longest_slices_that_fit(seed):
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, int(rng.choice([3, 50, 2000, 40000])), size=int(rng.integers(1, 60)))
    if rng.random() < 0.5:
        widths = -np.sort(-widths)  # widest first, as the ordered and pseudo-value scans cut them
    cells = int(rng.choice([1, 7, 100, 1000, 4096, 16384]))
    start = 0
    for run in _runs(widths, cells):
        assert run.start == start < run.stop
        size = run.stop - run.start
        assert size == 1 or size * widths[run].max() <= cells
        if run.stop < widths.size:  # one entry more would not fit
            assert (size + 1) * widths[run.start : run.stop + 1].max() > cells
        start = run.stop
    assert start == widths.size


# ---------------------------------------------------------------------------
# pseudo-value splits vs the oracle


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_pseudo_split_regression_attains_bipartition_optimum(seed):
    x, y, q = random_instance(seed, REGRESSION)
    ds = cat_dataset(x, y, q, REGRESSION)
    rows = np.arange(x.size)
    table = gamma_table(ds, rows, 0)
    s = pseudo_value_split(ds, rows, 0, table)
    if s is None:
        # legitimate only when <2 present levels or all pseudo values tie
        gams = [g for _, g in table.values]
        assert len(table.present) < 2 or len(set(gams)) == 1
        return
    best, winners = best_bipartition(x, y, REGRESSION)
    assert s.impurity == pytest.approx(best, abs=1e-9)
    chosen = frozenset(s.rule.left_levels)
    assert chosen in winners or frozenset(table.present) - chosen in winners


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_pseudo_split_binary_attains_bipartition_optimum(seed):
    x, y, q = random_instance(seed, CLASSIFICATION, k=2)
    ds = cat_dataset(x, y, q, CLASSIFICATION, k=2)
    rows = np.arange(x.size)
    table = gamma_table(ds, rows, 0)
    s = pseudo_value_split(ds, rows, 0, table)
    if s is None:
        gams = [g for _, g in table.values]
        assert len(table.present) < 2 or len(set(gams)) == 1
        return
    best, winners = best_bipartition(x, y, CLASSIFICATION, k=2)
    assert s.impurity == pytest.approx(best, abs=1e-9)


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_pseudo_split_left_set_is_low_pseudo_levels(seed):
    x, y, q = random_instance(seed, REGRESSION)
    ds = cat_dataset(x, y, q, REGRESSION)
    rows = np.arange(x.size)
    table = gamma_table(ds, rows, 0)
    s = pseudo_value_split(ds, rows, 0, table)
    if s is None:
        return
    rule = s.rule
    assert rule.pseudo_split in [g for _, g in table.values]
    for level, g in table.values:
        assert (level in rule.left_levels) == (g <= rule.pseudo_split)
    # daughter pseudo-value means straddle the threshold
    left_g = [g for lv, g in table.values if lv in rule.left_levels]
    right_g = [g for lv, g in table.values if lv not in rule.left_levels]
    assert max(left_g) == rule.pseudo_split < min(right_g)


@pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
@given(seed=st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_pseudo_value_search_equals_table_then_split(task, seed):
    x, y, q = random_instance(seed, task, min_q=1, tie_prone=seed % 2 == 0)
    ds = cat_dataset(x, y, q, task)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, x.size, size=int(rng.integers(1, 2 * x.size + 1)))
    if seed % 3 == 0:
        rows = np.flatnonzero(x == x[0])  # one present level
    assert pseudo_value_search(ds, rows, 0) == pseudo_value_split(ds, rows, 0, gamma_table(ds, rows, 0))


def test_gamma_table_values_regression():
    ds = cat_dataset([1, 1, 3, 3, 3], [2.0, 4.0, 9.0, 9.0, 12.0], 4, REGRESSION)
    t = gamma_table(ds, np.arange(5), 0)
    assert t.present == frozenset({1, 3})
    assert t.absent == frozenset({2, 4})
    assert t.value(1) == 3.0
    assert t.value(3) == 10.0
    with pytest.raises(KeyError):
        t.value(2)


def test_gamma_table_values_binary():
    ds = cat_dataset([1, 1, 2, 2], [1, 1, 1, 2], 2, CLASSIFICATION, k=2)
    t = gamma_table(ds, np.arange(4), 0)
    assert t.value(1) == 1.0
    assert t.value(2) == 0.5


def test_gamma_table_rejects_multiclass():
    ds = cat_dataset([1, 2, 3], [1, 2, 3], 3, CLASSIFICATION, k=3)
    with pytest.raises(ValueError, match="two classes"):
        gamma_table(ds, np.arange(3), 0)


def test_pseudo_split_rejects_stale_table():
    ds = cat_dataset([1, 1, 2, 2], [0.0, 0.0, 5.0, 5.0], 2, REGRESSION)
    table = gamma_table(ds, np.arange(4), 0)
    with pytest.raises(ValueError, match="inconsistent"):
        pseudo_value_split(ds, np.array([0, 1]), 0, table)


def test_pseudo_split_rejects_a_table_with_changed_pseudo_values():
    ds = cat_dataset([1, 1, 2, 2], [0.0, 0.0, 5.0, 5.0], 2, REGRESSION)
    table = gamma_table(ds, np.arange(4), 0)
    assert table.values == ((1, 0.0), (2, 5.0))
    changed = dataclasses.replace(table, values=((1, 0.0), (2, 4.0)))
    with pytest.raises(ValueError, match="inconsistent"):
        pseudo_value_split(ds, np.arange(4), 0, changed)


def test_pseudo_split_accepts_its_table_with_nan_pseudo_values():
    ds = cat_dataset([1, 1, 2, 2, 3], [0.0, np.nan, 5.0, 6.0, 9.0], 3, REGRESSION)
    table = gamma_table(ds, np.arange(5), 0)
    assert np.isnan(table.value(1))
    s = pseudo_value_split(ds, np.arange(5), 0, table)
    assert repr(s) == repr(pseudo_value_search(ds, np.arange(5), 0))  # NaN != NaN
    with pytest.raises(ValueError, match="inconsistent"):
        pseudo_value_split(ds, np.arange(5), 0, dataclasses.replace(table, values=((1, 0.0),) + table.values[1:]))


def test_pseudo_split_all_equal_gamma_is_none():
    ds = cat_dataset([1, 2, 3], [7.0, 7.0, 7.0], 3, REGRESSION)
    table = gamma_table(ds, np.arange(3), 0)
    assert pseudo_value_split(ds, np.arange(3), 0, table) is None


# ---------------------------------------------------------------------------
# zero-imputation emulation

def test_zero_imputed_routing_positive_threshold_goes_left():
    ds = cat_dataset([1, 1, 2, 2], [1.0, 2.0, 10.0, 12.0], 4, REGRESSION)
    table = gamma_table(ds, np.arange(4), 0)
    s = pseudo_value_split(ds, np.arange(4), 0, table)
    assert s.rule.pseudo_split == 1.5
    routes = emulate_zero_imputed_routing(table, s.rule.pseudo_split)
    assert routes == {3: LEFT, 4: LEFT}


def test_zero_imputed_routing_negative_threshold_goes_right():
    ds = cat_dataset([1, 1, 2, 2], [-10.0, -12.0, -1.0, -2.0], 3, REGRESSION)
    table = gamma_table(ds, np.arange(4), 0)
    s = pseudo_value_split(ds, np.arange(4), 0, table)
    assert s.rule.pseudo_split < 0
    assert emulate_zero_imputed_routing(table, s.rule.pseudo_split) == {3: RIGHT}


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_zero_imputed_routing_sign_rule(seed):
    x, y, q = random_instance(seed, REGRESSION)
    ds = cat_dataset(x, y, q, REGRESSION)
    table = gamma_table(ds, np.arange(x.size), 0)
    s = pseudo_value_split(ds, np.arange(x.size), 0, table)
    if s is None:
        return
    routes = emulate_zero_imputed_routing(table, s.rule.pseudo_split)
    assert set(routes) == set(table.absent)
    want = LEFT if 0.0 <= s.rule.pseudo_split else RIGHT
    assert all(side == want for side in routes.values())
    if np.all(np.asarray(y) > 0):
        assert all(side == LEFT for side in routes.values())
    if np.all(np.asarray(y) < 0):
        assert all(side == RIGHT for side in routes.values())


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_zero_imputed_routing_binary_always_left(seed):
    x, y, q = random_instance(seed, CLASSIFICATION, k=2)
    ds = cat_dataset(x, y, q, CLASSIFICATION, k=2)
    table = gamma_table(ds, np.arange(x.size), 0)
    s = pseudo_value_split(ds, np.arange(x.size), 0, table)
    if s is None:
        return
    assert s.rule.pseudo_split >= 0.0  # class-1 proportions cannot be negative
    routes = emulate_zero_imputed_routing(table, s.rule.pseudo_split)
    assert all(side == LEFT for side in routes.values())


# ---------------------------------------------------------------------------
# exhaustive bitmask search


def test_exhaustive_bitmask_decoding():
    # bitmask 5 = binary 101 = levels {1, 3} left, {2, 4} right
    x = np.array([1, 1, 3, 3, 2, 2, 4, 4])
    y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    ds = cat_dataset(x, y, 4, CLASSIFICATION, k=2)
    s = exhaustive_categorical_split(ds, np.arange(8), 0)
    assert s.impurity == 0.0
    assert s.rule.bitmask == 5
    assert s.rule.left_levels == frozenset({1, 3})


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_exhaustive_attains_bipartition_optimum_multiclass(seed):
    x, y, q = random_instance(seed, CLASSIFICATION, k=4)
    ds = cat_dataset(x, y, q, CLASSIFICATION, k=4)
    s = exhaustive_categorical_split(ds, np.arange(x.size), 0)
    present = sorted(set(int(v) for v in x))
    if len(present) < 2:
        assert s is None
        return
    best, winners = best_bipartition(x, y, CLASSIFICATION, k=4)
    assert s is not None
    assert s.impurity == pytest.approx(best, abs=1e-9)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_exhaustive_matches_pseudo_objective_binary(seed):
    # two independent optimal searches must agree on the optimum value
    x, y, q = random_instance(seed, CLASSIFICATION, k=2)
    ds = cat_dataset(x, y, q, CLASSIFICATION, k=2)
    rows = np.arange(x.size)
    table = gamma_table(ds, rows, 0)
    ps = pseudo_value_split(ds, rows, 0, table)
    ex = exhaustive_categorical_split(ds, rows, 0)
    if ps is None:
        if ex is not None:
            # all pseudo values tied: every bipartition has the same objective
            best, winners = best_bipartition(x, y, CLASSIFICATION, k=2)
            assert ex.impurity == pytest.approx(best, abs=1e-9)
        return
    assert ex is not None
    assert ex.impurity == pytest.approx(ps.impurity, abs=1e-9)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_exhaustive_ties_park_absent_and_top_level_right(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(3, 8))
    # draw from a strict subset of levels so absence is guaranteed
    pool = rng.permutation(np.arange(1, q + 1))[: max(2, q - 2)]
    n = int(rng.integers(4, 25))
    x = rng.choice(pool, size=n)
    y = rng.integers(1, 4, size=n)
    ds = cat_dataset(x, y, q, CLASSIFICATION, k=3)
    s = exhaustive_categorical_split(ds, np.arange(n), 0)
    if s is None:
        return
    rule = s.rule
    for lv in rule.absent:
        assert not rule.bitmask >> (lv - 1) & 1
    assert not rule.bitmask >> (q - 1) & 1  # top level never goes left
    assert q not in rule.left_levels
    assert rule.left_levels <= rule.present


def test_exhaustive_refuses_above_limit():
    x = np.arange(1, 18).repeat(2) % 17 + 1
    y = (x % 3) + 1
    ds = cat_dataset(x, y, 17, CLASSIFICATION, k=3)
    with pytest.raises(ValueError, match="random_categorical_split"):
        exhaustive_categorical_split(ds, np.arange(x.size), 0)


def test_exhaustive_rejects_regression():
    ds = cat_dataset([1, 2], [0.0, 1.0], 2, REGRESSION)
    with pytest.raises(ValueError, match="classification"):
        exhaustive_categorical_split(ds, np.arange(2), 0)


def test_exhaustive_single_present_level_is_none():
    ds = cat_dataset([2, 2, 2], [1, 2, 1], 3, CLASSIFICATION, k=2)
    assert exhaustive_categorical_split(ds, np.arange(3), 0) is None


# ---------------------------------------------------------------------------
# random bitmask search


def test_random_bitmasks_shape_and_range():
    rng = np.random.default_rng(7)
    bits = random_bitmasks(rng, 256, 12)
    assert bits.shape == (256, 12)
    assert bits.dtype == np.uint8
    assert set(np.unique(bits)) <= {0, 1}


def test_random_bitmask_bits_are_fair_coins():
    rng = np.random.default_rng(11)
    bits = random_bitmasks(rng, 20000, 6)
    freq = bits.mean(axis=0)
    assert np.all(np.abs(freq - 0.5) < 0.02)


# odd and even sizes, one bit, one level and one candidate, and the 1024 × 46
# draw of bridge data's location column
BITMASK_SHAPES = [(1024, 46), (1024, 45), (1, 1), (1, 2), (2, 1), (3, 5), (7, 7)]


@pytest.mark.parametrize("shape", BITMASK_SHAPES)
@pytest.mark.parametrize("halves_before", [0, 1, 4])  # 1: a buffered half on entry
def test_random_bitmasks_equal_numpy_integers_and_leave_the_same_state(shape, halves_before):
    # random_bitmasks replicates how numpy's integers() reads the PCG64
    # stream; a numpy that reads it otherwise must fail here, not move forests
    for seed in range(200):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (got_rng, want_rng):
            rng.integers(0, 2, size=halves_before)  # one 32-bit half per value
        got = random_bitmasks(got_rng, *shape)
        want = want_rng.integers(0, 2, size=shape, dtype=np.int64)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert later_draws(got_rng) == later_draws(want_rng)


def later_draws(rng):
    return rng.integers(0, 2, size=3).tolist(), rng.choice(50, size=4).tolist(), rng.random()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_random_bitmasks_of_other_generators_equal_numpy_integers(bit_generator):
    for seed in range(20):
        got_rng, want_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        for shape in BITMASK_SHAPES:
            got = random_bitmasks(got_rng, *shape)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want_rng.integers(0, 2, size=shape, dtype=np.int64))
            assert same_state(got_rng, want_rng)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_random_split_of_other_generators_equals_reference(bit_generator):
    for seed in range(30):
        rng = np.random.default_rng(seed)
        q, k = int(rng.integers(1, 70)), int(rng.choice([2, 3, 7]))
        ds, rows, _, _ = bitmask_instance(rng, q, k)
        got_rng, want_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        want = reference.random_categorical_split(ds, rows, 0, want_rng, 300)
        assert random_categorical_split(ds, rows, 0, got_rng, 300) == want
        assert same_state(got_rng, want_rng)


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    def equal(x, y):  # MT19937 keeps its key in an array
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(equal(x[f], y[f]) for f in x)
        return np.array_equal(x, y)

    return equal(a.bit_generator.state, b.bit_generator.state)


def test_random_split_deterministic_given_rng_state():
    x = np.tile(np.arange(1, 13), 4)
    y = (x % 3) + 1
    ds = cat_dataset(x, y, 12, CLASSIFICATION, k=3)
    a = random_categorical_split(ds, np.arange(x.size), 0, np.random.default_rng(5), 128)
    b = random_categorical_split(ds, np.arange(x.size), 0, np.random.default_rng(5), 128)
    assert a == b


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_random_split_is_valid_and_no_better_than_optimum(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 9))
    n = int(rng.integers(4, 30))
    x = rng.integers(1, q + 1, size=n)
    y = rng.integers(1, 4, size=n)
    ds = cat_dataset(x, y, q, CLASSIFICATION, k=3)
    s = random_categorical_split(ds, np.arange(n), 0, np.random.default_rng(seed + 1), 64)
    present = set(int(v) for v in x)
    if s is None:
        assert len(present) < 2 or True  # a valid draw is likely but not guaranteed
        return
    left_rows = int(np.isin(x, sorted(s.rule.left_levels)).sum())
    assert left_rows == s.left_size
    assert 0 < s.left_size < n
    best, _ = best_bipartition(x, y, CLASSIFICATION, k=3) if len(present) > 1 else (np.inf, [])
    assert s.impurity >= best - 1e-9


@given(seed=st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_gini_equals_masked_objective_on_present_levels(seed):
    rng = np.random.default_rng(seed)
    q, k, m = int(rng.integers(1, 50)), int(rng.choice([2, 3, 7, 8, 9, 17, 20])), int(rng.integers(1, 300))
    counts = rng.integers(0, 6, size=(q, k)) * (rng.random((q, 1)) < 0.6)  # absent levels
    bits = rng.integers(0, 2, size=(m, q), dtype=np.int64)
    present = np.flatnonzero(counts.sum(axis=1))
    want = _masked_gini_objective(bits, counts)
    cc = counts[present].astype(np.float64)
    got = _gini(bits[:, present].astype(np.float64) @ cc, cc.sum(axis=0))
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("k", range(2, 8))
def test_ndarray_sum_adds_rows_of_fewer_than_8_values_left_to_right(k):
    # _gini adds the squared shares of fewer than 8 classes column by
    # column, and the per-node objectives add them with ndarray.sum
    rng = np.random.default_rng(k)
    rows = rng.random((20_000, k)) * 10.0 ** rng.integers(-12, 13, size=(20_000, k))
    for shaped in (rows, rows.reshape(100, 200, k)):
        assert _column_sum(shaped).tobytes() == shaped.sum(axis=-1).tobytes(), (
            f"this numpy's ndarray.sum no longer adds {k} values left to right, so splits._gini "
            "can differ from tests/reference.py in the last bit: see ROADMAP item 10"
        )


def test_random_split_single_present_level_is_none():
    ds = cat_dataset([3] * 8, [1, 2] * 4, 5, CLASSIFICATION, k=2)
    s = random_categorical_split(ds, np.arange(8), 0, np.random.default_rng(0), 64)
    assert s is None


def test_random_split_covers_optimum_with_enough_draws():
    # Q=4 has 7 bipartitions; 512 fair-coin draws find the perfect one
    x = np.array([1, 1, 3, 3, 2, 2, 4, 4])
    y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    ds = cat_dataset(x, y, 4, CLASSIFICATION, k=2)
    s = random_categorical_split(ds, np.arange(8), 0, np.random.default_rng(3), 512)
    assert s.impurity == 0.0
    assert s.rule.left_levels in (frozenset({1, 3}), frozenset({2, 4}))


# ---------------------------------------------------------------------------
# both bitmask searches against independent replays


def bitmask_instance(rng, q, k, max_n=40):
    """A node drawn from a random subset of ``q`` levels (so levels are
    often absent), with repeated rows as in a bootstrap."""
    pool = rng.choice(np.arange(1, q + 1), size=int(rng.integers(1, q + 1)), replace=False)
    n = int(rng.integers(1, max_n + 1))
    x = rng.choice(pool, size=n)
    y = rng.integers(1, k + 1, size=n)
    rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    return cat_dataset(x, y, q, CLASSIFICATION, k=k), rows, x[rows], y[rows]


def encode(bits_row) -> int:
    return sum(1 << j for j, b in enumerate(bits_row.tolist()) if b)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_random_search_equals_replay_scored_by_masked_objective(seed):
    rng = np.random.default_rng(seed)
    q, k = int(rng.integers(1, 70)), int(rng.choice([2, 3, 7]))
    ds, rows, x, y = bitmask_instance(rng, q, k)
    m = int(rng.integers(1, 300))
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    s = random_categorical_split(ds, rows, 0, got_rng, m)

    bits = want_rng.integers(0, 2, size=(m, q), dtype=np.int64)  # numpy's draw, not the package's
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    counts = np.zeros((q, k), dtype=np.int64)
    np.add.at(counts, (x - 1, y - 1), 1)
    obj, ln, rn = _masked_gini_objective(bits, counts)
    best = None
    for i, v in enumerate(obj.tolist()):  # first strict optimum in draw order
        if v < np.inf and (best is None or v < obj[best]):
            best = i
    if best is None:
        assert s is None
        return
    present = frozenset(x.tolist())
    assert s.impurity == float(obj[best])
    assert s.rule.left_levels == frozenset(lv for lv in present if bits[best, lv - 1])
    assert s.rule.bitmask == encode(bits[best])  # absent-level bits included
    assert s.rule.present == present
    assert s.rule.absent == frozenset(range(1, q + 1)) - present
    assert (s.left_size, s.right_size) == (int(ln[best]), int(rn[best]))


def scan_every_encoding(x, y, q, k):
    """(objective, encoding, left rows, right rows) of the first strict
    optimum over encodings ``1 .. 2**(Q-1) - 1`` in increasing order, each
    scored from the rows it sends left and right, or None."""
    best = None
    for e in range(1, 1 << (q - 1)):
        left = np.isin(x, [lv for lv in range(1, q + 1) if e >> (lv - 1) & 1])
        lc = np.bincount(y[left], minlength=k + 1)[1:]
        rc = np.bincount(y[~left], minlength=k + 1)[1:]
        ln, rn = int(lc.sum()), int(rc.sum())
        if ln == 0 or rn == 0:
            continue
        gl = 1.0 - ((lc / ln) ** 2).sum()
        gr = 1.0 - ((rc / rn) ** 2).sum()
        obj = (ln * gl + rn * gr) / float(x.size)
        if best is None or obj < best[0]:
            best = (obj, e, ln, rn)
    return best


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("q", range(2, 11))
def test_exhaustive_search_equals_a_scan_of_every_encoding(q, k):
    rng = np.random.default_rng(100 * q + k)
    for _ in range(4):
        ds, rows, x, y = bitmask_instance(rng, q, k)
        s = exhaustive_categorical_split(ds, rows, 0)
        want = scan_every_encoding(x, y, q, k)
        if want is None:
            assert s is None
            continue
        obj, e, ln, rn = want
        present = frozenset(x.tolist())
        assert s.impurity == obj
        assert s.rule.bitmask == e
        assert s.rule.left_levels == frozenset(lv for lv in present if e >> (lv - 1) & 1)
        assert s.rule.present == present
        assert s.rule.absent == frozenset(range(1, q + 1)) - present
        assert (s.left_size, s.right_size) == (ln, rn)


# ---------------------------------------------------------------------------
# the batched bitmask searches vs the per-node searches


def bitmask_batch_instance(rng, k, max_q):
    """Categorical columns of 1 .. ``max_q`` levels, drawn from random
    subsets of their levels so that levels are often absent, and nodes of
    one repeated row (one present level), of a few rows of few classes
    (exact objective ties) and of many rows."""
    n_rows = int(rng.integers(2, 120))
    qs = [int(q) for q in rng.integers(1, max_q + 1, size=int(rng.integers(1, 5)))]
    columns = []
    for q in qs:
        pool = rng.choice(np.arange(1, q + 1), size=int(rng.integers(1, q + 1)), replace=False)
        columns.append(rng.choice(pool, size=n_rows))
    schema = tuple(ColumnSchema(f"cat{j}", CATEGORICAL, tuple(f"L{i}" for i in range(q))) for j, q in enumerate(qs))
    response = ResponseSpec(RESPONSE_CLASS, tuple(f"c{i}" for i in range(1, k + 1)))
    y = rng.integers(1, int(rng.integers(1, k + 1)) + 1, size=n_rows)
    ds = from_arrays(schema, response, columns, y)
    nodes = []
    for _ in range(int(rng.integers(1, 7))):
        shape = int(rng.integers(0, 3))
        if shape == 0:
            nodes.append(np.full(int(rng.integers(1, 5)), rng.integers(0, n_rows)))
        else:
            nodes.append(rng.integers(0, n_rows, size=int(rng.integers(1, 6 if shape == 1 else 200))))
    pairs = np.array([(i, p) for i in range(len(nodes)) for p in range(len(qs)) if rng.random() < 0.8] or [(0, 0)])
    return ds, nodes, pairs


@contextlib.contextmanager
def chunk_cells(cells):
    """Bitmask chunks of at most ``cells`` cells inside the block (None:
    the default size)."""
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(splits, "_BITMASK_CELLS", cells)
        yield


def assert_same_bitmask_split(impurity, found, entry, j, want):
    assert found[j] == (want is not None)
    if want is not None:
        assert_same_entry(entry(j), want)  # levels, bitmask and daughter sizes
        assert repr(float(impurity[j])) == repr(want.impurity)


@pytest.mark.parametrize("cells", [None, 1000])  # default chunks, and chunks that split pairs and masks
@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 17])
@given(seed=st.integers(0, 10**9), max_q=st.sampled_from([2, 3, 9, 10, 16]))
@settings(max_examples=40, deadline=None)
def test_exhaustive_bitmask_batch_equals_per_node_search(cells, k, seed, max_q):
    ds, nodes, pairs = bitmask_batch_instance(np.random.default_rng(seed), k, max_q)
    with chunk_cells(cells):
        block = NodeBlock(ColumnTable(ds), nodes)
        impurity, found, entry = bitmask_batch(block, pairs[:, 0], pairs[:, 1], None, 1024, max_q)
    assert len(impurity) == len(found) == len(pairs)
    for j, (i, p) in enumerate(pairs.tolist()):
        want = reference.exhaustive_categorical_split(ds, nodes[i], p, max_q)
        assert_same_bitmask_split(impurity, found, entry, j, want)
        assert exhaustive_categorical_split(ds, nodes[i], p, max_q) == want


def test_exhaustive_bitmask_batch_keeps_the_first_of_tied_encodings():
    # levels 1 and 2 hold class 1 and level 3 class 2, so encodings 3
    # ({1, 2} left) and 4 ({3} left) both split perfectly; the smaller wins
    ds = cat_dataset([1, 2, 3, 3], [1, 1, 2, 2], 4, CLASSIFICATION, k=2)
    nodes = [np.arange(4), np.array([2, 3])]
    want = [reference.exhaustive_categorical_split(ds, rows, 0) for rows in nodes]
    block = NodeBlock(ColumnTable(ds), nodes)
    impurity, found, entry = bitmask_batch(block, np.array([0, 1]), np.array([0, 0]), None, 1024, EXHAUSTIVE_HARD_LIMIT)
    assert want[0].impurity == 0.0 and want[0].rule.bitmask == 3
    assert_same_bitmask_split(impurity, found, entry, 0, want[0])
    assert want[1] is None and not found[1]  # one present level


@pytest.mark.parametrize("p", [1, 2, 3, 6, 16])
def test_exhaustive_bitmask_batch_scores_only_the_present_levels(p, monkeypatch):
    # each node holds p of 16 levels, so each pair has 2**(p-1) - 1
    # bipartitions to score, not the 2**15 - 1 encodings of all 16 levels
    rng = np.random.default_rng(p)
    nodes, x = [], []
    for i in range(6):
        levels = rng.choice(np.arange(1, 17), size=p, replace=False)
        nodes.append(np.arange(len(x), len(x) + 3 * p))
        x.extend(np.repeat(levels, 3).tolist())
    ds = cat_dataset(x, rng.integers(1, 4, size=len(x)), 16, CLASSIFICATION, k=3)
    scored = []  # candidates × pairs of each product

    def spy(counts, bits):
        scored.append(bits.shape[0] * counts.shape[0])
        return encoding_scores(counts, bits)

    encoding_scores = splits._encoding_scores
    monkeypatch.setattr(splits, "_encoding_scores", spy)
    pair = np.arange(len(nodes))
    scan = bitmask_batch(NodeBlock(ColumnTable(ds), nodes), pair, np.zeros_like(pair), None, 1024, EXHAUSTIVE_HARD_LIMIT)
    assert sum(scored) <= len(nodes) * count_partitions(p)
    for j, rows in enumerate(nodes):
        assert_same_bitmask_split(*scan, j, reference.exhaustive_categorical_split(ds, rows, 0))


def test_exhaustive_bitmask_batch_keeps_no_large_encoding_table():
    # two nodes holding all 16 levels score the 2**15 - 1 encodings of 16
    # levels, a 4 MiB table, which must not outlive the call
    x = np.tile(np.arange(1, 17), 4)
    ds = cat_dataset(x, np.random.default_rng(0).integers(1, 3, size=x.size), 16, CLASSIFICATION)
    nodes = [np.arange(32), np.arange(32, 64)]
    pair = np.arange(2)
    scan = bitmask_batch(NodeBlock(ColumnTable(ds), nodes), pair, np.zeros_like(pair), None, 1024, 16)
    for j, rows in enumerate(nodes):
        assert_same_bitmask_split(*scan, j, reference.exhaustive_categorical_split(ds, rows, 0))
    assert sum(t.nbytes for t in splits._ENCODINGS.values()) <= 256 * 1024


def test_an_uncached_encoding_table_is_built_in_place():
    # 2**15 - 1 encodings of 16 levels are a 4 MiB float table; building it
    # through an int table of the same size peaked at 8.25 MiB
    masks = np.arange(1, count_partitions(16) + 1)
    assert 16 > splits._CACHED_LEVELS
    tracemalloc.start()
    try:
        table = splits._encodings(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20
    assert table.tobytes() == ((masks[:, None] >> np.arange(16)) & 1).astype(np.float64).tobytes()


@pytest.mark.parametrize("k", [2, 7])
def test_exhaustive_bitmask_batch_holds_one_pattern_table_at_a_time(k):
    # every pair holds all 16 levels, so each scores the 2**15 - 1
    # patterns of 16 levels in a table of several MiB; runs of such pairs
    # take one pair each, so 32 pairs peak about where one pair does
    def traced(n_pairs):
        x = np.tile(np.arange(1, 17), 2 * n_pairs)
        ds = cat_dataset(x, np.random.default_rng(k).integers(1, k + 1, size=x.size), 16, CLASSIFICATION, k=k)
        block = NodeBlock(ColumnTable(ds), [np.arange(32 * i, 32 * (i + 1)) for i in range(n_pairs)])
        pair = np.arange(n_pairs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scan = bitmask_batch(block, pair, np.zeros_like(pair), None, 1024, 16)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan[1].all()
        return peak - before, held - before  # bytes at the peak, and still held with the results

    (one, held_one), (peak, held) = traced(1), traced(32)
    assert peak <= 16 * 2**20 and peak <= one + 2**20
    assert max(held_one, held) <= 256 * 1024


@pytest.mark.parametrize("cells", [None, 1000])
@given(seed=st.integers(0, 10**9), k=st.sampled_from([2, 3, 7, 9, 17]), m=st.sampled_from([1, 4, 33, 256, 1024]))
@settings(max_examples=60, deadline=None)
def test_random_bitmask_batch_equals_sequential_per_node_searches(cells, seed, k, m):
    rng = np.random.default_rng(seed)
    ds, nodes, pairs = bitmask_batch_instance(rng, k, 69)
    got_rngs = [np.random.default_rng(seed + 1 + i) for i in range(len(nodes))]
    want_rngs = [np.random.default_rng(seed + 1 + i) for i in range(len(nodes))]
    one_rngs = [np.random.default_rng(seed + 1 + i) for i in range(len(nodes))]
    draw_from = [got_rngs[i] for i in pairs[:, 0].tolist()]
    with chunk_cells(cells):
        block = NodeBlock(ColumnTable(ds), nodes)
        impurity, found, entry = bitmask_batch(block, pairs[:, 0], pairs[:, 1], draw_from, m, EXHAUSTIVE_HARD_LIMIT)
    for j, (i, p) in enumerate(pairs.tolist()):  # in pair order, as the batch draws
        want = reference.random_categorical_split(ds, nodes[i], p, want_rngs[i], m)
        assert_same_bitmask_split(impurity, found, entry, j, want)
        assert random_categorical_split(ds, nodes[i], p, one_rngs[i], m) == want
    for got_rng, want_rng, one_rng in zip(got_rngs, want_rngs, one_rngs):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert one_rng.bit_generator.state == want_rng.bit_generator.state


def test_bitmask_batch_rejections():
    one, zero = [np.arange(3)], np.array([0])

    def search(ds, rngs=None, limit=EXHAUSTIVE_HARD_LIMIT):
        return bitmask_batch(NodeBlock(ColumnTable(ds), one), zero, zero, rngs, 1024, limit)

    with pytest.raises(ValueError, match="classification"):
        search(cat_dataset([1, 2, 1], [0.0, 1.0, 2.0], 2, REGRESSION))
    with pytest.raises(ValueError, match="not categorical"):
        search(num_dataset([1, 2, 3], [0.0, 1.0, 2.0]), [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="exceed the exhaustive limit"):
        search(cat_dataset([1, 2, 1], [1, 2, 1], 17, CLASSIFICATION))
    with pytest.raises(ValueError, match="exceed the exhaustive limit"):
        search(cat_dataset([1, 2, 1], [1, 2, 1], 4, CLASSIFICATION), limit=3)


# ---------------------------------------------------------------------------
# two-valued columns in the golden one-hot forests


@functools.cache
def grown_one_hot(generator):
    """The golden 10-tree forest of ``generator`` on its one-hot data
    (``tests/test_golden.py``), and the predictors of every pair that
    reached the sorting scan while it grew."""
    d = one_hot_transform(getattr(synth, generator)(0))
    sorted_preds = []

    def spy(block, node, pred, pairs, out):
        sorted_preds.extend(pred[pairs].tolist())
        return sorting_scan(block, node, pred, pairs, out)

    sorting_scan = splits._sorting_scan
    splits._sorting_scan = spy
    try:
        forest = train_forest(d, ForestConfig(n_trees=10, seed=11))
    finally:
        splits._sorting_scan = sorting_scan
    return d, forest, sorted_preds


@pytest.mark.parametrize("generator", ["rollcall_binary", "bridge_multiclass"])
def test_no_two_valued_pair_reaches_the_sorting_scan_of_a_golden_forest(generator):
    d, forest, sorted_preds = grown_one_hot(generator)
    assert forest_hash(forest) == GOLDEN[(generator, True)]
    assert sorted_preds and not any(is_two_valued(d, p) for p in set(sorted_preds))


@pytest.mark.parametrize("generator", ["price_regression", "rollcall_binary", "bridge_multiclass"])
def test_indicator_splits_send_an_unseen_level_left(generator):
    # every split on a two-valued column holds its lower value, so an
    # unseen level, all zeros in the dummies of its column, goes left at
    # every dummy's split: the side zero-imputation takes with two classes
    d, forest, _ = grown_one_hot(generator)
    assert forest_hash(forest) == GOLDEN[(generator, True)]
    splits_seen = [node["split"] for tree in forest.tree_dicts for node in tree["nodes"] if node["split"]]
    dummies = [s for s in splits_seen if "=" in d.schema[s["predictor"]].name]
    assert dummies and all(is_two_valued(d, s["predictor"]) or d.task == REGRESSION for s in dummies)
    for s in splits_seen:
        col = d.columns[s["predictor"]]
        if np.unique(col).size == 2:
            assert s["threshold"] == col.min()
    assert all(s["threshold"] == 0.0 for s in dummies)
