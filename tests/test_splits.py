"""Split-search tests against a brute-force bipartition oracle.

The oracle enumerates every level bipartition directly (last present
level pinned right so each partition appears once) and recomputes the
objective from first principles, independent of the vectorised kernels
under test.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from absentrf.splits import (
    LEFT,
    RIGHT,
    CandidateSplit,
    CategoricalRule,
    OrderedRule,
    best_ordered_split,
    best_ordered_splits,
    class_proportions,
    count_partitions,
    emulate_zero_imputed_routing,
    exhaustive_categorical_split,
    gamma_table,
    gini,
    node_mean,
    pseudo_value_search,
    pseudo_value_split,
    random_bitmasks,
    random_categorical_split,
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
    assert set(np.unique(bits)) <= {0, 1}


def test_random_bitmask_bits_are_fair_coins():
    rng = np.random.default_rng(11)
    bits = random_bitmasks(rng, 20000, 6)
    freq = bits.mean(axis=0)
    assert np.all(np.abs(freq - 0.5) < 0.02)


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
