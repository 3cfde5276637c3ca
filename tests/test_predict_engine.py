"""The array routing engine behind ``predict_rows`` against its oracle.

``route`` plus ``tree_predict``/``tree_vote``, summed tree by tree, is
the reference; the engine must equal it bit for bit for every policy,
row and ``uses`` mask, including DBI forks (whose weighted entries are
summed in ascending node id) and the coins drawn for ``random`` and
``majority`` ties.
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
from absentrf.forest import Forest, ForestConfig, oob_predict_all, predict_rows, train_forest
from absentrf.heuristics import Heuristic
from absentrf.seeding import Coins
from absentrf.tree import GrowConfig, route
from reference import tree_predict, tree_vote

ROUTED = [h for h in Heuristic if h is not Heuristic.ONE_HOT]


def oracle(forest, xmat, policy, coins, uses):
    """Per-row sums of the reference router, trees in order."""
    n = len(xmat)
    regression = forest.task == REGRESSION
    totals = np.zeros(n) if regression else np.zeros((n, forest.n_classes), dtype=np.int64)
    tree_counts = np.zeros(n, dtype=np.int64)
    absent = np.zeros(n, dtype=np.int64)
    for b, tree in enumerate(forest.tree_dicts):
        for i in np.flatnonzero(uses[b]):
            trace = route(tree, xmat[i], policy, coins, obs_id=int(i))
            if regression:
                totals[i] += tree_predict(trace, tree)
            else:
                totals[i, tree_vote(trace, tree) - 1] += 1
            tree_counts[i] += 1
            absent[i] += trace.absent_encountered
    defined = tree_counts > 0
    divisor = np.maximum(tree_counts, 1)
    if regression:
        return np.where(defined, totals / divisor, np.nan), None, tree_counts, absent
    probs = totals / divisor[:, None]
    probs[~defined] = np.nan
    preds = np.where(defined, np.argmax(totals, axis=1) + 1, 0).astype(np.int64)
    return preds, probs, tree_counts, absent


def as_bytes(arrays):
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_matches_oracle(forest, xmat, coins, uses, got=None):
    got = predict_rows(forest, xmat, ROUTED, coins, uses) if got is None else got
    assert list(got) == ROUTED
    if uses is None:
        uses = np.ones((forest.n_trees, len(xmat)), dtype=bool)
    for policy in ROUTED:
        s = got[policy]
        engine = (s.predictions, s.probabilities, s.oob_tree_counts, s.absent_tree_counts)
        assert as_bytes(engine) == as_bytes(oracle(forest, xmat, policy, coins, uses)), policy
    return got


# ---------------------------------------------------------------------------
# random forests, rows and masks


@st.composite
def scenarios(draw):
    """A small forest on data with rare levels, plus query rows and a mask."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    task = draw(st.sampled_from([REGRESSION, "binary", "multiclass"]))
    n = draw(st.integers(8, 40))
    qs = [draw(st.integers(2, 7)) for _ in range(2)]

    def levels(q, size):
        p = 0.5 ** np.arange(q)  # level q is rare, so bootstraps often miss it
        return rng.choice(np.arange(1, q + 1), size=size, p=p / p.sum())

    schema = (
        ColumnSchema("x", NUMERIC),
        ColumnSchema("a", CATEGORICAL, tuple(f"a{q}" for q in range(qs[0]))),
        ColumnSchema("b", CATEGORICAL, tuple(f"b{q}" for q in range(qs[1]))),
    )
    cols = [np.round(rng.normal(size=n), 1), levels(qs[0], n), levels(qs[1], n)]
    if task == REGRESSION:
        data = from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), cols, rng.normal(size=n))
    else:
        k = 2 if task == "binary" else 3
        y = rng.integers(1, k + 1, n)
        y[:k] = np.arange(1, k + 1)
        data = from_arrays(schema, ResponseSpec(RESPONSE_CLASS, tuple("uvw"[:k])), cols, y)
    grow = GrowConfig(
        task=data.task,
        mtry=draw(st.integers(1, 3)),
        min_node_size=draw(st.integers(1, 3)),
        random_candidates=8,
    )
    config = ForestConfig(
        n_trees=draw(st.integers(1, 4)),
        sample_size=draw(st.integers(max(1, n // 3), n)),
        seed=draw(st.integers(0, 1000)),
        grow=grow,
    )
    forest = train_forest(data, config)
    m = draw(st.integers(0, 16))
    xmat = np.column_stack(
        [np.round(rng.normal(size=m), 1)] + [rng.integers(1, q + 1, m) for q in qs]
    ).astype(np.float64)
    uses = rng.random((forest.n_trees, m)) < draw(st.sampled_from([0.0, 0.5, 1.0, 1.0]))
    coins = Coins(master=draw(st.integers(0, 2**32)), replication=draw(st.integers(0, 3)))
    return data, forest, xmat, uses, coins


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_engine_equals_reference_router(scenario):
    _, forest, xmat, uses, coins = scenario
    assert_matches_oracle(forest, xmat, coins, uses)
    assert_matches_oracle(forest, xmat, coins, None)


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_oob_engine_equals_reference_router(scenario):
    data, forest, _, _, coins = scenario
    got = oob_predict_all(forest, data, ROUTED, coins)
    assert_matches_oracle(forest, data.matrix(), coins, forest.in_bag == 0, got)


# ---------------------------------------------------------------------------
# hand-built trees

SCHEMA = (
    ColumnSchema("a", CATEGORICAL, ("p", "q", "r")),
    ColumnSchema("b", CATEGORICAL, ("p", "q", "r")),
    ColumnSchema("x", NUMERIC),
)


def cat_rule(left, present, q=3):
    """The rule fields of a categorical split of levels 1..``q``."""
    return {
        "kind": "categorical",
        "left_levels": sorted(left),
        "present": sorted(present),
        "absent": sorted(set(range(1, q + 1)) - set(present)),
        "bitmask": sum(1 << (level - 1) for level in left),
        "pseudo_split": None,
        "gamma": None,
    }


def ordered_rule(threshold):
    return {"kind": "ordered", "threshold": threshold}


def leaf(i, stat, size=1):
    """A leaf of class counts ``stat`` (a tuple) or of mean ``stat``."""
    if isinstance(stat, tuple):
        return {"id": i, "size": sum(stat), "class_counts": list(stat), "split": None}
    return {"id": i, "size": size, "mean": stat, "split": None}


def split(i, stat, predictor, rule, children, sizes):
    node = leaf(i, stat, sum(sizes))
    (left, right), (left_size, right_size) = children, sizes
    node["split"] = {"predictor": predictor, "left": left, "right": right}
    node["split"].update(left_size=left_size, right_size=right_size, **rule)
    return node


def tree_dict(task, n_classes, nodes, tree_id=0):
    return {"tree_id": tree_id, "task": task, "n_classes": n_classes, "nodes": nodes}


def hand_forest(*trees):
    task = trees[0]["task"]
    n_classes = trees[0]["n_classes"]
    if task == REGRESSION:
        response = ResponseSpec(RESPONSE_NUMERIC)
    else:
        response = ResponseSpec(RESPONSE_CLASS, ("u", "v", "w")[:n_classes])
    return Forest(
        tree_dicts=list(trees),
        in_bag=np.ones((len(trees), 1), dtype=np.int64),
        config=ForestConfig(len(trees), 1, 0, GrowConfig(task, 1, 1)),
        fingerprint="",
        task=task,
        n_classes=n_classes,
        schema=SCHEMA,
        response=response,
    )


def two_level_tree(stats, tree_id=0):
    """Root splits ``a`` (level 3 absent), its left daughter splits ``b``
    (level 3 absent); DBI weights 3/4 * 1/3, 3/4 * 2/3 and 1/4.  Class
    counts must sum to the node sizes 12, 9, 3, 6 and 3."""
    task = REGRESSION if isinstance(stats[0], float) else CLASSIFICATION
    n_classes = 0 if task == REGRESSION else len(stats[0])
    nodes = [
        split(0, stats[0], 0, cat_rule({1}, {1, 2}), (1, 4), (9, 3)),
        split(1, stats[1], 1, cat_rule({1}, {1, 2}), (2, 3), (3, 6)),
        leaf(2, stats[2], 3),
        leaf(3, stats[3], 6),
        leaf(4, stats[4], 3),
    ]
    return tree_dict(task, n_classes, nodes, tree_id)


def test_dbi_fork_two_levels_deep_sums_left_first():
    means = [5.0, 6.0, 0.1, 0.3, 0.2]
    forest = hand_forest(two_level_tree(means))
    xmat = np.array([[3.0, 3.0, 0.0]])
    out = assert_matches_oracle(forest, xmat, Coins(1), None)
    terms = [0.75 * (1 / 3) * 0.1, 0.75 * (2 / 3) * 0.3, 0.25 * 0.2]
    left_first = 0.0 + terms[0] + terms[1] + terms[2]
    assert out[Heuristic.DBI].predictions[0] == left_first
    assert left_first != 0.0 + terms[2] + terms[1] + terms[0]  # the order is observable
    assert out[Heuristic.DBI].absent_tree_counts[0] == 1


def test_dbi_fork_two_levels_deep_classification():
    counts = [(4, 4, 4), (3, 3, 3), (2, 0, 1), (0, 4, 2), (1, 0, 2)]
    forest = hand_forest(two_level_tree(counts))
    xmat = np.array([[3.0, 3.0, 0.0], [3.0, 1.0, 0.0], [1.0, 3.0, 0.0]])
    assert_matches_oracle(forest, xmat, Coins(1), None)


def test_stop_ends_at_the_internal_node():
    forest = hand_forest(two_level_tree([5.0, 6.0, 0.1, 0.3, 0.2]))
    xmat = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [1.0, 1.0, 0.0]])
    out = assert_matches_oracle(forest, xmat, Coins(1), None)[Heuristic.STOP]
    assert out.predictions.tolist() == [5.0, 6.0, 0.1]
    assert out.absent_tree_counts.tolist() == [1, 1, 0]
    counts = [(2, 8, 2), (3, 3, 3), (2, 0, 1), (0, 4, 2), (1, 0, 2)]
    out = assert_matches_oracle(hand_forest(two_level_tree(counts)), xmat, Coins(1), None)
    assert out[Heuristic.STOP].predictions.tolist() == [2, 1, 1]


def test_majority_tie_draws_the_coin_of_tree_node_and_row():
    nodes = [
        split(0, 0.0, 0, cat_rule({1}, {1, 2}), (1, 2), (2, 2)),
        leaf(1, -1.0, 2),
        leaf(2, 1.0, 2),
    ]
    forest = hand_forest(tree_dict(REGRESSION, 0, nodes, tree_id=7))
    xmat = np.tile([3.0, 1.0, 0.0], (40, 1))
    coins = Coins(master=99, replication=2)
    out = assert_matches_oracle(forest, xmat, coins, None)[Heuristic.MAJORITY]
    expected = [-1.0 if coins.uniform(7, 0, i) < 0.5 else 1.0 for i in range(40)]
    assert out.predictions.tolist() == expected
    assert len(set(expected)) == 2


def test_root_only_tree_next_to_a_split_tree():
    forest = hand_forest(
        tree_dict(REGRESSION, 0, [leaf(0, 2.5)], tree_id=0),
        two_level_tree([5.0, 6.0, 0.1, 0.3, 0.2], tree_id=1),
    )
    xmat = np.array([[3.0, 3.0, 0.0], [2.0, 1.0, 1.0]])
    uses = np.array([[True, True], [False, True]])
    out = assert_matches_oracle(forest, xmat, Coins(3), uses)[Heuristic.LEFT]
    assert out.predictions[0] == 2.5
    assert out.oob_tree_counts.tolist() == [1, 2]


def ordered_then_categorical():
    nodes = [
        split(0, 0.0, 2, ordered_rule(0.5), (1, 2), (2, 2)),
        leaf(1, -1.0, 2),
        split(2, 1.0, 0, cat_rule({1}, {1, 2}), (3, 4), (1, 1)),
        leaf(3, 3.0),
        leaf(4, 4.0),
    ]
    return hand_forest(tree_dict(REGRESSION, 0, nodes))


@pytest.mark.parametrize("value", [4.0, 0.0, 1.5, -2.0])
def test_out_of_range_level_raises_the_routers_error(value):
    forest = ordered_then_categorical()
    row = np.array([[value, 1.0, 1.0]])
    for policy in ROUTED:
        with pytest.raises(ValueError) as reference:
            route(forest.tree_dicts[0], row[0], policy, Coins(0))
        with pytest.raises(ValueError) as engine:
            predict_rows(forest, row, [policy], Coins(0))
        assert str(engine.value) == str(reference.value)
        assert "outside the declared levels 1..3" in str(engine.value)


def test_out_of_range_level_raises_only_where_a_pair_reaches_it():
    forest = ordered_then_categorical()
    xmat = np.array([[9.0, 1.0, 0.0], [1.0, 2.0, 1.0]])  # row 0 goes left at the root
    assert_matches_oracle(forest, xmat, Coins(0), None)


def test_uses_must_match_trees_and_rows():
    forest = ordered_then_categorical()
    xmat = np.zeros((3, 3)) + 1.0
    for shape in [(1, 2), (2, 3), (3,)]:
        with pytest.raises(ValueError, match="uses must have shape"):
            predict_rows(forest, xmat, ROUTED, Coins(0), np.ones(shape, dtype=bool))


def test_onehot_cannot_route():
    forest = ordered_then_categorical()
    with pytest.raises(ValueError, match="onehot"):
        predict_rows(forest, np.ones((1, 3)), [Heuristic.ONE_HOT], Coins(0))
