"""Tree growth, routing semantics, and serialization."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absentrf import tree as tree_module
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
from absentrf.forest import ForestConfig, load_forest, save_forest, train_forest
from absentrf.heuristics import Heuristic
from absentrf.seeding import Coins, stream
from absentrf.tree import (
    GrowConfig,
    grow_tree,
    grow_trees,
    route,
    structure_hash,
)
from absentrf.tree import _first_best
from reference import grow_tree_recursively, tree_predict, tree_vote
from test_predict_engine import ROUTED, cat_rule, hand_forest, leaf, split, tree_dict

# ---------------------------------------------------------------------------
# a tree built by hand: routing semantics are exactly checkable


def hand_tree():
    """Root splits a 4-level predictor: level 1 left, level 3 right,
    levels 2 and 4 never seen.  Daughter sizes 3 and 6."""
    root = split(0, (3 * 10.0 + 6 * 20.0) / 9, 0, cat_rule({1}, {1, 3}, q=4), (1, 2), (3, 6))
    return tree_dict(REGRESSION, 0, [root, leaf(1, 10.0, 3), leaf(2, 20.0, 6)])


def test_present_levels_route_without_policy_involvement():
    t = hand_tree()
    for policy in (Heuristic.LEFT, Heuristic.RIGHT, Heuristic.STOP, Heuristic.DBI):
        tr = route(t, [1.0], policy)
        assert tr.entries == ((1, 1.0),)
        assert not tr.absent_encountered and tr.resolutions == ()
        tr = route(t, [3.0], policy)
        assert tr.entries == ((2, 1.0),)
        assert not tr.absent_encountered


def test_absent_level_fixed_direction_policies():
    t = hand_tree()
    tr = route(t, [2.0], Heuristic.LEFT)
    assert tr.absent_encountered
    assert tr.resolutions == ((0, "left"),)
    assert tree_predict(tr, t) == 10.0
    tr = route(t, [4.0], Heuristic.RIGHT)
    assert tr.resolutions == ((0, "right"),)
    assert tree_predict(tr, t) == 20.0


def test_absent_level_stop_predicts_at_internal_node():
    t = hand_tree()
    tr = route(t, [2.0], Heuristic.STOP)
    assert tr.entries == ((0, 1.0),)
    assert tree_predict(tr, t) == pytest.approx(t["nodes"][0]["mean"])


def test_absent_level_majority_follows_larger_daughter():
    t = hand_tree()
    tr = route(t, [2.0], Heuristic.MAJORITY)
    assert tr.resolutions == ((0, "right"),)  # 6 > 3, no coin needed
    assert tree_predict(tr, t) == 20.0


def test_absent_level_random_uses_stateless_coin():
    t = hand_tree()
    coins = Coins(master=77)
    u = [coins.uniform(0, 0, o) for o in range(200)]
    obs_l = next(o for o in range(200) if u[o] < 1 / 3)
    obs_r = next(o for o in range(200) if u[o] >= 1 / 3)
    tr = route(t, [2.0], Heuristic.RANDOM, coins=coins, obs_id=obs_l)
    assert tr.resolutions == ((0, "left"),)
    tr = route(t, [2.0], Heuristic.RANDOM, coins=coins, obs_id=obs_r)
    assert tr.resolutions == ((0, "right"),)
    # replaying the same observation reproduces the same decision
    again = route(t, [2.0], Heuristic.RANDOM, coins=coins, obs_id=obs_r)
    assert again == tr


def test_absent_level_random_without_coins_errors():
    with pytest.raises(ValueError, match="Coins"):
        route(hand_tree(), [2.0], Heuristic.RANDOM)


def test_absent_level_dbi_forks_with_daughter_share_weights():
    t = hand_tree()
    tr = route(t, [2.0], Heuristic.DBI)
    assert tr.resolutions == ((0, "both"),)
    weights = dict(tr.entries)
    assert weights[1] == pytest.approx(1 / 3)
    assert weights[2] == pytest.approx(2 / 3)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert tree_predict(tr, t) == pytest.approx(10.0 / 3 + 40.0 / 3)


def test_dbi_weights_multiply_through_nested_forks():
    rule_a = cat_rule({1}, {1, 3})  # absent {2}
    rule_b = {**cat_rule({3}, {3, 4}, q=4), "absent": [2]}
    nodes = [
        split(0, 0.0, 0, rule_a, (1, 2), (3, 6)),
        leaf(1, 1.0, 3),
        split(2, 0.0, 0, rule_b, (3, 4), (2, 4)),
        leaf(3, 2.0, 2),
        leaf(4, 3.0, 4),
    ]
    t = tree_dict(REGRESSION, 0, nodes)
    tr = route(t, [2.0], Heuristic.DBI)
    weights = dict(tr.entries)
    assert weights[1] == pytest.approx(1 / 3)
    assert weights[3] == pytest.approx((2 / 3) * (1 / 3))
    assert weights[4] == pytest.approx((2 / 3) * (2 / 3))
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(tr.resolutions) == 2


def test_out_of_schema_level_is_an_error_not_an_absence():
    t = hand_tree()
    with pytest.raises(ValueError, match="declared levels"):
        route(t, [5.0], Heuristic.LEFT)
    with pytest.raises(ValueError, match="declared levels"):
        route(t, [2.5], Heuristic.LEFT)


def test_onehot_policy_cannot_route():
    with pytest.raises(ValueError, match="transform"):
        route(hand_tree(), [1.0], Heuristic.ONE_HOT)


def test_classification_vote_ties_to_lowest_class():
    t = tree_dict(CLASSIFICATION, 2, [leaf(0, (2, 2))])
    tr = route(t, [1.0], Heuristic.LEFT)
    assert tree_vote(tr, t) == 1
    assert np.allclose(tree_predict(tr, t), [0.5, 0.5])


# ---------------------------------------------------------------------------
# growth


def mixed_dataset(seed=0, n=60, task=REGRESSION):
    rng = np.random.default_rng(seed)
    num = np.round(rng.normal(size=n), 2)
    c1 = rng.integers(1, 5, n)
    c2 = rng.integers(1, 7, n)
    schema = (
        ColumnSchema("num", NUMERIC),
        ColumnSchema("c1", CATEGORICAL, ("a", "b", "c", "d")),
        ColumnSchema("c2", CATEGORICAL, tuple("uvwxyz")),
    )
    score = num * 2 + (c1 == 2) * 3 + rng.normal(0, 0.5, n)
    if task == REGRESSION:
        return from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), [num, c1, c2], np.round(score, 3))
    labels = (score > np.median(score)).astype(np.int64) + 1
    return from_arrays(schema, ResponseSpec(RESPONSE_CLASS, ("lo", "hi")), [num, c1, c2], labels)


def grow(ds, seed=3, mtry=2, min_node_size=5, rows=None):
    cfg = GrowConfig(task=ds.task, mtry=mtry, min_node_size=min_node_size)
    rows = np.arange(ds.n_rows) if rows is None else rows
    return grow_tree(ds, rows, cfg, stream(seed, 0), tree_id=0)


def lock_step_dataset(seed, task, k):
    """Numeric, low- and high-cardinality categorical columns (Q on both
    sides of the exhaustive limits, with rare levels), so that every split
    search runs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 120))
    sizes = (3, 12) if rng.random() < 0.5 else (8, 11)
    columns = [np.round(rng.normal(size=n), 1), rng.integers(0, 3, n).astype(float)]
    schema = [ColumnSchema("num", NUMERIC), ColumnSchema("ties", NUMERIC)]
    for j, q in enumerate(sizes):
        weights = rng.random(q) ** 3
        columns.append(rng.choice(np.arange(1, q + 1), size=n, p=weights / weights.sum()))
        schema.append(ColumnSchema(f"cat{j}", CATEGORICAL, tuple(f"L{i}" for i in range(q))))
    if task == REGRESSION:
        return from_arrays(tuple(schema), ResponseSpec(RESPONSE_NUMERIC), columns, np.round(rng.normal(0, 2, n), 2))
    classes = tuple(f"c{i}" for i in range(k))
    return from_arrays(tuple(schema), ResponseSpec(RESPONSE_CLASS, classes), columns, rng.integers(1, k + 1, n))


@pytest.mark.parametrize("task,k", [(REGRESSION, 0), (CLASSIFICATION, 2), (CLASSIFICATION, 4)])
@given(seed=st.integers(0, 10**9), n_trees=st.integers(1, 6), min_node_size=st.sampled_from([1, 5]))
@settings(max_examples=40, deadline=None)
def test_lock_step_growth_equals_growing_each_tree_alone(task, k, seed, n_trees, min_node_size):
    ds = lock_step_dataset(seed, task, k)
    rng = np.random.default_rng(seed)
    cfg = GrowConfig(task, int(rng.integers(1, 5)), min_node_size, random_candidates=64)
    samples = [rng.integers(0, ds.n_rows, size=ds.n_rows) for _ in range(n_trees)]
    together = grow_trees(ds, samples, cfg, [stream(seed, b) for b in range(n_trees)], list(range(n_trees)))
    for b, rows in enumerate(samples):
        alone = grow_tree(ds, rows, cfg, stream(seed, b), tree_id=b)
        assert together[b]["tree_id"] == b
        assert structure_hash(together[b]) == structure_hash(alone)


@pytest.mark.parametrize("task,k", [(REGRESSION, 0), (CLASSIFICATION, 2), (CLASSIFICATION, 4)])
@given(seed=st.integers(0, 10**9), n_trees=st.integers(1, 4), min_node_size=st.sampled_from([1, 5]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_lock_step_growth_equals_recursive_reference_growth(task, k, seed, n_trees, min_node_size):
    # random_candidates=64 on 4 classes: bitmask draws interleave with the mtry draws
    ds = lock_step_dataset(seed, task, k)
    rng = np.random.default_rng(seed)
    cfg = GrowConfig(task, int(rng.integers(1, 5)), min_node_size, random_candidates=64)
    samples = [rng.integers(0, ds.n_rows, size=ds.n_rows) for _ in range(n_trees)]
    grown = grow_trees(ds, samples, cfg, [stream(seed, b) for b in range(n_trees)], list(range(n_trees)))
    for b, rows in enumerate(samples):
        assert structure_hash(grown[b]) == structure_hash(grow_tree_recursively(ds, rows, cfg, stream(seed, b), b))


def rows_of_nodes(ds, tree, rows):
    """The rows of every node of a grown tree, in node id order."""
    out = {}

    def walk(v, rows):
        out[v] = rows
        s = tree["nodes"][v]["split"]
        if s is not None:
            x = ds.columns[s["predictor"]][rows]
            left = x <= s["threshold"] if s["kind"] == "ordered" else np.isin(x, s["left_levels"])
            walk(s["left"], rows[left])
            walk(s["right"], rows[~left])

    walk(0, np.asarray(rows))
    return [out[v] for v in range(len(tree["nodes"]))]


@pytest.mark.parametrize("task,k", [(REGRESSION, 0), (CLASSIFICATION, 2), (CLASSIFICATION, 4)])
@pytest.mark.parametrize("min_node_size", [1, 5])
def test_a_step_searches_one_node_that_needs_it_per_growing_tree(monkeypatch, task, k, min_node_size):
    ds = lock_step_dataset(3, task, k)
    rng = np.random.default_rng(3)
    cfg = GrowConfig(task, 2, min_node_size, random_candidates=64)
    samples = [rng.integers(0, ds.n_rows, size=ds.n_rows) for _ in range(5)]
    best_splits, blocks = tree_module._best_splits, []

    def spy(block, *args):
        blocks.append((block, args[-2]))  # the nodes searched and their trees' rngs
        return best_splits(block, *args)

    monkeypatch.setattr(tree_module, "_best_splits", spy)
    trees = grow_trees(ds, samples, cfg, [stream(3, b) for b in range(5)], list(range(5)))
    for block, rngs in blocks:
        for i, size in enumerate(block.sizes.tolist()):
            y = ds.y[block.rows[i, :size]]
            assert size > min_node_size and y.min() < y.max()
        assert len({id(r) for r in rngs}) == len(rngs) == block.sizes.size
    searched = [
        sum(r.size > min_node_size and np.ptp(ds.y[r]) > 0 for r in rows_of_nodes(ds, t, rows))
        for t, rows in zip(trees, samples)
    ]
    assert min(searched) > 1 and len(blocks) == max(searched)


@pytest.mark.parametrize("n_samples,n_rngs,n_ids", [(2, 2, 3), (3, 2, 2)])
def test_grow_trees_rejects_lists_of_different_lengths(n_samples, n_rngs, n_ids):
    ds = mixed_dataset()
    rows, rngs = [np.arange(ds.n_rows)] * n_samples, [stream(0, b) for b in range(n_rngs)]
    with pytest.raises(ValueError, match=f"{n_samples} samples, {n_rngs} rngs and {n_ids} tree ids"):
        grow_trees(ds, rows, GrowConfig(REGRESSION, 2, 5), rngs, list(range(n_ids)))


@given(
    st.lists(
        st.lists(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, float("inf"), float("nan")]), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(row) for row in rows}) == 1)
)
@settings(deadline=None)
def test_first_best_keeps_what_a_strict_scan_keeps(rows):
    def scan(row):
        best = None
        for c, v in enumerate(row):
            if v is not None and (best is None or v < row[best]):
                best = c
        return best

    impurity = np.array([[np.nan if v is None else v for v in row] for row in rows])
    valid = np.array([[v is not None for v in row] for row in rows])
    got = _first_best(impurity, valid).tolist()
    for row, c, ok in zip(rows, got, valid.any(axis=1)):
        assert (c if ok else None) == scan(row)


def test_growth_is_deterministic():
    ds = mixed_dataset()
    assert structure_hash(grow(ds)) == structure_hash(grow(ds))
    assert structure_hash(grow(ds, seed=4)) != structure_hash(grow(ds, seed=3))


def test_growth_respects_min_node_size_and_partitions():
    for task in (REGRESSION, CLASSIFICATION):
        ds = mixed_dataset(task=task)
        nodes = grow(ds, min_node_size=5)["nodes"]
        assert len(nodes) > 1
        for node in nodes:
            s = node["split"]
            if s is None:
                continue
            assert node["size"] > 5
            assert s["left_size"] + s["right_size"] == node["size"]
            assert nodes[s["left"]]["size"] == s["left_size"]
            assert nodes[s["right"]]["size"] == s["right_size"]


def test_growth_preorder_ids():
    nodes = grow(mixed_dataset())["nodes"]
    assert [node["id"] for node in nodes] == list(range(len(nodes)))
    for node in nodes:
        if node["split"]:
            assert node["split"]["left"] == node["id"] + 1
            assert node["split"]["right"] > node["split"]["left"]


def test_pure_node_becomes_a_leaf():
    schema = (ColumnSchema("x", NUMERIC),)
    ds = from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), [[1.0, 2.0, 3.0]], [5.0, 5.0, 5.0])
    t = grow_tree(ds, np.arange(3), GrowConfig(REGRESSION, 1, 1), stream(0, 0))
    assert len(t["nodes"]) == 1 and t["nodes"][0]["split"] is None
    assert t["nodes"][0]["mean"] == 5.0


def test_repeated_rows_count_in_node_sizes():
    ds = mixed_dataset()
    rows = np.array([0, 0, 0, 1, 2])
    t = grow(ds, rows=rows, min_node_size=1)
    assert t["nodes"][0]["size"] == 5


def test_growth_never_reads_left_out_rows():
    rng = np.random.default_rng(8)
    num = np.round(rng.normal(size=40), 2)
    c1 = rng.integers(1, 5, 40)
    y = np.round(num + (c1 == 1) * 2.0, 3)
    schema = (ColumnSchema("num", NUMERIC), ColumnSchema("c1", CATEGORICAL, ("a", "b", "c", "d")))
    resp = ResponseSpec(RESPONSE_NUMERIC)
    rows = np.arange(30)  # rows 30..39 left out
    y2 = y.copy()
    y2[35] += 1000.0
    a = grow_tree(from_arrays(schema, resp, [num, c1], y), rows, GrowConfig(REGRESSION, 2, 5), stream(1, 0))
    b = grow_tree(from_arrays(schema, resp, [num, c1], y2), rows, GrowConfig(REGRESSION, 2, 5), stream(1, 0))
    assert structure_hash(a) == structure_hash(b)


def test_mtry_one_still_grows():
    ds = mixed_dataset()
    t = grow(ds, mtry=1, min_node_size=10)
    assert len(t["nodes"]) > 1


@pytest.mark.parametrize("max_q", [10, 0])  # the one level searched exhaustively, or at random
def test_growth_passes_over_a_one_level_column(max_q):
    # one level has no bipartition, so every split falls to the numeric column
    rng = np.random.default_rng(0)
    n = 40
    schema = (ColumnSchema("num", NUMERIC), ColumnSchema("one", CATEGORICAL, ("a",)))
    columns = [np.round(rng.normal(size=n), 2), np.ones(n, dtype=np.int64)]
    ds = from_arrays(schema, ResponseSpec(RESPONSE_CLASS, ("lo", "hi")), columns, rng.integers(1, 3, n))
    cfg = GrowConfig(CLASSIFICATION, 2, 1, exhaustive_max_q_binary=max_q)
    t = grow_tree(ds, np.arange(n), cfg, stream(0, 0))
    inner = [node["split"] for node in t["nodes"] if node["split"]]
    assert inner and all(s["predictor"] == 0 for s in inner)


def test_grow_config_validation():
    ds = mixed_dataset()
    with pytest.raises(ValueError, match="exceeds"):
        grow_tree(ds, np.arange(ds.n_rows), GrowConfig(REGRESSION, 9, 5), stream(0, 0))
    with pytest.raises(ValueError, match="task"):
        grow_tree(ds, np.arange(ds.n_rows), GrowConfig(CLASSIFICATION, 2, 5), stream(0, 0))
    with pytest.raises(ValueError):
        GrowConfig(REGRESSION, 0, 5)
    with pytest.raises(ValueError):
        GrowConfig(REGRESSION, 1, 0)
    GrowConfig(CLASSIFICATION, 2, 1, exhaustive_max_q_binary=16, exhaustive_max_q_multiclass=16)
    for name in ("exhaustive_max_q_binary", "exhaustive_max_q_multiclass"):
        with pytest.raises(ValueError, match=f"{name} may not exceed 16"):
            GrowConfig(CLASSIFICATION, 2, 1, **{name: 50})


def test_grown_tree_routes_like_training_partition():
    ds = mixed_dataset()
    t, x = grow(ds), ds.matrix()
    for i in range(ds.n_rows):
        tr = route(t, x[i], Heuristic.LEFT)
        assert not tr.absent_encountered  # training rows only hit seen levels
        ((leaf_id, w),) = tr.entries
        assert w == 1.0 and t["nodes"][leaf_id]["split"] is None


def test_policies_agree_on_rows_without_absence():
    ds = mixed_dataset(task=CLASSIFICATION)
    t, x = grow(ds), ds.matrix()
    coins = Coins(master=5)
    for i in range(ds.n_rows):
        traces = [
            route(t, x[i], h, coins=coins, obs_id=i)
            for h in (Heuristic.LEFT, Heuristic.RIGHT, Heuristic.STOP, Heuristic.MAJORITY,
                      Heuristic.RANDOM, Heuristic.DBI)
        ]
        assert not traces[0].absent_encountered
        assert all(tr == traces[0] for tr in traces)


def test_classification_probabilities_sum_to_one():
    ds = mixed_dataset(task=CLASSIFICATION)
    t, x = grow(ds), ds.matrix()
    for i in range(0, ds.n_rows, 7):
        p = tree_predict(route(t, x[i], Heuristic.DBI), t)
        assert p.shape == (2,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization


def saved_and_loaded(forest, path):
    save_forest(forest, path)
    return load_forest(path)


def assert_routes_alike(a, b, rows):
    """``route`` gives the same trace through trees ``a`` and ``b`` for
    every row and routed policy."""
    coins = Coins(master=5)
    for i, row in enumerate(rows):
        for policy in ROUTED:
            assert route(a, row, policy, coins, i) == route(b, row, policy, coins, i), (i, policy)


def test_round_trip_preserves_structure_and_routing(tmp_path):
    for task in (REGRESSION, CLASSIFICATION):
        ds = mixed_dataset(task=task)
        grow_cfg = GrowConfig(task=ds.task, mtry=2, min_node_size=5)
        forest = train_forest(ds, ForestConfig(n_trees=3, seed=2, grow=grow_cfg))
        back = saved_and_loaded(forest, tmp_path / f"{task}.json")
        assert back.tree_dicts == forest.tree_dicts
        for t, u in zip(forest.tree_dicts, back.tree_dicts):
            assert structure_hash(u) == structure_hash(t)
            assert_routes_alike(u, t, ds.matrix())


def test_round_trip_is_float_exact(tmp_path):
    pseudo = {"pseudo_split": 0.1 + 0.2, "gamma": [[1, 1 / 3], [2, 2**-45]]}  # 0.3 is not exact in decimal
    nodes = [
        split(0, 1e-17, 0, {**cat_rule({1}, {1, 2}), **pseudo}, (1, 2), (2, 3)),
        leaf(1, -0.0, 2),
        leaf(2, float(np.nextafter(1.0, 2.0)), 3),
    ]
    forest = hand_forest(tree_dict(REGRESSION, 0, nodes))
    back = saved_and_loaded(forest, tmp_path / "m.json")
    assert back.tree_dicts == forest.tree_dicts
    t = back.tree_dicts[0]
    r = t["nodes"][0]["split"]
    assert r["pseudo_split"] == 0.1 + 0.2
    assert dict(r["gamma"])[2] == 2**-45
    assert t["nodes"][0]["mean"] == 1e-17
    assert math.copysign(1.0, t["nodes"][1]["mean"]) == -1.0
    assert t["nodes"][2]["mean"] == float(np.nextafter(1.0, 2.0))
    assert structure_hash(t) == structure_hash(forest.tree_dicts[0])
    assert_routes_alike(t, forest.tree_dicts[0], [[q, 1.0, 0.0] for q in (1.0, 2.0, 3.0)])


def test_structure_hash_ignores_tree_id_only():
    ds = mixed_dataset()
    t = grow(ds)
    assert structure_hash({**t, "tree_id": 17}) == structure_hash(t)
    # but any stats change shows up
    mutated = copy.deepcopy(t)
    mutated["nodes"][0]["size"] += 1
    assert structure_hash(mutated) != structure_hash(t)
