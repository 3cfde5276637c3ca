"""Forest training, out-of-bag prediction, and persistence."""
import dataclasses
import gc
import json
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absentrf import splits, synth
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
    one_hot_transform,
)
from absentrf.forest import (
    Forest,
    ForestConfig,
    OOBPredictionSet,
    absence_proportion,
    bootstrap_sample,
    default_coins,
    default_grow_config,
    forest_from_dict,
    forest_hash,
    forest_to_dict,
    forest_tree_hashes,
    load_forest,
    oob_predict_all,
    pooled_absence_proportions,
    predict_rows,
    save_forest,
    train_forest,
    train_forests,
)
from absentrf.heuristics import Heuristic
from absentrf.seeding import BOOTSTRAP, stream
from absentrf.tree import GrowConfig, NodeTable, route
from reference import tree_predict, tree_vote
from test_node_table import TABLE, as_bytes
from test_tree import lock_step_dataset


def make_dataset(seed=0, n=60, task=REGRESSION):
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


def small_forest(task=REGRESSION, n_trees=12, seed=42, workers=1):
    ds = make_dataset(task=task)
    return ds, train_forest(ds, ForestConfig(n_trees=n_trees, seed=seed), workers=workers)


# ---------------------------------------------------------------------------
# configuration defaults


def test_default_grow_config_by_task():
    reg = make_dataset(task=REGRESSION)
    cfg = default_grow_config(reg)
    assert (cfg.mtry, cfg.min_node_size) == (1, 5)  # P=3 -> max(1, 1)
    cls = make_dataset(task=CLASSIFICATION)
    cfg = default_grow_config(cls)
    assert (cfg.mtry, cfg.min_node_size) == (1, 1)


def test_default_grow_config_wider_data():
    cols = [np.arange(25.0) for _ in range(25)]
    schema = tuple(ColumnSchema(f"x{i}", NUMERIC) for i in range(25))
    reg = from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), cols, np.arange(25.0))
    assert default_grow_config(reg).mtry == 8  # 25 // 3
    cls = from_arrays(
        schema, ResponseSpec(RESPONSE_CLASS, ("a", "b")), cols, np.tile([1, 2], 13)[:25]
    )
    assert default_grow_config(cls).mtry == 5  # floor(sqrt(25))


def test_forest_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(sample_size=0)


def test_numpy_integer_settings_grow_and_save_the_forest_of_int_settings(tmp_path):
    ds = synth.bridge_multiclass(3)  # multiclass: exhaustive and random searches both run

    def saved(i):
        grow = GrowConfig(
            CLASSIFICATION, mtry=i(3), min_node_size=i(1), exhaustive_max_q_binary=i(10),
            exhaustive_max_q_multiclass=i(3), random_candidates=i(64),
        )
        forest = train_forest(ds, ForestConfig(n_trees=i(3), sample_size=i(60), seed=i(4), grow=grow))
        save_forest(forest, tmp_path / f"{i.__name__}.json")
        return forest_hash(forest), (tmp_path / f"{i.__name__}.json").read_bytes()

    assert saved(np.int64) == saved(int)
    rows, rngs = np.arange(ds.n_rows), [np.random.default_rng(5) for _ in range(2)]
    location = [spec.name for spec in ds.schema].index("location")
    assert splits.random_categorical_split(ds, rows, location, rngs[0], np.int64(64)) == (
        splits.random_categorical_split(ds, rows, location, rngs[1], 64)
    )
    with pytest.raises(TypeError):
        GrowConfig(CLASSIFICATION, mtry=2.0, min_node_size=1)
    with pytest.raises(TypeError):
        ForestConfig(n_trees=2.0)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_sample_shape_and_range():
    draws = bootstrap_sample(50, 50, stream(1, BOOTSTRAP, 0))
    assert draws.shape == (50,)
    assert draws.min() >= 0 and draws.max() < 50


def test_in_bag_counts_sum_to_sample_size():
    ds, forest = small_forest()
    assert forest.in_bag.shape == (12, ds.n_rows)
    assert np.all(forest.in_bag.sum(axis=1) == ds.n_rows)
    assert forest.config.sample_size == ds.n_rows  # resolved default


def test_custom_sample_size():
    ds = make_dataset()
    forest = train_forest(ds, ForestConfig(n_trees=3, sample_size=10, seed=1))
    assert np.all(forest.in_bag.sum(axis=1) == 10)
    assert forest.config.sample_size == 10


def test_oob_fraction_near_benchmark():
    # each bootstrap of size N leaves about 36.8% of rows out
    n = 100
    fracs = [
        (np.bincount(bootstrap_sample(n, n, stream(9, BOOTSTRAP, b)), minlength=n) == 0).mean()
        for b in range(2000)
    ]
    assert abs(float(np.mean(fracs)) - 0.368) < 0.01


# ---------------------------------------------------------------------------
# training determinism


def test_training_is_deterministic():
    _, a = small_forest(seed=7)
    _, b = small_forest(seed=7)
    assert forest_hash(a) == forest_hash(b)
    _, c = small_forest(seed=8)
    assert forest_hash(a) != forest_hash(c)


def test_worker_count_does_not_change_the_forest():
    for task, workers in ((REGRESSION, 3), (CLASSIFICATION, 2)):
        _, serial = small_forest(task, seed=11, workers=1)
        _, parallel = small_forest(task, seed=11, workers=workers)
        assert forest_tree_hashes(serial) == forest_tree_hashes(parallel)
        assert np.array_equal(serial.in_bag, parallel.in_bag)


def test_pool_starts_one_process_per_chunk(monkeypatch):
    sizes = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr("absentrf.forest.ProcessPoolExecutor", SpyPool)
    _, serial = small_forest(n_trees=2, seed=11, workers=1)
    _, pooled = small_forest(n_trees=2, seed=11, workers=64)
    assert sizes == [2]
    assert forest_hash(pooled) == forest_hash(serial)


def test_trees_have_distinct_bootstraps():
    _, forest = small_forest()
    assert len({h for h in forest_tree_hashes(forest)}) > 1
    assert not np.array_equal(forest.in_bag[0], forest.in_bag[1])


# ---------------------------------------------------------------------------
# prediction


def test_predict_rows_regression_is_tree_average():
    ds, forest = small_forest()
    coins = default_coins(forest)
    out = predict_rows(forest, ds.matrix(), [Heuristic.LEFT], coins)[Heuristic.LEFT]
    assert out.probabilities is None
    assert np.all(out.oob_tree_counts == forest.n_trees)
    for i in (0, 3, ds.n_rows - 1):
        manual = np.mean(
            [tree_predict(route(t, ds.matrix()[i], Heuristic.LEFT, coins, i), t) for t in forest.tree_dicts]
        )
        assert out.predictions[i] == pytest.approx(manual, abs=1e-12)


def test_predict_rows_classification_votes():
    ds, forest = small_forest(task=CLASSIFICATION)
    coins = default_coins(forest)
    out = predict_rows(forest, ds.matrix(), [Heuristic.LEFT], coins)[Heuristic.LEFT]
    shares = out.probabilities
    assert shares.shape == (ds.n_rows, 2)
    assert np.allclose(shares.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(shares * forest.n_trees == np.round(shares * forest.n_trees))
    assert np.array_equal(out.predictions, np.argmax(shares, axis=1) + 1)
    votes = [tree_vote(route(t, ds.matrix()[5], Heuristic.LEFT, coins, 5), t) for t in forest.tree_dicts]
    assert shares[5, 0] == votes.count(1) / forest.n_trees


def test_oob_counts_match_in_bag_complement():
    ds, forest = small_forest()
    out = oob_predict_all(forest, ds, [Heuristic.LEFT])[Heuristic.LEFT]
    expected = (forest.in_bag == 0).sum(axis=0)
    assert np.array_equal(out.oob_tree_counts, expected)
    assert np.all(out.absent_tree_counts <= out.oob_tree_counts)


def test_oob_regression_row_matches_manual_aggregate():
    ds, forest = small_forest()
    coins = default_coins(forest)
    out = oob_predict_all(forest, ds, [Heuristic.RIGHT], coins)[Heuristic.RIGHT]
    i = int(np.flatnonzero(out.defined)[0])
    vals = [
        tree_predict(route(t, ds.matrix()[i], Heuristic.RIGHT, coins, i), t)
        for b, t in enumerate(forest.tree_dicts)
        if forest.in_bag[b, i] == 0
    ]
    assert out.predictions[i] == pytest.approx(np.mean(vals), abs=1e-12)


def test_oob_classification_probabilities():
    ds, forest = small_forest(task=CLASSIFICATION)
    out = oob_predict_all(forest, ds, [Heuristic.MAJORITY])[Heuristic.MAJORITY]
    d = out.defined
    assert np.allclose(out.probabilities[d].sum(axis=1), 1.0)
    assert np.array_equal(out.predictions[d], np.argmax(out.probabilities[d], axis=1) + 1)
    assert out.predictions.dtype == np.int64


def test_oob_replay_is_exact_even_for_random_policy():
    ds, forest = small_forest(task=CLASSIFICATION)
    coins = default_coins(forest, replication=3)
    a = oob_predict_all(forest, ds, [Heuristic.RANDOM], coins)[Heuristic.RANDOM]
    b = oob_predict_all(forest, ds, [Heuristic.RANDOM], coins)[Heuristic.RANDOM]
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.probabilities, b.probabilities, equal_nan=True)
    assert np.array_equal(a.absent_tree_counts, b.absent_tree_counts)


def test_single_tree_forest_leaves_rows_undefined():
    ds = make_dataset()
    forest = train_forest(ds, ForestConfig(n_trees=1, seed=2))
    out = oob_predict_all(forest, ds, [Heuristic.LEFT])[Heuristic.LEFT]
    assert not out.defined.all() and out.defined.any()
    assert np.all(np.isnan(out.predictions[~out.defined]))
    assert np.all(~np.isnan(out.predictions[out.defined]))


def test_oob_rejects_mismatched_dataset():
    ds, forest = small_forest()
    other = make_dataset(seed=99)
    with pytest.raises(ValueError, match="match"):
        oob_predict_all(forest, other, [Heuristic.LEFT])


# ---------------------------------------------------------------------------
# absence pooling


def fake_set(absent, oob):
    n = len(absent)
    return OOBPredictionSet(
        heuristic="left",
        task=REGRESSION,
        n_classes=0,
        predictions=np.zeros(n),
        probabilities=None,
        oob_tree_counts=np.asarray(oob),
        absent_tree_counts=np.asarray(absent),
    )


def test_pooled_absence_proportions():
    sets = [fake_set([1, 0, 0], [2, 1, 0]), fake_set([0, 0, 0], [0, 1, 0])]
    pooled = pooled_absence_proportions(sets)
    assert pooled[0] == pytest.approx(0.5)
    assert pooled[1] == 0.0
    assert np.isnan(pooled[2])  # never out of bag anywhere
    assert absence_proportion(sets, 0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pooled_absence_proportions([])


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    for task in (REGRESSION, CLASSIFICATION):
        ds, forest = small_forest(task=task)
        path = tmp_path / f"{task}.forest.json"
        save_forest(forest, path)
        dump = json.dumps(forest_to_dict(forest), sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == dump
        back = load_forest(path)
        assert isinstance(back, Forest)
        assert forest_hash(back) == forest_hash(forest)
        assert np.array_equal(back.in_bag, forest.in_bag)
        assert back.config == forest.config
        assert back.schema == forest.schema
        assert back.response == forest.response
        assert back.fingerprint == forest.fingerprint
        a = oob_predict_all(forest, ds, [Heuristic.DBI])[Heuristic.DBI]
        b = oob_predict_all(back, ds, [Heuristic.DBI])[Heuristic.DBI]
        assert np.array_equal(a.predictions, b.predictions, equal_nan=(task == REGRESSION))


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "not_forest.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a forest dump"):
        load_forest(path)


def first_split(dump, kind):
    return next(
        n["split"]
        for t in dump["trees"]
        for n in t["nodes"]
        if n["split"] and n["split"]["kind"] == kind
    )


def _move_left_level_to_absent(d):
    split = first_split(d, "categorical")
    q = split["left_levels"][0]
    split["present"].remove(q)
    split["absent"].append(q)


def _negative_in_bag_count(d):
    row = d["in_bag"][0]
    row[1] += row[0] + 1
    row[0] = -1


def _in_bag_row_not_summing_to_sample_size(d):
    d["in_bag"][3][0] += 1


def _zero_daughter_sizes(d):
    first_split(d, "categorical").update(left_size=0, right_size=0)


def _left_size_off_by_one(d):
    split = first_split(d, "ordered")
    split.update(left_size=split["left_size"] + 1, right_size=split["right_size"] - 1)


def _add_third_class_to_one_tree(d):
    tree = d["trees"][1]
    tree["n_classes"] = 3
    for node in tree["nodes"]:
        node["class_counts"].append(0)


def _empty_one_node_tree(d):
    tree = d["trees"][0]
    root = tree["nodes"][0]
    root.update(split=None, size=0, class_counts=[0] * tree["n_classes"])
    tree["nodes"] = [root]


def _negative_class_count(d):
    counts = d["trees"][0]["nodes"][0]["class_counts"]
    counts[0] += counts[1] + 1
    counts[1] = -1


def _class_counts_not_summing_to_size(d):
    d["trees"][0]["nodes"][0]["class_counts"][0] += 1


@pytest.mark.parametrize(
    "task, corrupt, message",
    [
        (REGRESSION, lambda d: first_split(d, "ordered").update(predictor=1), "does not fit"),
        (REGRESSION, lambda d: first_split(d, "categorical").update(kind="x"), "unknown split kind"),
        (REGRESSION, lambda d: first_split(d, "categorical")["absent"].append(99), "do not cover"),
        (REGRESSION, lambda d: first_split(d, "categorical")["present"].pop(), "do not cover"),
        (REGRESSION, _move_left_level_to_absent, "left level is not present"),
        (REGRESSION, lambda d: d["trees"][0]["nodes"][1].update(id=0), "has id 0"),
        (REGRESSION, lambda d: d.update(trees=[]), "no trees"),
        (REGRESSION, lambda d: d.update(task=CLASSIFICATION), "does not match its response"),
        (REGRESSION, lambda d: d["trees"][0].update(nodes=5), "malformed model dump"),
        (REGRESSION, lambda d: d["trees"][0]["nodes"][0].update(split="x"), "malformed model dump"),
        (REGRESSION, lambda d: d["config"]["grow"].update(mtry=2.5), "malformed model dump"),
        (REGRESSION, lambda d: d["in_bag"].pop(), "in_bag has shape"),
        (REGRESSION, lambda d: d.update(in_bag=d["in_bag"][0]), "in_bag has shape"),
        (REGRESSION, _negative_in_bag_count, "counts >= 0"),
        (REGRESSION, _in_bag_row_not_summing_to_sample_size, "summing to sample_size 60"),
        (CLASSIFICATION, lambda d: d["trees"][0]["nodes"][0]["class_counts"].pop(), "class counts"),
        (CLASSIFICATION, _add_third_class_to_one_tree, "differs from the forest"),
        (REGRESSION, _zero_daughter_sizes, "left_size 0 is below 1"),
        (CLASSIFICATION, _left_size_off_by_one, "differs from the size"),
        (CLASSIFICATION, _empty_one_node_tree, "node 0: size 0 is below 1"),
        (CLASSIFICATION, _negative_class_count, "summing to the node size"),
        (CLASSIFICATION, _class_counts_not_summing_to_size, "summing to the node size"),
    ],
)
def test_forest_from_dict_rejects_malformed_dumps(task, corrupt, message):
    _, forest = small_forest(task=task)
    dump = forest_to_dict(forest)
    corrupt(dump)
    with pytest.raises(ValueError, match=message):
        forest_from_dict(dump)


def test_a_trained_forest_holds_a_bounded_number_of_bytes_per_grown_node():
    # the tree dicts, the node table and in_bag of this forest hold 652
    # bytes per node; growth arrays kept beside them would add about 90
    rng = np.random.default_rng(0)
    n = 400
    schema = tuple(ColumnSchema(f"x{i}", NUMERIC) for i in range(3))
    schema += (ColumnSchema("c", CATEGORICAL, tuple(f"L{q}" for q in range(30))),)
    columns = [rng.normal(size=n) for _ in range(3)] + [rng.integers(1, 31, size=n)]
    ds = from_arrays(schema, ResponseSpec(RESPONSE_NUMERIC), columns, rng.normal(size=n))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forest = train_forest(ds, ForestConfig(n_trees=10, seed=3))
        predict_rows(forest, ds.matrix()[:5], [Heuristic.LEFT], default_coins(forest))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = sum(len(t["nodes"]) for t in forest.tree_dicts)
    assert nodes > 2000 and held / nodes <= 685


def test_tiny_bitmask_chunks_grow_the_golden_bridge_forest(monkeypatch):
    # chunks of a few cells split every node's bitmask pairs across chunks,
    # each pair's pattern table in a run of its own
    monkeypatch.setattr(splits, "_BITMASK_CELLS", 8)
    forest = train_forest(synth.bridge_multiclass(0), ForestConfig(n_trees=10, seed=11))
    # the hash tests/test_golden.py pins for this forest
    assert forest_hash(forest) == "3c0baf3529da435d9199463a39976b01b919106b9af431fb4029f5c87a31e035"


# ---------------------------------------------------------------------------
# several forests in one lock step


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("task,k", [(REGRESSION, 0), (CLASSIFICATION, 2), (CLASSIFICATION, 7)])
@given(seed=st.integers(0, 10**9))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_train_forests_equals_training_each_forest_alone(task, k, workers, seed):
    # 7 classes: the high-cardinality column takes the random search, whose
    # bitmask draws interleave with the mtry draws of each tree's rng
    ds = lock_step_dataset(seed, task, k)
    rng = np.random.default_rng(seed)
    pairs = []
    for g, data in enumerate((ds, one_hot_transform(ds))):
        grow = dataclasses.replace(default_grow_config(data), min_node_size=int(rng.choice([1, 5])), random_candidates=64)
        pairs.append((data, ForestConfig(n_trees=int(rng.integers(1, 5)), seed=seed + g, grow=grow)))
    together = train_forests(pairs, workers=workers)
    assert len(together) == len(pairs)
    for forest, (data, config) in zip(together, pairs):
        alone = train_forest(data, config)
        assert forest_tree_hashes(forest) == forest_tree_hashes(alone)
        assert [t["tree_id"] for t in forest.tree_dicts] == list(range(config.n_trees))
        assert np.array_equal(forest.in_bag, alone.in_bag)
        assert (forest.config, forest.fingerprint, forest.schema) == (alone.config, alone.fingerprint, alone.schema)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("task,k", [(REGRESSION, 0), (CLASSIFICATION, 2), (CLASSIFICATION, 7)])
@given(seed=st.integers(0, 10**9))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_a_grown_forest_table_equals_the_table_read_from_its_dicts(task, k, workers, seed):
    # train_forests compiles each forest's table from the growth arrays; the
    # dump reader builds it from the tree dicts, with every check
    ds = lock_step_dataset(seed, task, k)
    rng = np.random.default_rng(seed)
    pairs = []
    for g, data in enumerate((ds, one_hot_transform(ds))):
        grow = dataclasses.replace(default_grow_config(data), min_node_size=int(rng.choice([1, 5])), random_candidates=64)
        pairs.append((data, ForestConfig(n_trees=int(rng.integers(1, 5)), seed=seed + g, grow=grow)))
    for forest in train_forests(pairs, workers=workers):
        assert "table" in vars(forest)  # compiled by train_forests, not built on first use
        read = NodeTable(forest.tree_dicts, forest.task, forest.n_classes, forest.schema)
        for name in TABLE:  # bytes, so NaN thresholds compare equal
            assert as_bytes(getattr(forest.table, name, None)) == as_bytes(getattr(read, name, None)), name


def test_train_forests_rejects_forests_that_cannot_share_a_lock_step():
    ds = make_dataset(task=CLASSIFICATION)
    config = ForestConfig(n_trees=3, seed=1)
    others = [
        make_dataset(n=59, task=CLASSIFICATION),  # other rows
        from_arrays(ds.schema, ResponseSpec(RESPONSE_CLASS, ("no", "yes")), ds.columns, ds.y),  # other response
        from_arrays(ds.schema, ds.response, ds.columns, 3 - ds.y),  # other y
    ]
    for other in others:
        with pytest.raises(ValueError, match="must share their rows, response and y"):
            train_forests([(ds, config), (other, config)])
    grow = default_grow_config(ds)
    changes = [dict(exhaustive_max_q_binary=3), dict(exhaustive_max_q_multiclass=4), dict(random_candidates=8)]
    for change in changes:
        pairs = [(ds, ForestConfig(3, grow=grow)), (ds, ForestConfig(3, grow=dataclasses.replace(grow, **change)))]
        with pytest.raises(ValueError, match="may differ only in mtry and min_node_size"):
            train_forests(pairs)
    other = dataclasses.replace(grow, mtry=3, min_node_size=4)
    forests = train_forests([(ds, ForestConfig(3, grow=grow)), (ds, ForestConfig(2, seed=5, grow=other))])
    assert [f.n_trees for f in forests] == [3, 2]


def test_a_step_builds_one_block_over_the_searched_nodes_of_both_forests(monkeypatch):
    ds = synth.rollcall_binary(0)
    onehot = one_hot_transform(ds)
    blocks, steps = [], []

    class CountingBlock(splits.NodeBlock):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    best_splits = tree_module._best_splits

    def spy(block, sampled, *args):
        steps.append((block, sampled))
        return best_splits(block, sampled, *args)

    monkeypatch.setattr(tree_module, "NodeBlock", CountingBlock)
    monkeypatch.setattr(tree_module, "_best_splits", spy)
    config = ForestConfig(n_trees=4, seed=11)
    forests = train_forests([(ds, config), (onehot, config)])
    assert len(blocks) == len(steps) and all(b is block for b, (block, _) in zip(blocks, steps))
    # nodes with more rows than min_node_size (1) that are impure are searched, and only they
    searched = [
        node for f in forests for t in f.tree_dicts for node in t["nodes"]
        if node["size"] > 1 and max(node["class_counts"]) < node["size"]
    ]
    assert sum(block.sizes.size for block in blocks) == len(searched)
    for block, _ in steps:
        for i, size in enumerate(block.sizes.tolist()):
            y = ds.y[block.rows[i, :size]]
            assert size > 1 and y.min() < y.max()
    # a row whose first sampled table predictor is below P is a native node, else a one-hot one
    native = [sampled[:, 0] < ds.n_predictors for _, sampled in steps]
    assert all(n.size == block.sizes.size for n, (block, _) in zip(native, steps))
    mixed = [n.any() and not n.all() for n in native]
    assert mixed[0] and sum(mixed) > len(steps) // 2
