"""The node table that model loading builds against its oracle.

``forest_from_dict`` reads a dump straight into ``NodeTable`` arrays and
checks it there.  The oracle (``tests/reference.py``) checks the dump one
node at a time while it builds ``Node`` objects, then compiles the table
by walking them.  On valid dumps with one or two fields changed, the
table build must reject exactly the dumps the oracle rejects, with the
oracle's message (the first defect, when there are two), and on the
dumps both accept, its table and its predictions must equal the walk's,
and the trees the forest keeps must read as the oracle's.
"""
import copy
import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from absentrf.data import (
    CATEGORICAL,
    NUMERIC,
    RESPONSE_CLASS,
    RESPONSE_NUMERIC,
    ColumnSchema,
    ResponseSpec,
    from_arrays,
    schema_from_dict,
)
from absentrf.forest import (
    ForestConfig,
    forest_from_dict,
    forest_to_dict,
    predict_rows,
    train_forest,
)
from absentrf.heuristics import Heuristic
from absentrf.seeding import Coins
from absentrf.tree import GrowConfig
from reference import checked_tree_from_dict, checked_trees, walk_table
from test_predict_engine import assert_matches_oracle

ROUTED = [h for h in Heuristic if h is not Heuristic.ONE_HOT]
TASKS = ["regression", "binary", "multiclass"]
TABLE = [
    "start", "tree_id", "local", "predictor", "threshold", "cat_row", "left", "right",
    "left_size", "right_size", "codes", "value", "vote",
]
# two categorical columns share Q, so a split may move from one to the other
SCHEMA = (
    ColumnSchema("x", NUMERIC),
    ColumnSchema("a", CATEGORICAL, tuple("abcd")),
    ColumnSchema("b", CATEGORICAL, tuple("efgh")),
    ColumnSchema("c", CATEGORICAL, tuple("ijklmnopqrst")),  # pseudo-value or random search
)


@functools.cache
def dataset(task):
    rng = np.random.default_rng(TASKS.index(task))
    n = 48

    def levels(q):
        p = 0.6 ** np.arange(q)  # the last levels are rare, so bootstraps miss them
        return rng.choice(np.arange(1, q + 1), size=n, p=p / p.sum())

    cols = [np.round(rng.normal(size=n), 1)] + [levels(spec.n_levels) for spec in SCHEMA[1:]]
    if task == "regression":
        return from_arrays(SCHEMA, ResponseSpec(RESPONSE_NUMERIC), cols, rng.normal(size=n))
    k = 2 if task == "binary" else 3
    y = 1 + (cols[1] + cols[3] + rng.integers(0, 3, n)) % k
    return from_arrays(SCHEMA, ResponseSpec(RESPONSE_CLASS, tuple("uvw"[:k])), cols, y)


@functools.cache
def dump(task):
    data = dataset(task)
    grow = GrowConfig(task=data.task, mtry=2, min_node_size=3 if task == "regression" else 1)
    return forest_to_dict(train_forest(data, ForestConfig(n_trees=3, seed=5, grow=grow)))


def change_one_field(draw, task, d, kinds):
    """Change one field of one node of dump ``d``; a split's kind only if
    ``kinds``."""
    nodes = draw(st.sampled_from(d["trees"]))["nodes"]
    node = draw(st.sampled_from(nodes))
    splits = [e["split"] for e in nodes if e["split"]]
    fields = ["size", "id", "left", "right", "left_size", "right_size", "predictor"]
    fields += ["left_levels", "present", "absent"] + (["kind"] if kinds else [])
    field = draw(st.sampled_from(fields + ([] if task == "regression" else ["class_counts"])))
    if field in ("size", "id"):
        node[field] = draw(st.integers(-1, node[field] + 2))
    elif field == "class_counts":
        counts = node["class_counts"]
        change = draw(st.sampled_from(["entry", "append", "pop"]))
        if change == "entry":
            k = draw(st.integers(0, len(counts) - 1))
            counts[k] = draw(st.integers(-1, counts[k] + 2))
        elif change == "append":
            counts.append(draw(st.integers(0, 1)))
        else:
            counts.pop()
    elif splits:
        split = draw(st.sampled_from(splits))
        if field in ("left", "right"):
            split[field] = draw(st.integers(-1, len(nodes)))
        elif field in ("left_size", "right_size"):
            split[field] = draw(st.integers(-1, split[field] + 2))
        elif field == "predictor":
            split[field] = draw(st.integers(-1, len(SCHEMA)))
        elif field == "kind":
            split[field] = draw(st.sampled_from(["ordered", "categorical", "other"]))
        elif split["kind"] == "categorical":
            levels = split[field]
            change = draw(st.sampled_from(["pop", "append", "replace"] if levels else ["append"]))
            if change == "append":
                levels.append(draw(st.integers(-1, 13)))
            else:
                k = draw(st.integers(0, len(levels) - 1))
                if change == "pop":
                    levels.pop(k)
                else:
                    levels[k] = draw(st.integers(-1, 13))


@st.composite
def mutated_dumps(draw):
    """A valid dump of one task with one field changed, or two.  A second
    change makes the order in which defects are named observable; a
    missing key is named before any other defect, so then no split
    changes its kind."""
    task = draw(st.sampled_from(TASKS))
    d = copy.deepcopy(dump(task))
    changes = draw(st.integers(1, 2))
    for _ in range(changes):
        change_one_field(draw, task, d, kinds=changes == 1)
    return task, d


def loaded_or_message(load, *args):
    try:
        return load(*args), None
    except ValueError as exc:
        return None, str(exc)


def as_bytes(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def assert_table_equals_walk(task, forest, trees):
    walked = walk_table(trees)
    for name in TABLE:
        assert as_bytes(getattr(forest.table, name, None)) == as_bytes(getattr(walked, name, None)), name
    assert [checked_tree_from_dict(t) for t in forest.tree_dicts] == trees
    twin = dataclasses.replace(forest)  # the same dump, routed through the walked table
    twin.table = walked
    xmat = dataset(task).matrix()
    coins = Coins(master=3, replication=1)
    got, want = predict_rows(forest, xmat, ROUTED, coins), predict_rows(twin, xmat, ROUTED, coins)
    for policy in ROUTED:
        for field in ("predictions", "probabilities", "oob_tree_counts", "absent_tree_counts"):
            a, b = getattr(got[policy], field), getattr(want[policy], field)
            assert as_bytes(a) == as_bytes(b), (policy, field)


def test_valid_dumps_load_into_the_walked_table():
    for task in TASKS:
        d = copy.deepcopy(dump(task))
        forest = forest_from_dict(copy.deepcopy(d))
        assert_table_equals_walk(task, forest, checked_trees(d["trees"], SCHEMA))
        # tree ids beyond 64 bits key their coins modulo 2**64, as seeding.derive does
        for tree, tree_id in zip(d["trees"], (2**70 + 3, -1, 2**64 - 1)):
            tree["tree_id"] = tree_id
        forest = forest_from_dict(copy.deepcopy(d))
        assert_table_equals_walk(task, forest, checked_trees(d["trees"], SCHEMA))
        assert_matches_oracle(forest, dataset(task).matrix()[:12], Coins(master=3), None)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_dumps())
def test_table_build_rejects_what_the_oracle_rejects(case):
    task, d = case
    schema, _ = schema_from_dict(d["data"])
    trees, expected = loaded_or_message(checked_trees, copy.deepcopy(d["trees"]), schema)
    forest, message = loaded_or_message(forest_from_dict, d)
    assert message == expected
    if expected is None:
        assert_table_equals_walk(task, forest, trees)
