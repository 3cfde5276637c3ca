"""CART-style trees: growth, observation routing, and hashing.

Growth follows the classic recipe -- recursive binary splitting of a
row multiset, minimising squared error (regression) or size-weighted
Gini impurity (classification) -- with the categorical search chosen
per predictor as the long-standing library defaults choose it:
regression uses the pseudo-value scan; binary classification enumerates
bitmasks up to 10 levels, pseudo values above; multiclass enumerates
below 10 levels, random bitmasks above.  Trees grow in lock step, on
one dataset or on several that share rows and y (:func:`grow_trees`).

Routing is where the absent-level heuristics plug in: a categorical
rule answers directly for levels that were present when it was learned
and defers to the heuristic for the rest.  A trace records every node
the observation reached with its weight (forks under DBI carry
fractional weight), whether any absent level was encountered, and the
direction taken at each such event.

A tree has one form, a plain dict that a model dump holds as it is:
``{"tree_id", "task", "n_classes", "nodes"}``, its nodes numbered in
preorder, each ``{"id", "size", "mean"`` (regression) or
``"class_counts"`` (classification), ``"split"}``.  A leaf's split is
None; an inner node's holds ``predictor``, the child ids ``left`` and
``right``, the daughter sizes ``left_size`` and ``right_size``, and by
``kind`` either an ordered ``threshold`` or the categorical
``left_levels``, ``present`` and ``absent`` levels (sorted), ``bitmask``,
``pseudo_split`` and ``gamma`` (``[level, pseudo value]`` pairs, or None).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .data import CLASSIFICATION, NUMERIC, REGRESSION, Dataset
from .heuristics import Heuristic, RoutingContext, resolve
from .seeding import Coins
from .splits import (
    EXHAUSTIVE_HARD_LIMIT,
    ColumnTable,
    NodeBlock,
    _row_sums,
    bitmask_batch,
    ordered_split_batch,
    pseudo_value_batch,
)


def store_ints(config) -> None:
    """Store each set int field of a frozen dataclass as the int JSON
    writes (a numpy integer too); a float or string raises TypeError."""
    for f in dataclasses.fields(config):
        if f.type.startswith("int") and getattr(config, f.name) is not None:
            object.__setattr__(config, f.name, operator.index(getattr(config, f.name)))


@dataclass(frozen=True)
class GrowConfig:
    """Knobs for growing one tree."""

    task: str
    mtry: int
    min_node_size: int
    exhaustive_max_q_binary: int = 10
    exhaustive_max_q_multiclass: int = 9
    random_candidates: int = 1024

    def __post_init__(self):
        store_ints(self)
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        for name in ("mtry", "min_node_size", "random_candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("exhaustive_max_q_binary", "exhaustive_max_q_multiclass"):
            if getattr(self, name) > EXHAUSTIVE_HARD_LIMIT:
                raise ValueError(f"{name} may not exceed {EXHAUSTIVE_HARD_LIMIT}")


def _node_entries(table: ColumnTable, rows: np.ndarray, sizes: np.ndarray) -> tuple[list[dict], list[bool]]:
    """The node entry of every node whose rows are the next ``sizes[i]``
    of ``rows`` in turn, its id and split still to be filled in, and
    whether each is pure (one class, or one response value)."""
    dataset, y = table.dataset, table.response[rows]
    if dataset.task == REGRESSION:
        starts = np.cumsum(sizes) - sizes
        pure = np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)
        cells = np.arange(sizes.max()) < sizes[:, None]
        padded = np.zeros(cells.shape)
        padded[cells] = y
        means = zip(sizes.tolist(), (_row_sums(padded, cells) / sizes).tolist())
        return [{"id": 0, "size": s, "mean": mu, "split": None} for s, mu in means], pure.tolist()
    k = dataset.response.n_classes
    counts = np.bincount(np.repeat(np.arange(sizes.size) * k - 1, sizes) + y, minlength=sizes.size * k).reshape(-1, k)
    pure = (counts.max(axis=1) == sizes).tolist()
    counted = zip(sizes.tolist(), counts.tolist())
    return [{"id": 0, "size": s, "class_counts": c, "split": None} for s, c in counted], pure


# the split search of a predictor
ORDERED, PSEUDO, EXHAUSTIVE, RANDOM = range(4)


def _search_kinds(dataset: Dataset, cfg: GrowConfig) -> np.ndarray:
    """The split search of each predictor: ordered for numeric ones, and
    the task's method for categorical ones (see the module notes)."""
    kinds = []
    for spec in dataset.schema:
        if spec.kind == NUMERIC:
            kinds.append(ORDERED)
        elif cfg.task == REGRESSION:
            kinds.append(PSEUDO)
        elif dataset.response.n_classes == 2:
            kinds.append(EXHAUSTIVE if spec.n_levels <= cfg.exhaustive_max_q_binary else PSEUDO)
        else:
            kinds.append(EXHAUSTIVE if spec.n_levels <= cfg.exhaustive_max_q_multiclass else RANDOM)
    return np.array(kinds)


def _first_best(impurity: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per row, the valid column that a left-to-right scan keeps when a
    candidate replaces the incumbent only if strictly lower: the first
    minimum, unless the first valid candidate is NaN, which nothing is
    lower than."""
    first = valid.argmax(axis=1)
    usable = valid & ~np.isnan(impurity)
    low = np.where(usable, impurity, np.inf).min(axis=1)
    best = (usable & (impurity == low[:, None])).argmax(axis=1)
    return np.where(np.isnan(impurity[np.arange(first.size), first]), first, best)


def _best_splits(block: NodeBlock, sampled: np.ndarray, kinds, rngs, cfg: GrowConfig):
    """The split entry that each node ``r`` of ``block`` wins over its
    sampled table predictors ``sampled[r]`` (None where none is valid; a
    kind no search takes marks padding), scanning them in sampled order
    and keeping the first strictly lowest objective.

    The pairs of each search kind are scored in one batched call, and only
    the winners' entries are written, the ordered ones in one call.  The
    random search takes its pairs in (node, sampled rank) order, each
    drawing from its node's ``rngs[r]``.
    """
    dataset = block.table.dataset
    limit = cfg.exhaustive_max_q_binary if dataset.response.n_classes == 2 else cfg.exhaustive_max_q_multiclass
    kind = kinds[sampled]  # row = node, column = sampling rank
    impurity = np.full(sampled.shape, np.nan)
    valid = np.zeros(sampled.shape, dtype=bool)
    pair = np.zeros(sampled.shape, dtype=np.int64)  # index into its scan
    scans = {}
    for search in (ORDERED, PSEUDO, EXHAUSTIVE, RANDOM):
        r, c = (kind == search).nonzero()  # row-major: (node, rank) order
        if not r.size:
            continue
        pred = sampled[r, c]
        if search == ORDERED:
            scan = ordered_split_batch(block, r, pred)
        elif search == PSEUDO:
            scan = pseudo_value_batch(block, r, pred)
        else:
            draw_from = [rngs[i] for i in r.tolist()] if search == RANDOM else None
            scan = bitmask_batch(block, r, pred, draw_from, cfg.random_candidates, limit)
        impurity[r, c], valid[r, c], scans[search] = scan
        pair[r, c] = np.arange(r.size)

    r = np.flatnonzero(valid.any(axis=1))
    c = _first_best(impurity, valid)[r]
    splits = [None] * sampled.shape[0]
    for search, entry in scans.items():
        at = kind[r, c] == search
        won = pair[r[at], c[at]]
        for i, split in zip(r[at].tolist(), entry(won) if search == ORDERED else map(entry, won.tolist())):
            splits[i] = split
    return splits


def _children(block: NodeBlock, splits: list, offset: list) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the children of the nodes of ``block`` that ``splits``
    split (node ``i`` on table predictor ``offset[i]`` plus its entry's),
    flat, every right child's then every left one's; and their sizes."""
    table, m = block.table, len(splits)
    pred, threshold = np.zeros(m, dtype=np.int64), np.full(m, np.nan)
    lut = np.zeros((m, table.n_levels.max(initial=0) + 1), dtype=bool)  # the levels each node sends left
    for i, s in enumerate(splits):
        if s is not None:  # an ordered split, or a categorical one
            pred[i], threshold[i] = s["predictor"] + offset[i], s.get("threshold", np.nan)
            lut[i, s.get("left_levels", [])] = True
    won = np.array([s is not None for s in splits])
    cell = np.repeat(np.arange(m), block.sizes)  # the node of each of block.flat
    rows, cell = block.flat[won[cell]], cell[won[cell]]
    at, numeric, cat = table.row[pred[cell]], table.numeric[pred[cell]], ~table.numeric[pred[cell]]
    go_left = np.empty(rows.size, dtype=bool)
    go_left[numeric] = table.values[at[numeric], rows[numeric]] <= threshold[cell[numeric]]
    go_left[cat] = lut[cell[cat], table.levels[at[cat], rows[cat]]]
    n, n_left = np.bincount(cell, minlength=m), np.bincount(cell[go_left], minlength=m)
    return np.concatenate((rows[~go_left], rows[go_left])), np.concatenate(((n - n_left)[won], n_left[won]))


def grow_trees(dataset, samples, cfg, rngs, tree_ids, group=None) -> list[dict]:
    """Grow one tree per row multiset of ``samples`` (indices may repeat;
    repeats count), tree ``b`` drawing from ``rngs[b]`` and numbered
    ``tree_ids[b]``; each is returned in its dict form (module notes).
    ``dataset`` and ``cfg`` are one dataset and its config, or equally
    long sequences of them, and tree ``b`` grows on ``dataset[group[b]]``
    with ``cfg[group[b]]`` (on the first where ``group`` is None).  The
    datasets must share their rows, response and ``y``, and the configs
    may differ only in ``mtry`` and ``min_node_size``.

    A node is split while it holds more rows than ``min_node_size``, is
    impure, and at least one of ``mtry`` predictors sampled without
    replacement yields a valid split; the best candidate wins with ties
    resolved in favour of the earliest sampled predictor.  Nodes are
    numbered in preorder (left subtree before right).

    The trees grow in lock step, each from its own depth-first stack,
    with every node's entry and purity found when it is pushed, and its
    rows kept only if it needs a search.  A step pops from every tree
    still growing up to its next node that needs a search, numbering the
    leaves on the way, and searches those nodes together (see
    :func:`_best_splits`), each tree drawing from its rng exactly as if
    grown alone.  Every right child is pushed, then every left one.
    """
    samples = [np.asarray(rows, dtype=np.int64) for rows in samples]
    datasets, cfgs = ([dataset], [cfg]) if isinstance(dataset, Dataset) else (list(dataset), list(cfg))
    group = [0] * len(samples) if group is None else [operator.index(g) for g in group]
    if not len(samples) == len(rngs) == len(tree_ids) == len(group):
        raise ValueError(f"{len(samples)} samples, {len(rngs)} rngs and {len(tree_ids)} tree ids: need as many of each")
    if any(rows.size == 0 for rows in samples):
        raise ValueError("cannot grow a tree on an empty row multiset")
    for data, c in zip(datasets, cfgs):
        if c.task != data.task:
            raise ValueError(f"config task {c.task!r} does not match dataset task {data.task!r}")
        if c.mtry > data.n_predictors:
            raise ValueError(f"mtry={c.mtry} exceeds the {data.n_predictors} available predictors")
        if dataclasses.replace(c, mtry=cfgs[0].mtry, min_node_size=cfgs[0].min_node_size) != cfgs[0]:
            raise ValueError("the growth settings of one lock step may differ only in mtry and min_node_size")
    n_classes = datasets[0].response.n_classes
    trees = [{"tree_id": b, "task": cfgs[0].task, "n_classes": n_classes, "nodes": []} for b in tree_ids]
    table = ColumnTable(*datasets)
    # the search of each table predictor, then -1, which no search takes, for the padding of `sampled`
    kinds = np.concatenate([_search_kinds(d, c) for d, c in zip(datasets, cfgs)] + [[-1]])
    p, offset = [datasets[g].n_predictors for g in group], table.offset[group].tolist()
    mtry, min_size = ([getattr(cfgs[g], name) for g in group] for name in ("mtry", "min_node_size"))

    # explicit stacks give preorder ids without recursion-depth limits on
    # deep, min-node-size-1 trees; an entry holds a copy of a node's rows
    # (None for a leaf; a view would keep its step's children alive), its
    # dict entry, and the parent's split and key that take the node's id
    stacks: list[list[tuple]] = [[] for _ in samples]
    rows, sizes = np.concatenate(samples), np.array([r.size for r in samples])
    links = [(b, {}, "left") for b in range(len(samples))]  # to push: tree, parent split (throwaway), key
    while True:
        if sizes.size:
            entries, pure = _node_entries(table, rows, sizes)
            ends = np.cumsum(sizes).tolist()
            for (b, split, side), node, is_pure, size, end in zip(links, entries, pure, sizes.tolist(), ends):
                searched = size > min_size[b] and not is_pure
                stacks[b].append((rows[end - size : end].copy() if searched else None, node, split, side))
        step = []  # the nodes to split: tree, rows, node
        for b, (nodes, stack) in enumerate(zip((t["nodes"] for t in trees), stacks)):
            while stack:
                node_rows, node, parent, side = stack.pop()
                node["id"] = parent[side] = len(nodes)
                nodes.append(node)
                if node_rows is not None:
                    step.append((b, node_rows, node))
                    break
        if not step:
            return trees

        at, rows_at, nodes_at = zip(*step)
        sampled = np.full((len(step), max(mtry[b] for b in at)), table.offset[-1])  # padding
        for i, b in enumerate(at):
            sampled[i, : mtry[b]] = rngs[b].choice(p[b], size=mtry[b], replace=False) + offset[b]
        block = NodeBlock(table, rows_at)
        splits = _best_splits(block, sampled, kinds, [rngs[b] for b in at], cfgs[0])
        for node, split in zip(nodes_at, splits):
            node["split"] = split
        rows, sizes = _children(block, splits, [offset[b] for b in at])
        links = [(at[i], splits[i], side) for side in ("right", "left") for i, s in enumerate(splits) if s is not None]


def grow_tree(
    dataset: Dataset, rows, cfg: GrowConfig, rng: np.random.Generator, tree_id: int = 0
) -> dict:
    """Grow one tree on a row multiset; :func:`grow_trees` with one tree."""
    return grow_trees(dataset, [rows], cfg, [rng], [tree_id])[0]


# ---------------------------------------------------------------------------
# routing


@dataclass(frozen=True)
class PredictionTrace:
    """Where an observation ended up in one tree.

    ``entries`` are (node id, weight) pairs summing to one; several
    entries occur only under the DBI heuristic (weighted forks) and an
    internal node appears only under Stop.  ``resolutions`` records the
    (node id, direction) of every absent-level decision taken.
    """

    entries: tuple[tuple[int, float], ...]
    absent_encountered: bool
    resolutions: tuple[tuple[int, str], ...] = ()


def route(
    tree: dict,
    x,
    policy: Heuristic,
    coins: Coins | None = None,
    obs_id: int = 0,
) -> PredictionTrace:
    """Send one predictor vector down a tree (its dict form) under a
    routing policy.

    ``x`` holds one value per predictor (categorical entries are level
    indices).  ``coins`` supplies the deterministic uniforms consumed by
    Random and by Majority ties, keyed by (tree, node, observation).
    """
    if policy is Heuristic.ONE_HOT:
        raise ValueError("onehot is a dataset transform and cannot route observations")
    entries: list[tuple[int, float]] = []
    resolutions: list[tuple[int, str]] = []
    absent = False
    stack: list[tuple[int, float]] = [(0, 1.0)]
    while stack:
        node_id, weight = stack.pop()
        split = tree["nodes"][node_id]["split"]
        if split is None:
            entries.append((node_id, weight))
            continue
        value = x[split["predictor"]]
        if split["kind"] == "ordered":
            stack.append((split["left"], weight) if value <= split["threshold"] else (split["right"], weight))
            continue
        level, n_levels = int(value), len(split["present"]) + len(split["absent"])
        if level != value or level < 1 or level > n_levels:
            raise ValueError(
                f"value {value!r} of predictor {split['predictor']} is outside the "
                f"declared levels 1..{n_levels}"
            )
        if level in split["left_levels"]:
            stack.append((split["left"], weight))
            continue
        if level in split["present"]:
            stack.append((split["right"], weight))
            continue
        # the split has never seen this level: ask the policy
        absent = True
        if coins is not None:
            def coin(node_id=node_id):
                return coins.uniform(tree["tree_id"], node_id, obs_id)
        else:
            def coin():
                raise ValueError(f"{policy.token} routing needs a Coins source")
        outcome = resolve(policy, RoutingContext(node_id, split["left_size"], split["right_size"]), coin)
        resolutions.append((node_id, outcome.kind))
        if outcome.kind == "left":
            stack.append((split["left"], weight))
        elif outcome.kind == "right":
            stack.append((split["right"], weight))
        elif outcome.kind == "stop":
            entries.append((node_id, weight))
        else:  # weighted fork
            stack.append((split["right"], weight * outcome.w_right))
            stack.append((split["left"], weight * outcome.w_left))
    return PredictionTrace(tuple(entries), absent, tuple(resolutions))


# ---------------------------------------------------------------------------
# the node table and hashing


def _ints(values) -> np.ndarray:
    """``int`` of every value, as int64 (numpy calls ``int`` itself)."""
    return np.fromiter(values, np.int64)


def _distinct(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)``, without the hash table that is slower on small ints."""
    x = np.sort(x)
    return x[np.diff(x, prepend=x[:1] - 1) != 0]


class NodeTable:
    """Every node of some trees in flat arrays, indexed by global node id
    (node ``v`` of tree ``b`` is ``start[b] + v``), built straight from
    the trees' dict forms; :meth:`route` sends rows
    through them.  ``codes`` has one row per categorical node, indexed by
    level: 0 absent, 1 left, 2 present and right, 3 outside its 1..Q.

    The build raises ValueError naming the first defect, in tree and then
    node order, unless every tree has ``task``, ``n_classes`` and a node;
    node ids run 0..n-1; node sizes are at least 1; child ids lie strictly
    between their parent's id and n (preorder, so routing cannot loop);
    daughter sizes are at least 1 and equal the children's sizes (the
    majority, random and DBI policies read them); class counts, one per
    class, are >= 0 and sum to the node's size (votes are shares of it);
    and a categorical split keeps its present and absent levels apart and
    sends only present levels left.  Given a ``schema``, each split must
    then fit it: the predictor exists, the rule kind matches the column
    kind, and a categorical split's present and absent levels cover 1..Q.
    A missing key or a wrong type raises KeyError or TypeError first.
    """

    def __init__(self, trees: list[dict], task: str, n_classes: int, schema=None):
        ids = [int(t["tree_id"]) for t in trees]
        for t, b in zip(trees, ids):
            if (t["task"], int(t["n_classes"])) != (task, n_classes):
                raise ValueError(f"tree {b}: task or class count differs from the forest")
            if not t["nodes"]:
                raise ValueError(f"tree {b} has no nodes")
        n_nodes = [len(t["nodes"]) for t in trees]
        entries = list(chain.from_iterable(t["nodes"] for t in trees))
        n, tree_of = len(entries), np.repeat(np.arange(len(trees)), n_nodes)
        self.start = np.cumsum([0] + n_nodes[:-1])
        # a tree's coins are keyed by its id modulo 2**64, as seeding.derive keys them
        self.tree_id = np.repeat(np.array([b % 2**64 for b in ids], dtype=np.uint64), n_nodes)
        self.local = np.arange(n) - np.repeat(self.start, n_nodes)
        faults = []

        def fault(stage, rank, nodes, bad, message, *fields):
            """Note the first of ``nodes`` (global ids, ascending) where ``bad``
            holds, in the order that checks made node by node meet faults: in
            each tree, node checks (stage 0) before daughter sizes (stage 1),
            and schema checks (stage 2) after every tree."""
            if bad.any():
                i = int(bad.argmax())
                g = int(nodes[i])
                tree = ids[tree_of[g]]
                order = (stage == 2, tree_of[g], stage, g, rank)
                at = f"tree {tree} node {self.local[g]}"
                faults.append((order, message.format(*(f[i] for f in fields), at=at, tree=tree)))

        every = np.arange(n)
        size = _ints(map(itemgetter("size"), entries))
        fault(0, 0, every, size < 1, "{at}: size {0} is below 1", size)
        if task == REGRESSION:
            self.value = np.fromiter(map(float, map(itemgetter("mean"), entries)), np.float64)
        else:
            rows = list(map(itemgetter("class_counts"), entries))
            counts, n_counts = _ints(chain.from_iterable(rows)), _ints(map(len, rows))
            message = f"{{at}}: {{0}} class counts for {n_classes} classes"
            fault(0, 1, every, n_counts != n_classes, message, n_counts)
            counted = np.repeat(every, n_counts)  # the node of each count
            bad = np.bincount(counted, weights=counts, minlength=n) != size
            bad[counted[counts < 0]] = True
            message = "{at}: class counts {0} are not counts >= 0 summing to the node size {1}"
            fault(0, 2, every, bad, message, rows, size)
        node_id = _ints(map(itemgetter("id"), entries))
        fault(0, 3, every, node_id != self.local, "tree {tree}: node {0} has id {1}", self.local, node_id)

        splits = list(map(itemgetter("split"), entries))
        inner = np.array([k for k, s in enumerate(splits) if s is not None], dtype=np.int64)
        splits = [splits[k] for k in inner]
        fields = ("predictor", "left", "right", "left_size", "right_size")
        predictor, left, right, left_size, right_size = (_ints(map(itemgetter(f), splits)) for f in fields)
        v, n_tree = self.local[inner], np.repeat(n_nodes, n_nodes)[inner]
        for rank, side, child, daughter in ((4, "left", left, left_size), (5, "right", right, right_size)):
            ok = (v < child) & (child < n_tree)
            fault(0, rank, inner, ~ok, "{at}: child id {0} is not between {1} and {2}", child, v, n_tree)
            found = np.where(ok, size[np.where(ok, inner + child - v, 0)], 0)
            fault(1, 2 * rank, inner, daughter < 1, f"{{at}}: {side}_size {{0}} is below 1", daughter)
            message = f"{{at}}: {side}_size {{0}} differs from the size {{1}} of child {{2}}"
            fault(1, 2 * rank + 1, inner, daughter != found, message, daughter, found, child)
        kinds = list(map(itemgetter("kind"), splits))
        ordered = np.array([k == "ordered" for k in kinds], dtype=bool)
        categorical = np.array([k == "categorical" for k in kinds], dtype=bool)
        ordered_splits = (s for s, k in zip(splits, kinds) if k == "ordered")
        thresholds = np.fromiter(map(float, map(itemgetter("threshold"), ordered_splits)), np.float64)
        cats = [s for s, k in zip(splits, kinds) if k == "categorical"]
        n_cat = len(cats)
        # every left, present and absent level (in that order), each with its categorical node
        lists = [list(map(itemgetter(key), cats)) for key in ("left_levels", "present", "absent")]
        level = _ints(chain.from_iterable(chain.from_iterable(lists)))
        width = _ints(map(len, chain.from_iterable(lists)))
        owner = np.repeat(np.tile(np.arange(n_cat), 3), width)
        cut = np.cumsum(width.reshape(3, n_cat).sum(axis=1))[:2]
        for s in cats:  # the table keeps none of these, but a dump must hold them
            int(s["bitmask"])
            float(0 if s["pseudo_split"] is None else s["pseudo_split"])
            [(int(q), float(g)) for q, g in (() if s["gamma"] is None else s["gamma"])]
        # one integer key per (categorical node, level) pair, levels by rank
        values = _distinct(level)
        span = max(values.size, 1)
        key = owner * span + np.searchsorted(values, level)
        (left_key, present_key, absent_key), owners = np.split(key, cut), np.split(owner, cut)
        bad = np.zeros(n_cat, dtype=bool)
        bad[owners[2][np.isin(absent_key, present_key)]] = True
        bad[owners[0][~np.isin(left_key, present_key)]] = True
        message = "{at}: present and absent levels overlap, or a left level is not present"
        fault(0, 6, inner[categorical], bad, message)
        fault(0, 7, inner, ~(ordered | categorical), "{at}: unknown split kind {0!r}", kinds)
        union = _distinct(key[cut[0]:])
        del key, left_key, present_key, absent_key  # large, and no longer needed
        row, union_level = union // span, values[union % span]
        del union
        n_levels = np.bincount(row, minlength=n_cat)  # distinct present or absent levels

        if schema is not None:
            known = (predictor >= 0) & (predictor < len(schema))
            fault(2, 0, inner, ~known, "{at}: predictor {0} is outside the schema", predictor)
            columns = [(spec.kind, spec.name, spec.n_levels) for spec in schema] + [(None, None, 0)]
            kind, name, q = np.array(columns, dtype=object)[np.where(known, predictor, len(schema))].T
            numeric = kind == NUMERIC
            message = "{at}: rule does not fit {0} column {1!r}"
            fault(2, 1, inner, known & (ordered != numeric), message, kind, name)
            want, name = q[categorical].astype(np.int64), name[categorical]
            inside = np.bincount(row[(union_level >= 1) & (union_level <= want[row])], minlength=n_cat)
            bad = known[categorical] & ~numeric[categorical] & ((n_levels != want) | (inside != want))
            message = "{at}: present and absent levels do not cover 1..{0} of {1!r}"
            fault(2, 2, inner[categorical], bad, message, want, name)
        if faults:
            raise ValueError(min(faults)[1])

        self.predictor, self.threshold, self.cat_row = np.full(n, -1), np.full(n, np.nan), np.full(n, -1)
        self.left, self.right = np.arange(n), np.arange(n)
        self.left_size, self.right_size = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.predictor[inner], self.threshold[inner[ordered]] = predictor, thresholds
        self.left[inner], self.right[inner] = inner + left - v, inner + right - v
        self.left_size[inner], self.right_size[inner] = left_size, right_size
        self.cat_row[inner[categorical]] = np.arange(n_cat)
        columns = np.arange(n_levels.max(initial=0) + 1)
        self.codes = np.where((columns >= 1) & (columns <= n_levels[:, None]), 0, 3).astype(np.int8)
        levels = np.split(level, cut)
        for k, code in ((1, 2), (0, 1)):  # present levels, then left ones
            q, at = levels[k], owners[k]
            ok = (q >= 1) & (q <= n_levels[at])  # always, once the schema checks pass
            self.codes[at[ok], q[ok]] = code
        if task != REGRESSION:
            self.value = counts.reshape(n, n_classes) / size[:, None]
            self.vote = np.argmax(self.value, axis=1) + 1

    def route(self, xmat, policy: Heuristic, coins: Coins, trees: np.ndarray, rows: np.ndarray):
        """Route each pair (``trees[k]``, ``rows[k]``) level by level, resolving
        absent levels as :func:`absentrf.heuristics.resolve` does.  Returns
        the (pair, global node, weight) entries where the pairs ended and
        whether each pair met an absent level."""
        pair, node = np.arange(rows.size), self.start[trees]
        weight, absent = np.ones(rows.size), np.zeros(rows.size, dtype=bool)
        ended = [(pair[:0], node[:0], weight[:0])]
        while pair.size:
            pred = self.predictor[node]
            x = xmat[rows[pair], pred]  # leaves read column -1 and ignore it
            go_left = x <= self.threshold[node]
            k = np.flatnonzero(self.cat_row[node] >= 0)
            v = x[k]
            ok = (v >= 1) & (v < self.codes.shape[1])
            level = np.where(ok, v, 0).astype(np.int64)
            code = np.where(ok & (level == v), self.codes[self.cat_row[node[k]], level], 3)
            if (code == 3).any():
                j = k[np.argmax(code == 3)]
                q = np.count_nonzero(self.codes[self.cat_row[node[j]]] < 3)
                raise ValueError(
                    f"value {x[j]!r} of predictor {pred[j]} is outside the declared levels 1..{q}"
                )
            go_left[k] = code == 1
            nxt, stop = np.where(go_left, self.left[node], self.right[node]), pred < 0
            ev = k[code == 0]
            absent[pair[ev]] = True
            at, ls, rs = node[ev], self.left_size[node[ev]], self.right_size[node[ev]]
            total, fork = ls + rs, None
            if policy in (Heuristic.RANDOM, Heuristic.DBI) and (total <= 0).any():
                raise ValueError("routing context has no daughter rows")
            if policy is Heuristic.STOP:
                stop[ev] = True
            elif ev.size:
                if policy is Heuristic.DBI:  # left here, right as a new pair
                    fork = (pair[ev], self.right[at], weight[ev] * (rs / total))
                    weight[ev] *= ls / total
                    go = np.ones(ev.size, dtype=bool)
                elif policy is Heuristic.MAJORITY:
                    go, tie = ls > rs, np.flatnonzero(ls == rs)
                    if tie.size:
                        g = at[tie]
                        go[tie] = coins.uniforms(self.tree_id[g], self.local[g], rows[pair[ev[tie]]]) < 0.5
                elif policy is Heuristic.RANDOM:
                    go = coins.uniforms(self.tree_id[at], self.local[at], rows[pair[ev]]) < ls / total
                else:
                    go = np.full(ev.size, policy is Heuristic.LEFT)
                nxt[ev] = np.where(go, self.left[at], self.right[at])
            ended.append((pair[stop], node[stop], weight[stop]))
            pair, node, weight = pair[~stop], nxt[~stop], weight[~stop]
            if fork is not None:
                pair, node, weight = (np.concatenate(p) for p in zip((pair, node, weight), fork))
        return (*(np.concatenate(parts) for parts in zip(*ended)), absent)


def structure_hash(tree: dict) -> str:
    """Digest over topology, rules, and node stats of a tree.

    Identical growth inputs give identical digests; the tree's position
    in a forest (``tree_id``) is deliberately excluded.
    """
    obj = {key: value for key, value in tree.items() if key != "tree_id"}
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
