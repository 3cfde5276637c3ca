"""CART-style trees: growth, observation routing, and hashing.

Growth follows the classic recipe -- recursive binary splitting of a
row multiset, minimising squared error (regression) or size-weighted
Gini impurity (classification) -- with the categorical search chosen
per predictor as the long-standing library defaults choose it:
regression uses the pseudo-value scan; binary classification enumerates
bitmasks up to 10 levels, pseudo values above; multiclass enumerates
below 10 levels, random bitmasks above.  Trees grow in lock step, on
one dataset or on several that share rows and y (:func:`grow_arrays`),
into flat node arrays (:class:`GrownTrees`): each tree's dict form is
written once, when the lock step ends, and a grown forest's node table
is compiled from the same arrays.

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
    EXHAUSTIVE,
    EXHAUSTIVE_HARD_LIMIT,
    LEVELS,
    N_LEFT,
    N_RIGHT,
    ORDERED,
    PREDICTOR,
    PRESENT,
    PSEUDO,
    RANDOM,
    SEARCH,
    SENT_LEFT,
    THRESHOLD,
    ColumnTable,
    NodeBlock,
    Splits,
    _row_sums,
    _splits,
    bitmask_batch,
    ordered_split_batch,
    pseudo_value_batch,
    split_entries,
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


def _node_stats(table: ColumnTable, rows: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean response (regression) or class counts of every node whose
    rows are the next ``sizes[i]`` of ``rows`` in turn, and whether each
    is pure (one class, or one response value)."""
    dataset, y = table.dataset, table.response[rows]
    if dataset.task == REGRESSION:
        starts = np.cumsum(sizes) - sizes
        pure = np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)
        cells = np.arange(sizes.max()) < sizes[:, None]
        padded = np.zeros(cells.shape)
        padded[cells] = y
        return _row_sums(padded, cells) / sizes, pure
    k = dataset.response.n_classes
    counts = np.bincount(np.repeat(np.arange(sizes.size) * k - 1, sizes) + y, minlength=sizes.size * k).reshape(-1, k)
    return counts, counts.max(axis=1) == sizes


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
    """The split that each node ``r`` of ``block`` wins over its sampled
    table predictors ``sampled[r]`` (a kind no search takes marks
    padding), scanning them in sampled order and keeping the first
    strictly lowest objective: each node's table predictor (-1 where none
    is valid), threshold (NaN unless ordered) and row of a lookup table of
    the levels it sends left (level 0 never), and per search that won a
    node, the nodes it won and their :class:`Splits`.

    The pairs of each search kind are scored in one batched call.  The
    random search takes its pairs in (node, sampled rank) order, each
    drawing from its node's ``rngs[r]``.
    """
    table = block.table
    limit = cfg.exhaustive_max_q_binary if table.dataset.response.n_classes == 2 else cfg.exhaustive_max_q_multiclass
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
    m = sampled.shape[0]
    pred, threshold = np.full(m, -1), np.full(m, np.nan)
    lut = np.zeros((m, table.n_levels.max(initial=0) + 1), dtype=bool)
    won = []
    for search, scan in scans.items():
        at = kind[r, c] == search
        i = r[at]
        if i.size:
            best = scan.take(pair[i, c[at]])
            pred[i], threshold[i] = sampled[i, c[at]], best.head[:, THRESHOLD]
            if search != ORDERED:
                lut[i, 1:] = best.masks[:, SENT_LEFT]
            won.append((i, best))
    return pred, threshold, lut, won


def _children(block: NodeBlock, pred: np.ndarray, threshold: np.ndarray, lut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the children of the nodes of ``block`` that split on
    table predictor ``pred[i]`` (none where -1) at ``threshold[i]`` or by
    left-level lookup row ``lut[i]``, flat, every right child's then
    every left one's; and their sizes."""
    table, won = block.table, pred >= 0
    rows, cell = block.flat, np.repeat(np.arange(pred.size), block.sizes)  # the node of each row
    if not won.all():
        rows, cell = rows[won[cell]], cell[won[cell]]
    at, numeric = table.row[pred][cell], table.numeric[pred][cell]
    cat = ~numeric
    go_left = np.empty(rows.size, dtype=bool)
    go_left[numeric] = table.values[at[numeric], rows[numeric]] <= threshold[cell[numeric]]
    go_left[cat] = lut[cell[cat], table.levels[at[cat], rows[cat]]]
    n, n_left = np.bincount(cell, minlength=pred.size), np.bincount(cell[go_left], minlength=pred.size)
    return np.concatenate((rows[~go_left], rows[go_left])), np.concatenate(((n - n_left)[won], n_left[won]))


@dataclass
class GrownTrees:
    """Trees grown in lock step, in flat arrays.  Per tree: ``tree_id``
    and ``n_nodes``.  Per node, tree by tree in preorder: ``size`` and
    ``value``, the mean response or the class counts.  Per inner node, by
    ``inner``, its index among the nodes (ascending): child ids ``left``
    and ``right`` within its tree, and its split, row ``i`` of ``splits``
    (predictor ids in its own dataset)."""

    task: str
    n_classes: int
    tree_id: list
    n_nodes: np.ndarray
    size: np.ndarray
    value: np.ndarray
    inner: np.ndarray
    left: np.ndarray
    right: np.ndarray
    splits: Splits

    def trees(self, lo: int, hi: int) -> GrownTrees:
        """Trees ``lo`` to ``hi - 1``."""
        n0, n1 = (int(self.n_nodes[:t].sum()) for t in (lo, hi))
        i0, i1 = np.searchsorted(self.inner, (n0, n1)).tolist()
        return GrownTrees(
            self.task, self.n_classes, self.tree_id[lo:hi], self.n_nodes[lo:hi], self.size[n0:n1],
            self.value[n0:n1], self.inner[i0:i1] - n0, self.left[i0:i1], self.right[i0:i1],
            self.splits.take(np.arange(i0, i1)),
        )

    @staticmethod
    def concat(parts: list) -> GrownTrees:
        """The trees of ``parts`` in turn."""
        first, starts = parts[0], np.cumsum([0] + [p.size.size for p in parts])
        return GrownTrees(
            first.task, first.n_classes, [b for p in parts for b in p.tree_id],
            *(np.concatenate([getattr(p, f) for p in parts]) for f in ("n_nodes", "size", "value")),
            np.concatenate([p.inner + s for p, s in zip(parts, starts.tolist())]),
            *(np.concatenate([getattr(p, f) for p in parts]) for f in ("left", "right")),
            Splits.concat([p.splits for p in parts]),
        )

    def tree_dicts(self) -> list[dict]:
        """Every tree in its dict form (module notes)."""
        splits = [None] * self.size.size
        for i, entry in zip(self.inner.tolist(), split_entries(self.splits, self.left.tolist(), self.right.tolist())):
            splits[i] = entry
        n_nodes = self.n_nodes.tolist()
        start = np.cumsum([0] + n_nodes[:-1])
        local = (np.arange(self.size.size) - np.repeat(start, n_nodes)).tolist()
        key = "mean" if self.task == REGRESSION else "class_counts"
        nodes = [{"id": v, "size": s, key: x, "split": e} for v, s, x, e in zip(local, self.size.tolist(), self.value.tolist(), splits)]
        return [
            {"tree_id": b, "task": self.task, "n_classes": self.n_classes, "nodes": nodes[a : a + n]}
            for b, a, n in zip(self.tree_id, start.tolist(), n_nodes)
        ]

    def table(self) -> NodeTable:
        """The :class:`NodeTable` of the trees, compiled from these arrays."""
        head, masks = self.splits.head, self.splits.masks
        categorical = head[:, SEARCH] > ORDERED
        levels = head[categorical, LEVELS].astype(np.int64)
        columns = np.arange(levels.max(initial=0) + 1)
        codes = np.where((columns >= 1) & (columns <= levels[:, None]), 0, 3).astype(np.int8)
        codes[:, 1:][masks[:, PRESENT, : columns.size - 1]] = 2
        codes[:, 1:][masks[:, SENT_LEFT, : columns.size - 1]] = 1
        predictor, left_size, right_size = head[:, [PREDICTOR, N_LEFT, N_RIGHT]].astype(np.int64).T
        return NodeTable.compiled(
            self.tree_id, self.n_nodes.tolist(), self.size, self.value.copy(), self.inner, predictor, self.left,
            self.right, left_size, right_size, head[:, THRESHOLD], categorical, codes,
        )


def grow_arrays(dataset, samples, cfg, rngs, tree_ids, group=None) -> GrownTrees:
    """Grow one tree per row multiset of ``samples`` (indices may repeat;
    repeats count), tree ``b`` drawing from ``rngs[b]`` and numbered
    ``tree_ids[b]``.  ``dataset`` and ``cfg`` are one dataset and its
    config, or equally long sequences of them, and tree ``b`` grows on
    ``dataset[group[b]]`` with ``cfg[group[b]]`` (on the first where
    ``group`` is None).  The datasets must share their rows, response and
    ``y``, and the configs may differ only in ``mtry`` and
    ``min_node_size``.

    A node is split while it holds more rows than ``min_node_size``, is
    impure, and at least one of ``mtry`` predictors sampled without
    replacement yields a valid split; the best candidate wins with ties
    resolved in favour of the earliest sampled predictor.  Nodes are
    numbered in preorder (left subtree before right).

    The trees grow in lock step, each from its own depth-first stack of
    node indices, with every node's statistics and purity found when it
    is made, and its rows kept only if it needs a search.  A step pops
    from every tree still growing up to its next node that needs a search,
    numbering the leaves on the way, and searches those nodes together
    (see :func:`_best_splits`), each tree drawing from its rng exactly as
    if grown alone.  Every right child is made, then every left one.
    Nodes and splits stay in flat arrays until the lock step ends.
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
    table = ColumnTable(*datasets)
    # the search of each table predictor, then -1, which no search takes, for the padding of `sampled`
    kinds = np.concatenate([_search_kinds(d, c) for d, c in zip(datasets, cfgs)] + [[-1]])
    p, offset = [datasets[g].n_predictors for g in group], table.offset[group].tolist()
    mtry = [cfgs[g].mtry for g in group]
    min_size = np.array([cfgs[g].min_node_size for g in group])

    # nodes are indexed in the order they are made; explicit stacks give
    # preorder without recursion-depth limits on deep, min-node-size-1
    # trees.  A stack entry holds a node's index and a copy of its rows
    # (None for a leaf; a view would keep its step's children alive).
    stacks: list[list[tuple]] = [[] for _ in samples]
    preorder: list[list[int]] = [[] for _ in samples]
    none = np.zeros(0, dtype=np.int64)
    made = []  # per step, the sizes and values of the nodes it made
    won = [(none, none, none, _splits(table, ORDERED, none, none, none))]  # per search and step: nodes, children, splits
    rows, sizes, tree = np.concatenate(samples), np.array([r.size for r in samples]), np.arange(len(samples))
    n_made = 0
    while True:
        if sizes.size:
            values, pure = _node_stats(table, rows, sizes)
            made.append((sizes, values))
            searched = ((sizes > min_size[tree]) & ~pure).tolist()
            ends = np.cumsum(sizes).tolist()
            for v, b, search, size, end in zip(range(n_made, n_made + sizes.size), tree.tolist(), searched, sizes.tolist(), ends):
                stacks[b].append((v, rows[end - size : end].copy() if search else None))
            n_made += sizes.size
        step = []  # the nodes to split: tree, index, rows
        for b, (order, stack) in enumerate(zip(preorder, stacks)):
            while stack:
                v, node_rows = stack.pop()
                order.append(v)
                if node_rows is not None:
                    step.append((b, v, node_rows))
                    break
        if not step:
            break

        at, nodes, rows_at = zip(*step)
        sampled = np.full((len(step), max(mtry[b] for b in at)), table.offset[-1])  # padding
        for i, b in enumerate(at):
            sampled[i, : mtry[b]] = rngs[b].choice(p[b], size=mtry[b], replace=False) + offset[b]
        block = NodeBlock(table, rows_at)
        pred, threshold, lut, splits = _best_splits(block, sampled, kinds, [rngs[b] for b in at], cfgs[0])
        rows, sizes = _children(block, pred, threshold, lut)
        # the nodes made next: every right child, then every left one, in node order
        split, nodes = pred >= 0, np.array(nodes)
        right, tree = n_made + np.cumsum(split) - 1, np.array(at)[split]
        won += [(nodes[i], right[i] + tree.size, right[i], best) for i, best in splits]
        tree = np.concatenate((tree, tree))

    n_nodes = [len(order) for order in preorder]
    order = np.fromiter(chain.from_iterable(preorder), np.int64, n_made)
    position = np.empty(n_made, dtype=np.int64)  # of each node in the preorder of all trees
    position[order] = np.arange(n_made)
    local = position - np.repeat(np.cumsum([0] + n_nodes[:-1]), n_nodes)[position]
    sizes, values = (np.concatenate(parts)[order] for parts in zip(*made))
    nodes, left, right, splits = zip(*won)
    nodes = position[np.concatenate(nodes)]
    ranked = np.argsort(nodes)  # the split nodes in preorder
    left, right = (local[np.concatenate(child)][ranked] for child in (left, right))
    return GrownTrees(
        cfgs[0].task, datasets[0].response.n_classes, list(tree_ids), np.array(n_nodes), sizes, values,
        nodes[ranked], left, right, Splits.concat(splits).take(ranked),
    )


def grow_trees(dataset, samples, cfg, rngs, tree_ids, group=None) -> list[dict]:
    """:func:`grow_arrays`, each tree returned in its dict form (module notes)."""
    return grow_arrays(dataset, samples, cfg, rngs, tree_ids, group).tree_dicts()


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
    (node ``v`` of tree ``b`` is ``start[b] + v``); :meth:`route` sends
    rows through them.  ``codes`` has one row per categorical node,
    indexed by level: 0 absent, 1 left, 2 present and right, 3 outside its
    1..Q.  The constructor reads the trees' dict forms, as a model dump
    holds them, and checks them; growth compiles its table from its own
    arrays instead (:meth:`GrownTrees.table`), through the same
    :meth:`_compile` step.

    The read raises ValueError naming the first defect, in tree and then
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
        local = np.arange(n) - np.repeat(np.cumsum([0] + n_nodes[:-1]), n_nodes)
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
                at = f"tree {tree} node {local[g]}"
                faults.append((order, message.format(*(f[i] for f in fields), at=at, tree=tree)))

        every = np.arange(n)
        size = _ints(map(itemgetter("size"), entries))
        fault(0, 0, every, size < 1, "{at}: size {0} is below 1", size)
        if task == REGRESSION:
            value = np.fromiter(map(float, map(itemgetter("mean"), entries)), np.float64)
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
        fault(0, 3, every, node_id != local, "tree {tree}: node {0} has id {1}", local, node_id)

        splits = list(map(itemgetter("split"), entries))
        inner = np.array([k for k, s in enumerate(splits) if s is not None], dtype=np.int64)
        splits = [splits[k] for k in inner]
        fields = ("predictor", "left", "right", "left_size", "right_size")
        predictor, left, right, left_size, right_size = (_ints(map(itemgetter(f), splits)) for f in fields)
        v, n_tree = local[inner], np.repeat(n_nodes, n_nodes)[inner]
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

        columns = np.arange(n_levels.max(initial=0) + 1)
        codes = np.where((columns >= 1) & (columns <= n_levels[:, None]), 0, 3).astype(np.int8)
        levels = np.split(level, cut)
        for k, code in ((1, 2), (0, 1)):  # present levels, then left ones
            q, at = levels[k], owners[k]
            ok = (q >= 1) & (q <= n_levels[at])  # always, once the schema checks pass
            codes[at[ok], q[ok]] = code
        threshold = np.full(inner.size, np.nan)
        threshold[ordered] = thresholds
        value = value if task == REGRESSION else counts.reshape(n, n_classes)
        self._compile(ids, n_nodes, size, value, inner, predictor, left, right, left_size, right_size, threshold, categorical, codes)

    @classmethod
    def compiled(cls, *arrays) -> NodeTable:
        """The table of checked arrays, as :meth:`_compile` takes them."""
        table = cls.__new__(cls)
        table._compile(*arrays)
        return table

    def _compile(self, ids, n_nodes, size, value, inner, predictor, left, right, left_size, right_size, threshold, categorical, codes):
        """Lay out the table of trees with ids ``ids`` and ``n_nodes`` nodes
        each, numbered in turn: per node its ``size`` and ``value``, the
        mean or the class counts; per inner node, by global id ``inner``
        (ascending), its predictor, child ids within its tree, daughter
        sizes, threshold (NaN unless ordered) and whether it is
        ``categorical``; per categorical node in turn, its row of ``codes``."""
        n = size.size
        self.start = np.cumsum([0] + n_nodes[:-1])
        # a tree's coins are keyed by its id modulo 2**64, as seeding.derive keys them
        self.tree_id = np.repeat(np.array([b % 2**64 for b in ids], dtype=np.uint64), n_nodes)
        self.local = np.arange(n) - np.repeat(self.start, n_nodes)
        v = self.local[inner]
        self.predictor, self.threshold, self.cat_row = np.full(n, -1), np.full(n, np.nan), np.full(n, -1)
        self.left, self.right = np.arange(n), np.arange(n)
        self.left_size, self.right_size = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.predictor[inner], self.threshold[inner] = predictor, threshold
        self.left[inner], self.right[inner] = inner + left - v, inner + right - v
        self.left_size[inner], self.right_size[inner] = left_size, right_size
        self.cat_row[inner[categorical]] = np.arange(codes.shape[0])
        self.codes = codes
        self.value = value
        if value.ndim == 2:  # class counts
            self.value = value / size[:, None]
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
