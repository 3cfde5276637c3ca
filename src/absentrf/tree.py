"""CART-style trees: growth, observation routing, and serialization.

Growth follows the classic recipe -- recursive binary splitting of a
row multiset, minimising squared error (regression) or size-weighted
Gini impurity (classification) -- with the categorical search method
chosen per predictor from the cardinality and task, matching the
long-standing library defaults: regression always uses the pseudo-value
scan; binary classification enumerates bitmasks up to 10 levels and
falls back to the pseudo-value scan above that; multiclass enumerates
below 10 levels and uses the random bitmask search otherwise.

Routing is where the absent-level heuristics plug in: a categorical
rule answers directly for levels that were present when it was learned
and defers to the heuristic for the rest.  A trace records every node
the observation reached with its weight (forks under DBI carry
fractional weight), whether any absent level was encountered, and the
direction taken at each such event.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .data import CATEGORICAL, CLASSIFICATION, NUMERIC, REGRESSION, Dataset
from .heuristics import Heuristic, RoutingContext, resolve
from .seeding import Coins
from .splits import (
    EXHAUSTIVE_HARD_LIMIT,
    CategoricalRule,
    ColumnTable,
    NodeBlock,
    OrderedRule,
    bitmask_batch,
    ordered_split_batch,
    pseudo_value_batch,
)


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
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.mtry < 1:
            raise ValueError("mtry must be at least 1")
        if self.min_node_size < 1:
            raise ValueError("min_node_size must be at least 1")
        if self.random_candidates < 1:
            raise ValueError("random_candidates must be at least 1")
        for name in ("exhaustive_max_q_binary", "exhaustive_max_q_multiclass"):
            if getattr(self, name) > EXHAUSTIVE_HARD_LIMIT:
                raise ValueError(f"{name} may not exceed {EXHAUSTIVE_HARD_LIMIT}")


@dataclass(frozen=True)
class NodeStats:
    """Training summary of one node's row multiset."""

    size: int
    mean: float | None = None
    class_counts: tuple[int, ...] | None = None

    @property
    def proportions(self) -> np.ndarray:
        if self.class_counts is None:
            raise ValueError("regression node has no class proportions")
        return np.asarray(self.class_counts, dtype=np.float64) / self.size

    @property
    def majority(self) -> int:
        """Most frequent class (1-based); ties go to the lowest index."""
        if self.class_counts is None:
            raise ValueError("regression node has no majority class")
        return int(np.argmax(self.class_counts)) + 1


@dataclass
class Node:
    id: int
    stats: NodeStats
    predictor: int | None = None
    rule: OrderedRule | CategoricalRule | None = None
    left: int | None = None
    right: int | None = None
    left_size: int = 0
    right_size: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


@dataclass
class Tree:
    task: str
    n_classes: int
    nodes: list[Node] = field(default_factory=list)
    tree_id: int = 0

    @property
    def root(self) -> Node:
        return self.nodes[0]


def _node_stats(block: NodeBlock) -> tuple[list[NodeStats], list[bool]]:
    """Stats of every node of ``block``, and whether each is pure (one
    class, or one response value)."""
    dataset, sizes = block.table.dataset, block.sizes
    if dataset.task == REGRESSION:
        y = dataset.y[block.flat]
        starts = np.cumsum(sizes) - sizes
        pure = np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)
        stats = [NodeStats(size=s, mean=mu) for s, mu in zip(sizes.tolist(), block.mean.tolist())]
        return stats, pure.tolist()
    k = dataset.response.n_classes
    bins = block.y + (np.arange(sizes.size) * (k + 1))[:, None]  # padding in class 0
    counts = np.bincount(bins.ravel(), minlength=sizes.size * (k + 1)).reshape(-1, k + 1)[:, 1:]
    stats = [NodeStats(size=s, class_counts=tuple(c)) for s, c in zip(sizes.tolist(), counts.tolist())]
    return stats, (counts.max(axis=1) == sizes).tolist()


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


def _best_splits(block: NodeBlock, at: np.ndarray, sampled: np.ndarray, kinds, rngs, cfg: GrowConfig):
    """The winning split of each node ``at[r]`` of ``block`` over its
    sampled predictors ``sampled[r]`` (None where none is valid), scanning
    them in sampled order and keeping the first strictly lowest objective.

    The pairs of each search kind are scored in one batched call, and only
    the winners are built into splits.  The random search takes its pairs
    in (node, sampled rank) order, each drawing from its node's
    ``rngs[r]``.
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
        node, pred = at[r], sampled[r, c]
        if search == ORDERED:
            scan = ordered_split_batch(block, node, pred)
        elif search == PSEUDO:
            scan = pseudo_value_batch(block, node, pred)
        else:
            draw_from = [rngs[i] for i in r.tolist()] if search == RANDOM else None
            scan = bitmask_batch(block, node, pred, draw_from, cfg.random_candidates, limit)
        impurity[r, c], valid[r, c], scans[search] = scan
        pair[r, c] = np.arange(r.size)

    out = []
    for r, (c, has) in enumerate(zip(_first_best(impurity, valid).tolist(), valid.any(axis=1).tolist())):
        out.append(scans[kind[r, c]](int(pair[r, c])) if has else None)
    return out


def grow_trees(dataset: Dataset, samples, cfg: GrowConfig, rngs, tree_ids) -> list[Tree]:
    """Grow one tree per row multiset of ``samples`` (indices may repeat;
    repeats count), tree ``b`` drawing from ``rngs[b]`` and numbered
    ``tree_ids[b]``.

    A node is split while it holds more rows than ``min_node_size``, is
    impure, and at least one of ``mtry`` predictors sampled without
    replacement yields a valid split; the best candidate wins with ties
    resolved in favour of the earliest sampled predictor.  Nodes are
    numbered in preorder (left subtree before right).

    The trees grow in lock step, each from its own depth-first stack:
    every step takes the next node of every tree still growing and
    searches all their splits together (see :func:`_best_splits`).  Each
    tree draws from its rng exactly as if it were grown alone.
    """
    samples = [np.asarray(rows, dtype=np.int64) for rows in samples]
    if any(rows.size == 0 for rows in samples):
        raise ValueError("cannot grow a tree on an empty row multiset")
    if cfg.task != dataset.task:
        raise ValueError(f"config task {cfg.task!r} does not match dataset task {dataset.task!r}")
    p = dataset.n_predictors
    if cfg.mtry > p:
        raise ValueError(f"mtry={cfg.mtry} exceeds the {p} available predictors")
    if dataset.y is None:
        raise ValueError("dataset has no response")
    trees = [Tree(task=cfg.task, n_classes=dataset.response.n_classes, tree_id=b) for b in tree_ids]
    table = ColumnTable(dataset)
    kinds = _search_kinds(dataset, cfg)

    # explicit stacks (right child pushed first) give preorder ids
    # without recursion-depth limits on deep, min-node-size-1 trees
    stacks: list[list[tuple[np.ndarray, int | None, str]]] = [[(rows, None, "")] for rows in samples]
    while any(stacks):
        popped = [(tree, rng, stack, *stack.pop()) for tree, rng, stack in zip(trees, rngs, stacks) if stack]
        block = NodeBlock(table, [entry[3] for entry in popped])
        step, sampled = [], []  # the nodes to split: block index, rng, stack, node, rows
        for i, ((tree, rng, stack, node_rows, parent, side), stats, pure) in enumerate(
            zip(popped, *_node_stats(block))
        ):
            node = Node(id=len(tree.nodes), stats=stats)
            tree.nodes.append(node)
            if parent is not None:
                if side == "L":
                    tree.nodes[parent].left = node.id
                else:
                    tree.nodes[parent].right = node.id
            if stats.size > cfg.min_node_size and not pure:
                sampled.append(rng.choice(p, size=cfg.mtry, replace=False))
                step.append((i, rng, stack, node, node_rows))
        if not step:
            continue

        at, rngs_at, _, _, _ = zip(*step)
        splits = _best_splits(block, np.array(at), np.array(sampled), kinds, rngs_at, cfg)
        for (_, _, stack, node, node_rows), best in zip(step, splits):
            if best is None:
                continue
            node.predictor = best.predictor
            node.rule = best.rule
            node.left_size = best.left_size
            node.right_size = best.right_size
            x = dataset.columns[best.predictor][node_rows]
            if isinstance(best.rule, OrderedRule):
                mask = x <= best.rule.threshold
            else:
                lut = np.zeros(dataset.schema[best.predictor].n_levels + 1, dtype=bool)
                lut[list(best.rule.left_levels)] = True
                mask = lut[x]
            stack.append((node_rows[~mask], node.id, "R"))
            stack.append((node_rows[mask], node.id, "L"))
    return trees


def grow_tree(
    dataset: Dataset, rows, cfg: GrowConfig, rng: np.random.Generator, tree_id: int = 0
) -> Tree:
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
    tree: Tree,
    x,
    policy: Heuristic,
    coins: Coins | None = None,
    obs_id: int = 0,
) -> PredictionTrace:
    """Send one predictor vector down the tree under a routing policy.

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
        node = tree.nodes[node_id]
        if node.is_leaf:
            entries.append((node_id, weight))
            continue
        value = x[node.predictor]
        rule = node.rule
        if isinstance(rule, OrderedRule):
            stack.append((node.left, weight) if value <= rule.threshold else (node.right, weight))
            continue
        level = int(value)
        if level != value or level < 1 or level > rule.n_levels:
            raise ValueError(
                f"value {value!r} of predictor {node.predictor} is outside the "
                f"declared levels 1..{rule.n_levels}"
            )
        if level in rule.left_levels:
            stack.append((node.left, weight))
            continue
        if level in rule.present:
            stack.append((node.right, weight))
            continue
        # the split has never seen this level: ask the policy
        absent = True
        if coins is not None:
            def coin(node_id=node_id):
                return coins.uniform(tree.tree_id, node_id, obs_id)
        else:
            def coin():
                raise ValueError(f"{policy.token} routing needs a Coins source")
        outcome = resolve(policy, RoutingContext(node_id, node.left_size, node.right_size), coin)
        resolutions.append((node_id, outcome.kind))
        if outcome.kind == "left":
            stack.append((node.left, weight))
        elif outcome.kind == "right":
            stack.append((node.right, weight))
        elif outcome.kind == "stop":
            entries.append((node_id, weight))
        else:  # weighted fork
            stack.append((node.right, weight * outcome.w_right))
            stack.append((node.left, weight * outcome.w_left))
    return PredictionTrace(tuple(entries), absent, tuple(resolutions))


# ---------------------------------------------------------------------------
# serialization and hashing


def _rule_to_dict(node: Node) -> dict | None:
    if node.is_leaf:
        return None
    rule = node.rule
    out = {
        "predictor": node.predictor,
        "left": node.left,
        "right": node.right,
        "left_size": node.left_size,
        "right_size": node.right_size,
    }
    if isinstance(rule, OrderedRule):
        out["kind"] = "ordered"
        out["threshold"] = rule.threshold
    else:
        out["kind"] = "categorical"
        out["left_levels"] = sorted(rule.left_levels)
        out["present"] = sorted(rule.present)
        out["absent"] = sorted(rule.absent)
        out["bitmask"] = rule.bitmask
        out["pseudo_split"] = rule.pseudo_split
        out["gamma"] = None if rule.gamma is None else [[q, g] for q, g in rule.gamma]
    return out


def tree_to_dict(tree: Tree) -> dict:
    nodes = []
    for node in tree.nodes:
        entry: dict = {"id": node.id, "size": node.stats.size}
        if tree.task == REGRESSION:
            entry["mean"] = node.stats.mean
        else:
            entry["class_counts"] = list(node.stats.class_counts)
        entry["split"] = _rule_to_dict(node)
        nodes.append(entry)
    return {"tree_id": tree.tree_id, "task": tree.task, "n_classes": tree.n_classes, "nodes": nodes}


def tree_from_dict(obj: dict) -> Tree:
    """Rebuild a tree from :func:`tree_to_dict` output.

    Raises ValueError unless the node ids run 0..n-1 in order, every
    node's size is at least 1, every child id lies strictly between its
    parent's id and n (preorder, so routing cannot loop), every split's
    daughter sizes are at least 1 and equal its children's sizes (the
    majority, random and DBI policies read them), classification nodes
    count every class with counts >= 0 summing to the node's size (votes
    are shares of it), and each categorical split keeps its present and
    absent levels apart and sends only present levels left.  A missing
    key or a wrong type surfaces as KeyError or TypeError;
    :func:`forest_from_dict` turns those into ValueError too.
    """
    tree = Tree(task=obj["task"], n_classes=int(obj["n_classes"]), tree_id=int(obj["tree_id"]))
    entries = obj["nodes"]
    if not entries:
        raise ValueError(f"tree {tree.tree_id} has no nodes")
    for position, entry in enumerate(entries):
        size = int(entry["size"])
        if size < 1:
            raise ValueError(f"tree {tree.tree_id} node {position}: size {size} is below 1")
        if tree.task == REGRESSION:
            stats = NodeStats(size=size, mean=float(entry["mean"]))
        else:
            stats = NodeStats(size=size, class_counts=tuple(map(int, entry["class_counts"])))
            if len(stats.class_counts) != tree.n_classes:
                raise ValueError(
                    f"tree {tree.tree_id} node {position}: {len(stats.class_counts)} "
                    f"class counts for {tree.n_classes} classes"
                )
            if min(stats.class_counts) < 0 or sum(stats.class_counts) != size:
                raise ValueError(
                    f"tree {tree.tree_id} node {position}: class counts {list(stats.class_counts)} "
                    f"are not counts >= 0 summing to the node size {size}"
                )
        node = Node(id=int(entry["id"]), stats=stats)
        if node.id != position:
            raise ValueError(f"tree {tree.tree_id}: node {position} has id {node.id}")
        split = entry["split"]
        if split is not None:
            node.predictor = int(split["predictor"])
            node.left = int(split["left"])
            node.right = int(split["right"])
            node.left_size = int(split["left_size"])
            node.right_size = int(split["right_size"])
            for child in (node.left, node.right):
                if not node.id < child < len(entries):
                    raise ValueError(
                        f"tree {tree.tree_id} node {node.id}: child id {child} is not "
                        f"between {node.id} and {len(entries)}"
                    )
            if split["kind"] == "ordered":
                node.rule = OrderedRule(threshold=float(split["threshold"]))
            elif split["kind"] == "categorical":
                node.rule = CategoricalRule(
                    left_levels=frozenset(map(int, split["left_levels"])),
                    present=frozenset(map(int, split["present"])),
                    absent=frozenset(map(int, split["absent"])),
                    bitmask=int(split["bitmask"]),
                    pseudo_split=None
                    if split["pseudo_split"] is None
                    else float(split["pseudo_split"]),
                    gamma=None
                    if split["gamma"] is None
                    else tuple((int(q), float(g)) for q, g in split["gamma"]),
                )
                rule = node.rule
                if rule.present & rule.absent or not rule.left_levels <= rule.present:
                    raise ValueError(
                        f"tree {tree.tree_id} node {node.id}: present and absent levels "
                        "overlap, or a left level is not present"
                    )
            else:
                raise ValueError(
                    f"tree {tree.tree_id} node {node.id}: unknown split kind {split['kind']!r}"
                )
        tree.nodes.append(node)
    for node in tree.nodes:
        if node.is_leaf:
            continue
        for side, size, child in (("left", node.left_size, node.left), ("right", node.right_size, node.right)):
            where = f"tree {tree.tree_id} node {node.id}"
            if size < 1:
                raise ValueError(f"{where}: {side}_size {size} is below 1")
            if size != tree.nodes[child].stats.size:
                raise ValueError(
                    f"{where}: {side}_size {size} differs from the size "
                    f"{tree.nodes[child].stats.size} of child {child}"
                )
    return tree


def structure_hash(tree: Tree) -> str:
    """Digest over topology, rules, and node stats.

    Identical growth inputs give identical digests; the tree's position
    in a forest (``tree_id``) is deliberately excluded.
    """
    obj = tree_to_dict(tree)
    obj.pop("tree_id")
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
