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
    CandidateSplit,
    CategoricalRule,
    OrderedRule,
    best_ordered_splits,
    exhaustive_categorical_split,
    pseudo_value_search,
    random_categorical_split,
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


def _stats_for(y: np.ndarray, task: str, n_classes: int) -> NodeStats:
    if task == REGRESSION:
        return NodeStats(size=int(y.size), mean=float(y.mean()))
    counts = np.bincount(y, minlength=n_classes + 1)[1:]
    return NodeStats(size=int(y.size), class_counts=tuple(int(c) for c in counts))


def _is_pure(y: np.ndarray) -> bool:
    # one class, or zero regression variance
    return bool(np.all(y == y[0]))


def _search_predictor(
    dataset: Dataset, rows: np.ndarray, predictor: int, cfg: GrowConfig, rng: np.random.Generator
) -> CandidateSplit | None:
    """Best split of one categorical predictor by the task's method."""
    q = dataset.schema[predictor].n_levels
    if cfg.task == REGRESSION:
        return pseudo_value_search(dataset, rows, predictor)
    if dataset.response.n_classes == 2:
        if q <= cfg.exhaustive_max_q_binary:
            return exhaustive_categorical_split(dataset, rows, predictor, cfg.exhaustive_max_q_binary)
        return pseudo_value_search(dataset, rows, predictor)
    if q <= cfg.exhaustive_max_q_multiclass:
        return exhaustive_categorical_split(dataset, rows, predictor, cfg.exhaustive_max_q_multiclass)
    return random_categorical_split(dataset, rows, predictor, rng, cfg.random_candidates)


def grow_tree(
    dataset: Dataset, rows, cfg: GrowConfig, rng: np.random.Generator, tree_id: int = 0
) -> Tree:
    """Grow one tree on a row multiset (indices may repeat; repeats count).

    A node is split while it holds more rows than ``min_node_size``, is
    impure, and at least one of ``mtry`` predictors sampled without
    replacement yields a valid split; the best candidate wins with ties
    resolved in favour of the earliest sampled predictor.  Nodes are
    numbered in preorder (left subtree before right).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot grow a tree on an empty row multiset")
    if cfg.task != dataset.task:
        raise ValueError(f"config task {cfg.task!r} does not match dataset task {dataset.task!r}")
    p = dataset.n_predictors
    if cfg.mtry > p:
        raise ValueError(f"mtry={cfg.mtry} exceeds the {p} available predictors")
    if dataset.y is None:
        raise ValueError("dataset has no response")
    n_classes = dataset.response.n_classes
    tree = Tree(task=cfg.task, n_classes=n_classes, tree_id=tree_id)

    # explicit stack (right child pushed first) gives preorder ids
    # without recursion-depth limits on deep, min-node-size-1 trees
    stack: list[tuple[np.ndarray, int | None, str]] = [(rows, None, "")]
    while stack:
        node_rows, parent, side = stack.pop()
        y = dataset.y[node_rows]
        node = Node(id=len(tree.nodes), stats=_stats_for(y, cfg.task, n_classes))
        tree.nodes.append(node)
        if parent is not None:
            if side == "L":
                tree.nodes[parent].left = node.id
            else:
                tree.nodes[parent].right = node.id

        if node.stats.size <= cfg.min_node_size or _is_pure(y):
            continue
        sampled = rng.choice(p, size=cfg.mtry, replace=False).tolist()
        # ordered predictors are scored together; categorical ones are
        # searched in sampled order, keeping the random search's rng stream
        numeric = [j for j in sampled if dataset.schema[j].kind == NUMERIC]
        ordered = dict(zip(numeric, best_ordered_splits(dataset, node_rows, numeric)))
        best: CandidateSplit | None = None
        for predictor in sampled:
            if predictor in ordered:
                cand = ordered[predictor]
            else:
                cand = _search_predictor(dataset, node_rows, predictor, cfg, rng)
            if cand is not None and (best is None or cand.impurity < best.impurity):
                best = cand
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
    return tree


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


def tree_predict(trace: PredictionTrace, tree: Tree):
    """Collapse a trace into a prediction: the weight-averaged node mean
    for regression, or the weight-averaged class-share vector for
    classification."""
    if tree.task == REGRESSION:
        return float(sum(w * tree.nodes[nid].stats.mean for nid, w in trace.entries))
    scores = np.zeros(tree.n_classes)
    for nid, w in trace.entries:
        scores += w * tree.nodes[nid].stats.proportions
    return scores


def tree_vote(trace: PredictionTrace, tree: Tree) -> int:
    """The tree's single-class vote (1-based; ties to the lowest class)."""
    scores = tree_predict(trace, tree)
    return int(np.argmax(scores)) + 1


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
    child id lies strictly between its parent's id and n (preorder, so
    routing cannot loop), classification nodes count every class, and
    each categorical split keeps its present and absent levels apart and
    sends only present levels left.  A missing key or a wrong type
    surfaces as KeyError or TypeError; :func:`forest_from_dict` turns
    those into ValueError too.
    """
    tree = Tree(task=obj["task"], n_classes=int(obj["n_classes"]), tree_id=int(obj["tree_id"]))
    entries = obj["nodes"]
    if not entries:
        raise ValueError(f"tree {tree.tree_id} has no nodes")
    for position, entry in enumerate(entries):
        if tree.task == REGRESSION:
            stats = NodeStats(size=int(entry["size"]), mean=float(entry["mean"]))
        else:
            stats = NodeStats(
                size=int(entry["size"]),
                class_counts=tuple(int(c) for c in entry["class_counts"]),
            )
            if len(stats.class_counts) != tree.n_classes:
                raise ValueError(
                    f"tree {tree.tree_id} node {position}: {len(stats.class_counts)} "
                    f"class counts for {tree.n_classes} classes"
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
                    left_levels=frozenset(int(q) for q in split["left_levels"]),
                    present=frozenset(int(q) for q in split["present"]),
                    absent=frozenset(int(q) for q in split["absent"]),
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
