"""Reference implementations that the fast paths are tested against.

Growth scores its split candidates with the batched scans of
``absentrf.splits`` and prediction routes through the compiled arrays of
``absentrf.forest.predict_rows``.  The plain per-node searches and the
per-tree prediction here compute the same results one node, one
predictor or one tree at a time, and only the tests call them.
``absentrf.tree.route`` is the routing oracle; it stays in the package.

Model loading builds its node table straight from the dump form and
checks it there (``absentrf.tree.NodeTable``).  The loader here checks a
dump one node at a time while it builds ``Node`` objects, and compiles
the table by walking them.  The package keeps trees only in the dump
form; these objects exist for this oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from absentrf.data import CATEGORICAL, CLASSIFICATION, NUMERIC, REGRESSION, Dataset
from absentrf.splits import (
    EXHAUSTIVE_HARD_LIMIT,
    CandidateSplit,
    CategoricalRule,
    GammaTable,
    OrderedRule,
    _encode,
    count_partitions,
)
from absentrf.tree import GrowConfig, NodeTable, PredictionTrace, _split_entry


# ---------------------------------------------------------------------------
# node summaries


def node_mean(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean of an empty node is undefined")
    return float(arr.mean())


def class_proportions(values, n_classes: int) -> np.ndarray:
    """Class share vector (index 0 = class 1) for int labels ``1..K``."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("class proportions of an empty node are undefined")
    if arr.min() < 1 or arr.max() > n_classes:
        raise ValueError(f"class index outside 1..{n_classes}")
    counts = np.bincount(arr, minlength=n_classes + 1)[1:]
    return counts / arr.size


def gini(proportions) -> float:
    """Gini impurity ``sum_k p_k * (1 - p_k)`` of a proportion vector."""
    p = np.asarray(proportions, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty proportion vector")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError("proportions must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")
    return float(np.sum(p * (1.0 - p)))


def split_objective(task: str, left_values, right_values, n_classes: int | None = None) -> float:
    """Criterion minimised by every split search.

    Regression: total within-daughter sum of squared deviations from the
    daughter means.  Classification: daughter Gini impurities weighted
    by daughter size, divided by the mother size.
    """
    left = np.asarray(left_values)
    right = np.asarray(right_values)
    if left.size == 0 or right.size == 0:
        raise ValueError("both daughters must be non-empty")
    if task == REGRESSION:
        l = left.astype(np.float64)
        r = right.astype(np.float64)
        return float(((l - l.mean()) ** 2).sum() + ((r - r.mean()) ** 2).sum())
    if task == CLASSIFICATION:
        if not n_classes:
            raise ValueError("classification objective needs n_classes")
        gl = gini(class_proportions(left, n_classes))
        gr = gini(class_proportions(right, n_classes))
        n = left.size + right.size
        return float((left.size * gl + right.size * gr) / n)
    raise ValueError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# vectorised objective kernels (private)


def _masked_gini_objective(
    bits: np.ndarray, level_class_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-Gini objective for a batch of level bitmasks.

    ``bits`` is (M, Q) 0/1, ``level_class_counts`` is (Q, K) ints.
    Returns (objective, left_n, right_n) with ``inf`` objective where a
    present-level daughter would be empty.
    """
    lc = bits @ level_class_counts  # (M, K) ints
    tc = level_class_counts.sum(axis=0)
    rc = tc[None, :] - lc
    ln = lc.sum(axis=1)
    rn = rc.sum(axis=1)
    n = float(tc.sum())
    valid = (ln > 0) & (rn > 0)
    lnf = ln.astype(np.float64)
    rnf = rn.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = 1.0 - ((lc / lnf[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / rnf[:, None]) ** 2).sum(axis=1)
        obj = (lnf * gl + rnf * gr) / n
    obj = np.where(valid, obj, np.inf)
    return obj, ln, rn


def _mother_arrays(dataset: Dataset, rows, predictor: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty mother node")
    if dataset.y is None:
        raise ValueError("dataset has no response")
    return dataset.columns[predictor][rows], dataset.y[rows]


# ---------------------------------------------------------------------------
# ordered predictors


def best_ordered_splits(dataset: Dataset, rows, predictors) -> list[CandidateSplit | None]:
    """Best threshold split of each ordered predictor, scored in one batch.

    Row ``j`` of the (m, n) working arrays is ``predictors[j]`` stably
    sorted; the objective is evaluated only where the sorted value changes
    (cut ``c`` = left block of sorted positions 0..c).  Entry ``j`` is None
    if every value of that predictor is identical.  Ties on the objective
    keep the lowest threshold.  Regression values are centred on the
    mother mean: the objective is shift-invariant and centring keeps the
    cumulative-sum formula well conditioned.
    """
    if len(predictors) == 0:
        return []
    for p in predictors:
        spec = dataset.schema[p]
        if spec.kind != NUMERIC:
            raise ValueError(f"column {spec.name!r} is not ordered")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty mother node")
    if dataset.y is None:
        raise ValueError("dataset has no response")
    n = int(rows.size)
    if n < 2:
        return [None] * len(predictors)
    xs = np.array([dataset.columns[p][rows] for p in predictors])
    order = xs.argsort(axis=1, kind="stable")
    xs.sort(axis=1, kind="stable")  # a stable sort of the values lands them in ``order``
    ys = dataset.y[rows][order]
    r, c = (xs[:, :-1] != xs[:, 1:]).nonzero()
    nl = c + 1.0
    nr = n - nl
    if dataset.task == REGRESSION:
        # sum / n is the division ndarray.mean performs, row by row
        yc = ys - ys.sum(axis=1, keepdims=True) / n
        cs = yc.cumsum(axis=1)
        css = (yc * yc).cumsum(axis=1)
        sl, ssl = cs[r, c], css[r, c]
        st, sst = cs[:, -1][r], css[:, -1][r]
        sse_l = ssl - sl * sl / nl
        sse_r = (sst - ssl) - (st - sl) ** 2 / nr
        # tiny negatives are cancellation noise
        obj = np.maximum(sse_l, 0.0) + np.maximum(sse_r, 0.0)
    else:
        classes = np.arange(1, dataset.response.n_classes + 1)
        # (m, K, n) counts; lc rows are contiguous, so the sum over K adds
        # in the same order as a one-predictor scan would
        cum = (ys[:, None, :] == classes[:, None]).cumsum(axis=2)
        lc = cum[r, :, c].astype(np.float64)
        rc = cum[:, :, -1][r].astype(np.float64) - lc
        gl = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        obj = (nl * gl + nr * gr) / n
    full = np.full(xs.shape, np.inf)
    full[r, c] = obj
    best = full.argmin(axis=1).tolist()
    found = (xs[:, 0] != xs[:, -1]).tolist()  # a sorted row has a cut iff its ends differ
    return [
        CandidateSplit(int(p), OrderedRule(float(xs[j, k])), float(full[j, k]), k + 1, n - k - 1)
        if found[j]
        else None
        for j, (p, k) in enumerate(zip(predictors, best))
    ]


# ---------------------------------------------------------------------------
# categorical predictors: pseudo-value route


def _gamma_pass(dataset: Dataset, rows, predictor: int):
    """One counting pass over a node: its predictor and response values,
    the count of every level, the present levels (ascending), their
    pseudo values, and the same as a :class:`GammaTable`."""
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    x, y = _mother_arrays(dataset, rows, predictor)
    q = spec.n_levels
    counts = np.bincount(x, minlength=q + 1)[1:]
    levels = np.flatnonzero(counts) + 1
    if dataset.task == REGRESSION:
        sums = np.bincount(x, weights=y.astype(np.float64), minlength=q + 1)[1:]
    else:
        if dataset.response.n_classes != 2:
            raise ValueError("pseudo values are undefined for more than two classes")
        sums = np.bincount(x[y == 1], minlength=q + 1)[1:].astype(np.float64)
    gam = sums[levels - 1] / counts[levels - 1]
    present = frozenset(levels.tolist())
    values = tuple(zip(levels.tolist(), gam.tolist()))
    table = GammaTable(predictor, values, present, frozenset(range(1, q + 1)) - present)
    return x, y, counts, levels, gam, table


def pseudo_value_search(dataset: Dataset, rows, predictor: int) -> CandidateSplit | None:
    """:func:`gamma_table` followed by :func:`pseudo_value_split`, with
    one counting pass over the node instead of two."""
    return _pseudo_scan(dataset, *_gamma_pass(dataset, rows, predictor))


def _pseudo_scan(dataset: Dataset, x, y, counts, levels, gam, table: GammaTable) -> CandidateSplit | None:
    """The scan behind :func:`pseudo_value_split`, given the node's level
    counts and the pseudo values ``gam`` of its present ``levels``."""
    if levels.size < 2:
        return None
    q = counts.size
    order = np.argsort(gam, kind="stable")
    levels_sorted = levels[order]
    gam_sorted = gam[order]
    cuts = np.flatnonzero(gam_sorted[:-1] != gam_sorted[1:])
    if cuts.size == 0:
        return None  # all pseudo values equal: no bipartition can improve

    n_lvl = counts[levels_sorted - 1].astype(np.int64)
    nl = np.cumsum(n_lvl)
    if dataset.task == REGRESSION:
        yc = y - y.mean()
        s_lvl = np.bincount(x, weights=yc, minlength=q + 1)[1:][levels_sorted - 1]
        ss_lvl = np.bincount(x, weights=yc * yc, minlength=q + 1)[1:][levels_sorted - 1]
        sl = np.cumsum(s_lvl)[cuts]
        ssl = np.cumsum(ss_lvl)[cuts]
        nlc = nl[cuts].astype(np.float64)
        nrc = x.size - nlc
        st, sst = float(np.sum(s_lvl)), float(np.sum(ss_lvl))
        sse_l = ssl - sl * sl / nlc
        sse_r = (sst - ssl) - (st - sl) ** 2 / nrc
        obj = np.maximum(sse_l, 0.0) + np.maximum(sse_r, 0.0)
    else:
        k = dataset.response.n_classes
        lvl_cc = np.zeros((q + 1, k + 1), dtype=np.int64)
        np.add.at(lvl_cc, (x, y), 1)
        cc_sorted = lvl_cc[levels_sorted, 1:]
        cum = np.cumsum(cc_sorted, axis=0).astype(np.float64)
        lc = cum[cuts]
        rc = cum[-1][None, :] - lc
        nlc = nl[cuts].astype(np.float64)
        nrc = x.size - nlc
        gl = 1.0 - ((lc / nlc[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / nrc[:, None]) ** 2).sum(axis=1)
        obj = (nlc * gl + nrc * gr) / x.size

    i = int(np.argmin(obj))
    c = int(cuts[i])
    pseudo_split = float(gam_sorted[c])
    left = frozenset(int(v) for v in levels_sorted[: c + 1])
    rule = CategoricalRule(
        left_levels=left,
        present=table.present,
        absent=table.absent,
        bitmask=_encode(left),
        pseudo_split=pseudo_split,
        gamma=table.values,
    )
    return CandidateSplit(
        predictor=table.predictor,
        rule=rule,
        impurity=float(obj[i]),
        left_size=int(nl[c]),
        right_size=int(x.size - nl[c]),
    )


# ---------------------------------------------------------------------------
# categorical predictors: bitmask routes


def _bitmask_split(
    dataset: Dataset, rows, predictor: int, search: str, draw
) -> CandidateSplit | None:
    """The search behind both bitmask front ends: check the column and the
    rows, score the (M, Q) 0/1 candidates ``draw(Q)`` on the present
    levels with :func:`_masked_gini_objective`, and keep the first strict
    optimum in row order.  The rule's bitmask is the winning row,
    absent-level bits included."""
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    if dataset.task != CLASSIFICATION:
        raise ValueError(f"{search} bitmask search applies to classification splits")
    x, y = _mother_arrays(dataset, rows, predictor)
    q, k = spec.n_levels, dataset.response.n_classes
    bits = draw(q)
    counts = np.bincount(x * (k + 1) + y, minlength=(q + 1) * (k + 1)).reshape(q + 1, k + 1)[1:, 1:]
    present = np.flatnonzero(counts.sum(axis=1))
    if present.size < 2:
        return None  # every candidate leaves a daughter empty
    # absent levels hold no rows, so their bits change no candidate's score
    obj, ln, rn = _masked_gini_objective(bits[:, present], counts[present])
    i = int(np.argmin(obj))
    if not np.isfinite(obj[i]):
        return None
    levels = frozenset((present + 1).tolist())
    rule = CategoricalRule(
        left_levels=frozenset((present[bits[i, present] == 1] + 1).tolist()),
        present=levels,
        absent=frozenset(range(1, q + 1)) - levels,
        bitmask=_encode((np.flatnonzero(bits[i]) + 1).tolist()),
    )
    return CandidateSplit(predictor, rule, float(obj[i]), int(ln[i]), int(rn[i]))


def exhaustive_categorical_split(
    dataset: Dataset, rows, predictor: int, limit: int = EXHAUSTIVE_HARD_LIMIT
) -> CandidateSplit | None:
    """Enumerate every level bipartition of a categorical predictor.

    Classification only.  Encodings ``1 .. 2**(Q-1) - 1`` are scored in
    increasing order and the first minimum wins, so among tied optima
    the smallest encoding wins -- which is the one sending every absent
    level (and level ``Q``) right.
    Raises when ``Q`` exceeds ``limit``; use the random search instead.
    """

    def every_encoding(q: int) -> np.ndarray:
        if q > limit or q > EXHAUSTIVE_HARD_LIMIT:
            raise ValueError(
                f"{count_partitions(q)} bipartitions of {q} levels exceed the exhaustive "
                f"limit ({min(limit, EXHAUSTIVE_HARD_LIMIT)} levels); use random_categorical_split"
            )
        # at most 2**15 - 1 masks, scored in one call
        masks = np.arange(1, 1 << (q - 1), dtype=np.int64)
        return (masks[:, None] >> np.arange(q, dtype=np.int64)) & 1

    return _bitmask_split(dataset, rows, predictor, "exhaustive", every_encoding)


def random_categorical_split(
    dataset: Dataset, rows, predictor: int, rng: np.random.Generator, n_candidates: int = 1024
) -> CandidateSplit | None:
    """Random bitmask search for high-cardinality categorical predictors.

    Draws ``n_candidates`` masks with every one of the ``Q`` bits an
    independent fair coin (absent levels included), discards draws that
    leave a present-level daughter empty, and keeps the first strict
    optimum in draw order.  Returns None when no draw is valid.  The
    bits come from numpy's own ``rng.integers``, not from the package's
    ``splits.random_bitmasks``, so the package is checked against numpy.
    """

    def draw(q: int) -> np.ndarray:
        return rng.integers(0, 2, size=(n_candidates, q), dtype=np.int64)

    return _bitmask_split(dataset, rows, predictor, "random", draw)


# ---------------------------------------------------------------------------
# growth, one node at a time


def _node_search(dataset: Dataset, cfg: GrowConfig, rows, predictor: int, rng) -> CandidateSplit | None:
    """The split search that growth runs on a predictor: ordered for a
    numeric column; for a categorical one the pseudo-value scan under
    regression or above the binary exhaustive limit, else the exhaustive
    search up to the task's limit and the random search above it."""
    spec, k = dataset.schema[predictor], dataset.response.n_classes
    if spec.kind == NUMERIC:
        return best_ordered_splits(dataset, rows, [predictor])[0]
    if cfg.task == REGRESSION or (k == 2 and spec.n_levels > cfg.exhaustive_max_q_binary):
        return pseudo_value_search(dataset, rows, predictor)
    limit = cfg.exhaustive_max_q_binary if k == 2 else cfg.exhaustive_max_q_multiclass
    if spec.n_levels <= limit:
        return exhaustive_categorical_split(dataset, rows, predictor, limit)
    return random_categorical_split(dataset, rows, predictor, rng, cfg.random_candidates)


def grow_tree_recursively(dataset: Dataset, rows, cfg: GrowConfig, rng, tree_id: int = 0) -> dict:
    """Grow one tree by plain preorder recursion, in the dict form that
    ``absentrf.tree.grow_trees`` returns.  A node with more rows than
    ``min_node_size`` and more than one response value draws ``mtry``
    predictors with ``rng.choice``, searches them in that order and keeps
    the first strictly lowest objective; its left subtree is grown before
    its right one."""
    k = dataset.response.n_classes
    nodes: list[dict] = []

    def grow(rows: np.ndarray) -> int:
        y = dataset.y[rows]
        node = {"id": len(nodes), "size": int(rows.size), "split": None}
        if dataset.task == REGRESSION:
            node["mean"] = node_mean(y)
        else:
            node["class_counts"] = np.bincount(y, minlength=k + 1)[1:].tolist()
        nodes.append(node)
        if rows.size <= cfg.min_node_size or y.min() == y.max():
            return node["id"]
        best = None
        for j in rng.choice(dataset.n_predictors, cfg.mtry, replace=False).tolist():
            found = _node_search(dataset, cfg, rows, j, rng)
            if found is not None and (best is None or found.impurity < best.impurity):
                best = found
        if best is not None:
            node["split"] = split = _split_entry(best)
            x = dataset.columns[best.predictor][rows]
            rule = best.rule
            left = x <= rule.threshold if isinstance(rule, OrderedRule) else np.isin(x, list(rule.left_levels))
            split["left"], split["right"] = grow(rows[left]), grow(rows[~left])
        return node["id"]

    grow(np.asarray(rows, dtype=np.int64))
    return {"tree_id": tree_id, "task": cfg.task, "n_classes": k, "nodes": nodes}


# ---------------------------------------------------------------------------
# prediction from a routing trace


def tree_predict(trace: PredictionTrace, tree: dict):
    """Collapse a trace through ``tree`` (its dict form) into a
    prediction: the weight-averaged node mean for regression, or the
    weight-averaged class-share vector for classification."""
    nodes = tree["nodes"]
    if tree["task"] == REGRESSION:
        return float(sum(w * nodes[nid]["mean"] for nid, w in trace.entries))
    scores = np.zeros(tree["n_classes"])
    for nid, w in trace.entries:
        node = nodes[nid]
        scores += w * (np.asarray(node["class_counts"], dtype=np.float64) / node["size"])
    return scores


def tree_vote(trace: PredictionTrace, tree: dict) -> int:
    """The tree's single-class vote (1-based; ties to the lowest class)."""
    scores = tree_predict(trace, tree)
    return int(np.argmax(scores)) + 1


# ---------------------------------------------------------------------------
# model loading: checks made node by node, and the table compiled by a walk


@dataclass(frozen=True)
class NodeStats:
    """Training summary of one node's row multiset."""

    size: int
    mean: float | None = None
    class_counts: tuple[int, ...] | None = None


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


def checked_tree_from_dict(obj: dict) -> Tree:
    """Rebuild a tree from its dict form, raising ValueError on
    the first defect that ``NodeTable`` names, and KeyError or TypeError
    on a missing key or a wrong type."""
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


def check_splits(tree: Tree, schema) -> None:
    """Raise ValueError unless every split of ``tree`` fits ``schema``:
    the predictor exists, the rule kind matches the column kind, and a
    categorical split's present and absent levels cover 1..Q."""
    levels = [frozenset(range(1, spec.n_levels + 1)) if spec.kind == CATEGORICAL else None for spec in schema]
    for node in tree.nodes:
        if node.is_leaf:
            continue
        where = f"tree {tree.tree_id} node {node.id}"
        if not 0 <= node.predictor < len(schema):
            raise ValueError(f"{where}: predictor {node.predictor} is outside the schema")
        spec = schema[node.predictor]
        if isinstance(node.rule, OrderedRule) != (spec.kind == NUMERIC):
            raise ValueError(f"{where}: rule does not fit {spec.kind} column {spec.name!r}")
        if spec.kind == CATEGORICAL and node.rule.present | node.rule.absent != levels[node.predictor]:
            raise ValueError(
                f"{where}: present and absent levels do not cover "
                f"1..{spec.n_levels} of {spec.name!r}"
            )


def checked_trees(trees: list[dict], schema) -> list[Tree]:
    """Every tree of a dump's ``trees`` rebuilt and checked, then every
    split checked against ``schema``; KeyError and TypeError become the
    ValueError that ``forest_from_dict`` raises for them."""
    try:
        out = [checked_tree_from_dict(t) for t in trees]
    except KeyError as exc:
        raise ValueError(f"malformed model dump: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed model dump: {exc}") from exc
    for tree in out:
        check_splits(tree, schema)
    return out


def walk_table(trees: list[Tree]) -> NodeTable:
    """A ``NodeTable`` whose arrays are compiled by walking the nodes of
    ``trees``, not built from their dump form by its constructor."""
    c = object.__new__(NodeTable)
    nodes = [node for tree in trees for node in tree.nodes]
    n, n_nodes = len(nodes), [len(tree.nodes) for tree in trees]
    c.start = np.cumsum([0] + n_nodes[:-1])
    offset = np.repeat(c.start, n_nodes)
    c.tree_id = np.repeat(np.array([tree.tree_id % 2**64 for tree in trees], dtype=np.uint64), n_nodes)
    c.local = np.arange(n) - offset
    c.predictor, c.threshold, c.cat_row = np.full(n, -1), np.full(n, np.nan), np.full(n, -1)
    c.left, c.right = np.arange(n), np.arange(n)
    c.left_size, c.right_size = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    cats = [k for k, node in enumerate(nodes) if isinstance(node.rule, CategoricalRule)]
    width = max((nodes[k].rule.n_levels for k in cats), default=0) + 1
    c.codes = np.full((len(cats), width), 3, dtype=np.int8)
    c.cat_row[cats] = np.arange(len(cats))
    for k, node in enumerate(nodes):
        if node.is_leaf:
            continue
        c.predictor[k] = node.predictor
        c.left[k], c.right[k] = offset[k] + node.left, offset[k] + node.right
        c.left_size[k], c.right_size[k] = node.left_size, node.right_size
        if isinstance(node.rule, OrderedRule):
            c.threshold[k] = node.rule.threshold
        else:
            row = c.codes[c.cat_row[k]]
            row[1 : node.rule.n_levels + 1] = 0
            row[list(node.rule.present)] = 2
            row[list(node.rule.left_levels)] = 1
    if trees[0].task == REGRESSION:
        c.value = np.fromiter((node.stats.mean for node in nodes), np.float64, n)
    else:
        counts = np.array([node.stats.class_counts for node in nodes], dtype=np.float64)
        c.value = counts / np.array([node.stats.size for node in nodes])[:, None]
        c.vote = np.argmax(c.value, axis=1) + 1
    return c
