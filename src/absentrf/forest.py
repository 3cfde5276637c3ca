"""Bootstrap ensembles of trees with out-of-bag bookkeeping.

Training is embarrassingly parallel *by construction*: every tree's
bootstrap draw and growth rng come from seeds derived independently of
the other trees, so the same forest materialises whether trees are
grown serially or across any number of worker processes.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .data import (
    CATEGORICAL,
    CLASSIFICATION,
    NUMERIC,
    REGRESSION,
    ColumnSchema,
    Dataset,
    ResponseSpec,
    schema_from_dict,
    schema_to_dict,
)
from .heuristics import Heuristic
from .seeding import BOOTSTRAP, COIN, TREE, Coins, derive, stream
from .splits import CategoricalRule, OrderedRule
from .tree import GrowConfig, Tree, grow_trees, structure_hash, tree_from_dict, tree_to_dict

FOREST_FORMAT = "absentrf-forest"
FOREST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ForestConfig:
    """Ensemble knobs.  ``sample_size`` defaults to the training-set
    size and ``grow`` to task-standard settings (see
    :func:`default_grow_config`) when left as None."""

    n_trees: int = 500
    sample_size: int | None = None
    seed: int = 0
    grow: GrowConfig | None = None

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("a forest needs at least one tree")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError("sample_size must be positive")


def default_grow_config(dataset: Dataset) -> GrowConfig:
    """Task-standard growth defaults: regression samples ``max(1, P//3)``
    predictors per node and stops at 5 rows; classification samples
    ``floor(sqrt(P))`` and grows to purity."""
    p = dataset.n_predictors
    if dataset.task == REGRESSION:
        return GrowConfig(task=REGRESSION, mtry=max(1, p // 3), min_node_size=5)
    return GrowConfig(task=CLASSIFICATION, mtry=max(1, int(math.isqrt(p))), min_node_size=1)


def _grow_settings(dataset: Dataset, settings: dict) -> GrowConfig:
    """:func:`default_grow_config` of ``dataset`` with every setting in
    ``settings`` that is not None put in: a value that was set holds for
    any dataset, an unset one defaults from that dataset's predictors."""
    return dataclasses.replace(
        default_grow_config(dataset), **{k: v for k, v in settings.items() if v is not None}
    )


def bootstrap_sample(n_rows: int, sample_size: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_size`` draws with replacement from ``0..n_rows-1``."""
    if n_rows < 1 or sample_size < 1:
        raise ValueError("bootstrap needs at least one row and one draw")
    return rng.integers(0, n_rows, size=sample_size)


@dataclass
class Forest:
    trees: list[Tree]
    in_bag: np.ndarray  # (B, N) multiplicity counts
    config: ForestConfig  # with sample_size and grow resolved
    fingerprint: str
    task: str
    n_classes: int
    schema: tuple[ColumnSchema, ...]
    response: ResponseSpec

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _grow_task(
    dataset: Dataset, grow_cfg: GrowConfig, chunk: list[tuple[int, int, np.ndarray]]
) -> list[Tree]:
    """Grow a chunk of (tree id, growth seed, bootstrap counts) in lock step."""
    samples = [np.repeat(np.arange(counts.size), counts) for _, _, counts in chunk]
    rngs = [np.random.default_rng(seed) for _, seed, _ in chunk]
    return grow_trees(dataset, samples, grow_cfg, rngs, [b for b, _, _ in chunk])


def train_forest(dataset: Dataset, config: ForestConfig, workers: int = 1) -> Forest:
    """Train ``config.n_trees`` trees on independent bootstrap samples.

    Tree ``b`` draws its bootstrap from seed ``derive(seed, BOOTSTRAP, b)``
    and grows from ``derive(seed, TREE, b)``; outputs are identical for
    any ``workers`` count.
    """
    if dataset.y is None:
        raise ValueError("cannot train on an unlabeled dataset")
    grow_cfg = config.grow if config.grow is not None else default_grow_config(dataset)
    if grow_cfg.task != dataset.task:
        raise ValueError(f"grow config task {grow_cfg.task!r} does not match the dataset")
    n = dataset.n_rows
    sample_size = config.sample_size if config.sample_size is not None else n
    resolved = dataclasses.replace(config, sample_size=sample_size, grow=grow_cfg)

    in_bag = np.zeros((config.n_trees, n), dtype=np.int64)
    tasks = []
    for b in range(config.n_trees):
        draws = bootstrap_sample(n, sample_size, stream(config.seed, BOOTSTRAP, b))
        in_bag[b] = np.bincount(draws, minlength=n)
        tasks.append((b, derive(config.seed, TREE, b), in_bag[b]))

    grow = functools.partial(_grow_task, dataset, grow_cfg)
    if workers <= 1:
        trees = grow(tasks)
    else:
        # one contiguous chunk of trees, so one pickled dataset, per worker
        size = -(-len(tasks) // workers)
        chunks = [tasks[k : k + size] for k in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trees = [tree for grown in pool.map(grow, chunks) for tree in grown]

    return Forest(
        trees=trees,
        in_bag=in_bag,
        config=resolved,
        fingerprint=dataset.fingerprint(),
        task=dataset.task,
        n_classes=dataset.response.n_classes,
        schema=dataset.schema,
        response=dataset.response,
    )


def default_coins(forest: Forest, replication: int = 0) -> Coins:
    return Coins(master=derive(forest.config.seed, COIN), replication=replication)


@dataclass
class OOBPredictionSet:
    """Per-row tree aggregates under one heuristic, over each row's
    out-of-bag trees (:func:`oob_predict_all`) or over the trees chosen
    by :func:`predict_rows`.

    Rows with no trees are flagged undefined (NaN prediction, NaN
    probabilities) rather than erroring, since single-tree forests
    legitimately produce them out of bag.
    """

    heuristic: str
    task: str
    n_classes: int
    predictions: np.ndarray  # float ŷ, or int class index (0 where undefined)
    probabilities: np.ndarray | None  # (N, K) vote shares
    oob_tree_counts: np.ndarray
    absent_tree_counts: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return self.oob_tree_counts > 0


class _CompiledForest:
    """Every node of every tree in flat arrays, indexed by global node id
    (node ``v`` of tree ``b`` is ``start[b] + v``).  ``codes`` has one row
    per categorical node, indexed by level: 0 absent, 1 left, 2 present
    and right, 3 outside the node's 1..Q."""

    def __init__(self, forest: Forest):
        nodes = [node for tree in forest.trees for node in tree.nodes]
        n, n_nodes = len(nodes), [len(tree.nodes) for tree in forest.trees]
        self.start = np.cumsum([0] + n_nodes[:-1])
        offset = np.repeat(self.start, n_nodes)
        self.tree_id = np.repeat([tree.tree_id for tree in forest.trees], n_nodes)
        self.local = np.arange(n) - offset
        self.predictor, self.threshold, self.cat_row = np.full(n, -1), np.full(n, np.nan), np.full(n, -1)
        self.left, self.right = np.arange(n), np.arange(n)
        self.left_size, self.right_size = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        cats = [k for k, node in enumerate(nodes) if isinstance(node.rule, CategoricalRule)]
        width = max((nodes[k].rule.n_levels for k in cats), default=0) + 1
        self.codes = np.full((len(cats), width), 3, dtype=np.int8)
        self.cat_row[cats] = np.arange(len(cats))
        for k, node in enumerate(nodes):
            if node.is_leaf:
                continue
            self.predictor[k] = node.predictor
            self.left[k], self.right[k] = offset[k] + node.left, offset[k] + node.right
            self.left_size[k], self.right_size[k] = node.left_size, node.right_size
            if isinstance(node.rule, OrderedRule):
                self.threshold[k] = node.rule.threshold
            else:
                row = self.codes[self.cat_row[k]]
                row[1 : node.rule.n_levels + 1] = 0
                row[list(node.rule.present)] = 2
                row[list(node.rule.left_levels)] = 1
        if forest.task == REGRESSION:
            self.value = np.fromiter((node.stats.mean for node in nodes), np.float64, n)
        else:
            counts = np.array([node.stats.class_counts for node in nodes], dtype=np.float64)
            self.value = counts / np.array([node.stats.size for node in nodes])[:, None]
            self.vote = np.argmax(self.value, axis=1) + 1

    def coin_draws(self, coins: Coins, nodes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The uniform of each (node, row) event, drawn node by node."""
        order, u = np.argsort(nodes, kind="stable"), np.empty(nodes.size)
        for at in np.split(order, np.flatnonzero(np.diff(nodes[order])) + 1):
            g = nodes[at[0]]
            u[at] = coins.uniforms(int(self.tree_id[g]), int(self.local[g]), rows[at])
        return u

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
                        go[tie] = self.coin_draws(coins, at[tie], rows[pair[ev[tie]]]) < 0.5
                elif policy is Heuristic.RANDOM:
                    go = self.coin_draws(coins, at, rows[pair[ev]]) < ls / total
                else:
                    go = np.full(ev.size, policy is Heuristic.LEFT)
                nxt[ev] = np.where(go, self.left[at], self.right[at])
            ended.append((pair[stop], node[stop], weight[stop]))
            pair, node, weight = pair[~stop], nxt[~stop], weight[~stop]
            if fork is not None:
                pair, node, weight = (np.concatenate(p) for p in zip((pair, node, weight), fork))
        return (*(np.concatenate(parts) for parts in zip(*ended)), absent)


def _totals(c: _CompiledForest, forest: Forest, n: int, rows: np.ndarray, routed) -> tuple:
    """Per-row totals and absent-tree counts of the routed pairs.  ``np.add.at``
    adds in index order: a pair's entries in ascending node id from 0.0,
    then a row's pairs in tree order (pairs are tree-major), as ``route`` does."""
    pair, node, weight, absent = routed
    order = np.lexsort((node, pair))
    pair, node, weight = pair[order], node[order], weight[order]
    if forest.task == REGRESSION:
        value = np.zeros(rows.size)
        np.add.at(value, pair, weight * c.value[node])
        totals = np.zeros(n)
        np.add.at(totals, rows, value)
    else:
        first = np.diff(pair, prepend=-1) != 0
        vote = c.vote[node[first]]  # every pair ended somewhere, so pair[first] is 0..P-1
        forked = np.unique(pair[~first])  # DBI pairs that ended in several nodes
        fk = np.isin(pair, forked)
        scores = np.zeros((forked.size, forest.n_classes))
        np.add.at(scores, np.searchsorted(forked, pair[fk]), weight[fk, None] * c.value[node[fk]])
        vote[forked] = np.argmax(scores, axis=1) + 1
        totals = np.zeros((n, forest.n_classes), dtype=np.int64)
        np.add.at(totals, (rows, vote - 1), 1)
    return totals, np.bincount(rows[absent], minlength=n)


def predict_rows(
    forest: Forest,
    xmat: np.ndarray,
    policies: list[Heuristic],
    coins: Coins,
    uses: np.ndarray | None = None,
) -> dict[Heuristic, OOBPredictionSet]:
    """Aggregate trees over every row of ``xmat``, once per policy.

    Row ``i`` is observation ``i`` for the routing coins.  It is routed
    through every tree ``b`` with ``uses[b, i]`` true (every tree when
    ``uses`` is None), and its tree outputs are summed in tree order:
    regression averages the tree predictions, classification returns the
    vote shares and the most-voted class (ties to the lowest index).  The
    forest is compiled into arrays once for all ``policies``; the results
    equal summing ``route`` with the tests' ``tree_predict``/``tree_vote``
    (``tests/reference.py``) bit for bit.
    """
    n = len(xmat)
    if uses is None:
        uses = np.ones((forest.n_trees, n), dtype=bool)
    if np.shape(uses) != (forest.n_trees, n):
        raise ValueError(f"uses must have shape {(forest.n_trees, n)}, not {np.shape(uses)}")
    trees, rows = np.nonzero(uses)
    if Heuristic.ONE_HOT in policies and rows.size:
        raise ValueError("onehot is a dataset transform and cannot route observations")
    c, xmat = _CompiledForest(forest), np.asarray(xmat)
    tree_counts = np.bincount(rows, minlength=n)
    defined, divisor = tree_counts > 0, np.maximum(tree_counts, 1)
    out = {}
    for policy in policies:
        totals, absent = _totals(c, forest, n, rows, c.route(xmat, policy, coins, trees, rows))
        if forest.task == REGRESSION:
            preds, probs = np.where(defined, totals / divisor, np.nan), None
        else:
            probs = totals / divisor[:, None]
            probs[~defined] = np.nan
            preds = np.where(defined, np.argmax(totals, axis=1) + 1, 0).astype(np.int64)
        out[policy] = OOBPredictionSet(
            policy.token, forest.task, forest.n_classes, preds, probs, tree_counts, absent
        )
    return out


def prediction_columns(s: OOBPredictionSet, labels) -> tuple[list[str], list]:
    """Header and columns of a prediction table: ``observation``,
    ``prediction`` (a class label, empty where undefined) and, for
    classification, one ``p_<label>`` vote-share column per class."""
    rows = np.arange(s.predictions.size)
    if s.probabilities is None:
        return ["observation", "prediction"], [rows, s.predictions]
    predicted = [labels[p - 1] if p else "" for p in s.predictions.tolist()]
    header = ["observation", "prediction"] + [f"p_{c}" for c in labels]
    return header, [rows, predicted, *s.probabilities.T]


def oob_predict_all(
    forest: Forest, dataset: Dataset, policies: list[Heuristic], coins: Coins | None = None
) -> dict[Heuristic, OOBPredictionSet]:
    """Predict every row under each policy using only the trees whose
    bootstrap missed it."""
    if dataset.fingerprint() != forest.fingerprint:
        raise ValueError("dataset does not match the one this forest was trained on")
    coins = default_coins(forest) if coins is None else coins
    return predict_rows(forest, dataset.matrix(), policies, coins, forest.in_bag == 0)


def pooled_absence_proportions(sets: list[OOBPredictionSet]) -> np.ndarray:
    """Per-row share of out-of-bag trees that hit an absent level, pooled
    over replications; NaN where a row was never out of bag."""
    if not sets:
        raise ValueError("no prediction sets given")
    absent = sum(s.absent_tree_counts for s in sets)
    oob = sum(s.oob_tree_counts for s in sets)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(oob > 0, absent / np.maximum(oob, 1), np.nan)


def absence_proportion(sets: list[OOBPredictionSet], observation: int) -> float:
    return float(pooled_absence_proportions(sets)[observation])


def forest_tree_hashes(forest: Forest) -> list[str]:
    return [structure_hash(t) for t in forest.trees]


def combine_tree_hashes(tree_hashes: list[str]) -> str:
    """The :func:`forest_hash` of a forest whose trees hash to ``tree_hashes``."""
    h = hashlib.sha256()
    for digest in tree_hashes:
        h.update(digest.encode())
    return h.hexdigest()


def forest_hash(forest: Forest) -> str:
    return combine_tree_hashes(forest_tree_hashes(forest))


# ---------------------------------------------------------------------------
# serialization


def forest_to_dict(forest: Forest) -> dict:
    cfg = forest.config
    return {
        "format": FOREST_FORMAT,
        "format_version": FOREST_FORMAT_VERSION,
        "library_version": __version__,
        "config": {
            "n_trees": cfg.n_trees,
            "sample_size": cfg.sample_size,
            "seed": cfg.seed,
            "grow": dataclasses.asdict(cfg.grow),
        },
        "task": forest.task,
        "n_classes": forest.n_classes,
        "data": schema_to_dict(forest.schema, forest.response),
        "fingerprint": forest.fingerprint,
        "in_bag": forest.in_bag.tolist(),
        "trees": [tree_to_dict(t) for t in forest.trees],
    }


def _check_splits(tree: Tree, schema: tuple[ColumnSchema, ...]) -> None:
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


def forest_from_dict(obj: dict) -> Forest:
    """Rebuild a forest from :func:`forest_to_dict` output; a malformed
    dump raises ValueError naming its first defect."""
    if not isinstance(obj, dict) or obj.get("format") != FOREST_FORMAT:
        raise ValueError("not a forest dump")
    try:
        cfg_obj = obj["config"]
        grow = GrowConfig(**cfg_obj["grow"])
        config = ForestConfig(
            n_trees=int(cfg_obj["n_trees"]),
            sample_size=int(cfg_obj["sample_size"]),
            seed=int(cfg_obj["seed"]),
            grow=grow,
        )
        schema, response = schema_from_dict(obj["data"])
        forest = Forest(
            trees=[tree_from_dict(t) for t in obj["trees"]],
            in_bag=np.asarray(obj["in_bag"], dtype=np.int64),
            config=config,
            fingerprint=obj["fingerprint"],
            task=obj["task"],
            n_classes=int(obj["n_classes"]),
            schema=schema,
            response=response,
        )
    except KeyError as exc:
        raise ValueError(f"malformed model dump: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed model dump: {exc}") from exc
    if not forest.trees:
        raise ValueError("model dump holds no trees")
    if forest.in_bag.ndim != 2 or len(forest.in_bag) != forest.n_trees:
        raise ValueError(f"in_bag has shape {forest.in_bag.shape}, not ({forest.n_trees}, N)")
    if (forest.in_bag < 0).any() or (forest.in_bag.sum(axis=1) != config.sample_size).any():
        raise ValueError(f"in_bag rows must be counts >= 0 summing to sample_size {config.sample_size}")
    if (forest.task, forest.n_classes) != (response.task, response.n_classes):
        raise ValueError("model dump's task or class count does not match its response")
    for tree in forest.trees:
        if (tree.task, tree.n_classes) != (forest.task, forest.n_classes):
            raise ValueError(f"tree {tree.tree_id}: task or class count differs from the forest")
        _check_splits(tree, schema)
    return forest


def save_forest(forest: Forest, path) -> None:
    """Write :func:`forest_to_dict` as sorted, compact JSON.  The header
    and then each tree go through the C encoder one at a time, which
    ``json.dump`` never uses, without holding the whole text in memory;
    ``"trees"`` sorts last, so the bytes equal ``json.dump``'s."""
    obj = forest_to_dict(forest)
    trees = obj.pop("trees")
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(obj)[:-1] + ',"trees":[')
        for i, tree in enumerate(trees):
            fh.write(("," if i else "") + encode(tree))
        fh.write("]}\n")


def load_forest(path) -> Forest:
    with open(path, "r", encoding="utf-8") as fh:
        return forest_from_dict(json.load(fh))
