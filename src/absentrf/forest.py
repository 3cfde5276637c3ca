"""Bootstrap ensembles of trees with out-of-bag bookkeeping.

Every tree's bootstrap draw and growth rng come from seeds derived
independently of the other trees, so the same forest materialises
whether its trees grow serially, across any number of worker processes,
or in one lock step with those of forests on data that shares its rows
and response, such as its one-hot transform (:func:`train_forests`).
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
    CLASSIFICATION,
    REGRESSION,
    ColumnSchema,
    Dataset,
    ResponseSpec,
    schema_from_dict,
    schema_to_dict,
)
from .heuristics import Heuristic
from .seeding import BOOTSTRAP, COIN, TREE, Coins, derive, stream
from .tree import GrownTrees, GrowConfig, NodeTable, grow_arrays, store_ints, structure_hash

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
        store_ints(self)
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
    """A forest whose trees are kept in their dict form (see
    :mod:`absentrf.tree`), which saving and hashing use as they are.
    ``table`` is what prediction routes through: :func:`train_forests`
    compiles it from the arrays the trees grew in, and a forest built
    otherwise reads it from the dicts, with every check, on first use."""

    tree_dicts: list[dict]
    in_bag: np.ndarray  # (B, N) multiplicity counts
    config: ForestConfig  # with sample_size and grow resolved
    fingerprint: str
    task: str
    n_classes: int
    schema: tuple[ColumnSchema, ...]
    response: ResponseSpec

    @property
    def n_trees(self) -> int:
        return len(self.tree_dicts)

    @functools.cached_property
    def table(self) -> NodeTable:
        """The node table read from the tree dicts and checked against the
        schema (see :class:`NodeTable`), unless training set it."""
        return NodeTable(self.tree_dicts, self.task, self.n_classes, self.schema)


def _grow_task(datasets: tuple, grow_cfgs: tuple, chunk: list[tuple[int, int, int, np.ndarray]]) -> GrownTrees:
    """Grow a chunk of (dataset index, tree id, growth seed, bootstrap
    counts) in one lock step."""
    samples = [np.repeat(np.arange(counts.size), counts) for _, _, _, counts in chunk]
    rngs = [np.random.default_rng(seed) for _, _, seed, _ in chunk]
    return grow_arrays(datasets, samples, grow_cfgs, rngs, [b for _, b, _, _ in chunk], [g for g, _, _, _ in chunk])


def train_forests(pairs: list[tuple[Dataset, ForestConfig]], workers: int = 1) -> list[Forest]:
    """Train the forest of each (dataset, config) pair, growing all their
    trees in one lock step.  The datasets must share their rows, response
    and ``y``, and their growth settings may differ only in ``mtry`` and
    ``min_node_size``.  Tree ``b`` of a forest draws its bootstrap from
    seed ``derive(seed, BOOTSTRAP, b)`` and grows from ``derive(seed,
    TREE, b)``; outputs are identical for any ``workers`` count.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    forests, tasks = [], []
    for g, (dataset, config) in enumerate(pairs):
        if dataset.y is None:
            raise ValueError("cannot train on an unlabeled dataset")
        grow_cfg = config.grow if config.grow is not None else default_grow_config(dataset)
        if grow_cfg.task != dataset.task:
            raise ValueError(f"grow config task {grow_cfg.task!r} does not match the dataset")
        n = dataset.n_rows
        sample_size = config.sample_size if config.sample_size is not None else n
        in_bag = np.zeros((config.n_trees, n), dtype=np.int64)
        for b in range(config.n_trees):
            draws = bootstrap_sample(n, sample_size, stream(config.seed, BOOTSTRAP, b))
            in_bag[b] = np.bincount(draws, minlength=n)
            tasks.append((g, b, derive(config.seed, TREE, b), in_bag[b]))
        resolved = dataclasses.replace(config, sample_size=sample_size, grow=grow_cfg)
        k, fingerprint = dataset.response.n_classes, dataset.fingerprint()
        forests.append(Forest([], in_bag, resolved, fingerprint, dataset.task, k, dataset.schema, dataset.response))

    grow = functools.partial(_grow_task, tuple(d for d, _ in pairs), tuple(f.config.grow for f in forests))
    if workers <= 1:
        grown = grow(tasks)
    else:
        # one contiguous chunk of trees, so one pickled set of datasets, per worker
        size = -(-len(tasks) // workers)
        chunks = [tasks[k : k + size] for k in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            grown = GrownTrees.concat(list(pool.map(grow, chunks)))
    start = 0
    for forest in forests:  # its trees follow those of the forests before it
        own = grown.trees(start, start + forest.config.n_trees)
        forest.tree_dicts, forest.table = own.tree_dicts(), own.table()
        start += forest.config.n_trees
    return forests


def train_forest(dataset: Dataset, config: ForestConfig, workers: int = 1) -> Forest:
    """Train ``config.n_trees`` trees on bootstrap samples: :func:`train_forests` of one pair."""
    return train_forests([(dataset, config)], workers)[0]


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


def _totals(c: NodeTable, forest: Forest, n: int, rows: np.ndarray, routed) -> tuple:
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
    forest's node table (``forest.table``) is built once; the results
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
    c, xmat = forest.table, np.asarray(xmat)
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
    return [structure_hash(t) for t in forest.tree_dicts]


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
        "trees": forest.tree_dicts,
    }


def forest_from_dict(obj: dict) -> Forest:
    """Rebuild a forest from :func:`forest_to_dict` output and build its
    node table; a malformed dump raises ValueError naming its first defect."""
    if not isinstance(obj, dict) or obj.get("format") != FOREST_FORMAT:
        raise ValueError("not a forest dump")
    try:
        cfg_obj = obj["config"]
        grow = GrowConfig(**cfg_obj["grow"])
        config = ForestConfig(cfg_obj["n_trees"], cfg_obj["sample_size"], cfg_obj["seed"], grow)
        schema, response = schema_from_dict(obj["data"])
        forest = Forest(
            tree_dicts=list(obj["trees"]),
            in_bag=np.asarray(obj["in_bag"], dtype=np.int64),
            config=config,
            fingerprint=obj["fingerprint"],
            task=obj["task"],
            n_classes=int(obj["n_classes"]),
            schema=schema,
            response=response,
        )
        if not forest.tree_dicts:
            raise ValueError("model dump holds no trees")
        if forest.in_bag.ndim != 2 or len(forest.in_bag) != forest.n_trees:
            raise ValueError(f"in_bag has shape {forest.in_bag.shape}, not ({forest.n_trees}, N)")
        if (forest.in_bag < 0).any() or (forest.in_bag.sum(axis=1) != config.sample_size).any():
            raise ValueError(f"in_bag rows must be counts >= 0 summing to sample_size {config.sample_size}")
        if (forest.task, forest.n_classes) != (response.task, response.n_classes):
            raise ValueError("model dump's task or class count does not match its response")
        forest.table  # builds the node table, checking every tree against the schema
    except KeyError as exc:
        raise ValueError(f"malformed model dump: missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model dump: {exc}") from exc
    return forest


def save_forest(forest: Forest, path) -> None:
    """Write :func:`forest_to_dict` as sorted, compact JSON.  The header
    and then each tree go through the C encoder one at a time, which
    ``json.dump`` never uses, without holding the whole text in memory;
    ``"trees"`` sorts last, so the bytes equal ``json.dump``'s."""
    obj = forest_to_dict(forest)
    trees = obj.pop("trees")
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(obj)[:-1] + ',"trees":[')
        for i, tree in enumerate(trees):
            fh.write(("," if i else "") + encode(tree))
        fh.write("]}\n")


def load_forest(path) -> Forest:
    with open(path, "r", encoding="utf-8") as fh:
        return forest_from_dict(json.load(fh))
