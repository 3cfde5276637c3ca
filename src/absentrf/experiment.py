"""Paired replication experiments over routing heuristics.

Each replication trains *one* forest and evaluates every non-one-hot
heuristic on it out-of-bag, so heuristics see byte-identical trees and
any metric difference is attributable to absent-level routing alone;
the one-hot heuristic trains its own forest on the dummy-coded data
from the same replication seed, in one lock step with the shared forest
(:func:`absentrf.forest.train_forests`).  All outputs are plain CSV/JSON
written with a fixed row order and shortest-round-trip float formatting,
so a rerun of the same config file reproduces every artifact byte for
byte regardless of the worker count.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    ingest_csv,
    load_schema,
    one_hot_transform,
    write_table,
)
from .forest import (
    ForestConfig,
    OOBPredictionSet,
    _grow_settings,
    combine_tree_hashes,
    forest_tree_hashes,
    oob_predict_all,
    pooled_absence_proportions,
    prediction_columns,
    train_forests,
)
from .heuristics import MISSING_DATA_SET, Heuristic, parse_heuristic
from .metrics import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    cohen_kappa,
    log_loss,
    paired_difference_summary,
    pr_auc,
    relative_to_best,
    rmse,
    roc_auc,
)
from .seeding import REPLICATION, Coins, derive
from .splits import EXHAUSTIVE_HARD_LIMIT
from .tree import store_ints


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    schema_path: str
    output_dir: str
    heuristics: tuple[Heuristic, ...]
    replications: int = 100
    seed: int = 0
    baseline: tuple[Heuristic, ...] | None = None  # None -> MISSING_DATA_SET ∩ heuristics
    n_trees: int = 500
    sample_size: int | None = None
    mtry: int | None = None
    min_node_size: int | None = None
    exhaustive_max_q_binary: int = 10
    exhaustive_max_q_multiclass: int = 9
    random_candidates: int = 1024
    positive_class: str | None = None
    bucket_width: float = 0.05
    log_loss_eps: float | None = None  # None -> 1 / (2 * n_trees)
    workers: int = 1
    missing_token: str = "?"
    skip_header: bool = False

    def __post_init__(self):
        store_ints(self)
        for name in ("replications", "n_trees", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not self.heuristics:
            raise ConfigError("at least one heuristic is required")
        if len(set(self.heuristics)) != len(self.heuristics):
            raise ConfigError("duplicate heuristics")
        if not 0 < self.bucket_width <= 1:
            raise ConfigError("bucket_width must lie in (0, 1]")
        if self.sample_size is not None and self.sample_size < 1:
            raise ConfigError("sample_size must be at least 1")
        # unset, it defaults to 1 / (2 * n_trees), which log_loss checks
        # on the tasks that compute it
        if self.log_loss_eps is not None and not 0 < self.log_loss_eps < 0.5:
            raise ConfigError("log_loss_eps must lie in (0, 0.5)")
        for name in ("exhaustive_max_q_binary", "exhaustive_max_q_multiclass"):
            if getattr(self, name) > EXHAUSTIVE_HARD_LIMIT:
                raise ConfigError(f"{name} may not exceed {EXHAUSTIVE_HARD_LIMIT}")

    def resolved_baseline(self) -> tuple[Heuristic, ...]:
        if self.baseline is None:
            return tuple(h for h in MISSING_DATA_SET if h in self.heuristics)
        bad = [h.token for h in self.baseline if h not in MISSING_DATA_SET]
        if bad:
            raise ConfigError(
                f"baseline may not contain directional or transform heuristics: {bad}"
            )
        missing = [h.token for h in self.baseline if h not in self.heuristics]
        if missing:
            raise ConfigError(f"baseline heuristics not in the heuristic list: {missing}")
        return self.baseline


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
# the JSON values a field of each annotated type takes; a field that may be None also takes null
_JSON_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
    "tuple[Heuristic, ...]": (list, "a list of heuristic tokens"),
}


def load_experiment_config(path) -> ExperimentConfig:
    """Read an experiment config JSON file (fields mirror
    :class:`ExperimentConfig`; heuristics and baseline are token lists)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config fields {sorted(unknown)}")
    for key in ("dataset_path", "schema_path", "output_dir", "heuristics"):
        if key not in obj:
            raise ConfigError(f"{path}: missing required field {key!r}")
    for f in dataclasses.fields(ExperimentConfig):
        kind, value = f.type.removesuffix(" | None"), obj.get(f.name)
        if f.name not in obj or value is None and kind != f.type:
            continue
        types, name = _JSON_TYPES[kind]
        if (
            not isinstance(value, types)
            or isinstance(value, bool) != (kind == "bool")
            or isinstance(value, list) and not all(isinstance(t, str) for t in value)
        ):
            raise ConfigError(f"{path}: field {f.name!r} must be {name}, not {json.dumps(value)}")
    try:
        obj["heuristics"] = tuple(parse_heuristic(t) for t in obj["heuristics"])
        if obj.get("baseline") is not None:
            obj["baseline"] = tuple(parse_heuristic(t) for t in obj["baseline"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**obj)


# ---------------------------------------------------------------------------
# deterministic formatting


def _write_csv(path: Path, header: list[str], columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, header, columns)


def _six_stats(values: np.ndarray) -> list[tuple[str, float]]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return [
        ("min", float(values.min())),
        ("q1", float(q1)),
        ("median", float(med)),
        ("mean", float(values.mean())),
        ("q3", float(q3)),
        ("max", float(values.max())),
    ]


# ---------------------------------------------------------------------------
# per-replication evaluation


def _metric_plan(task: str, n_classes: int) -> list[tuple[str, str]]:
    """(metric name, orientation) pairs computed for the task."""
    if task == REGRESSION:
        return [("rmse", LOWER_IS_BETTER)]
    if n_classes == 2:
        return [
            ("roc_auc", HIGHER_IS_BETTER),
            ("pr_auc", HIGHER_IS_BETTER),
            ("log_loss", LOWER_IS_BETTER),
        ]
    return [("log_loss", LOWER_IS_BETTER)]


def _evaluate_set(
    metric: str, s: OOBPredictionSet, dataset: Dataset, positive_idx: int, eps: float
) -> float:
    y = dataset.y
    if metric == "rmse":
        return rmse(y, s.predictions)
    if metric == "roc_auc":
        return roc_auc(s.probabilities[:, positive_idx - 1], y, positive_idx)
    if metric == "pr_auc":
        return pr_auc(s.probabilities[:, positive_idx - 1], y, positive_idx)
    if metric == "log_loss":
        return log_loss(s.probabilities, y, eps)
    raise ValueError(f"unknown metric {metric!r}")


def _paired_values(s: OOBPredictionSet, dataset: Dataset, positive_idx: int) -> np.ndarray:
    """Per-observation quantity whose heuristic-to-heuristic differences
    the paired summary buckets: the prediction for regression, the
    positive-class share for binary, the true-class share otherwise."""
    if dataset.task == REGRESSION:
        return s.predictions.astype(np.float64)
    if dataset.response.n_classes == 2:
        return s.probabilities[:, positive_idx - 1]
    return s.probabilities[np.arange(dataset.n_rows), dataset.y - 1]


def _check_paired_invariant(sets: dict[Heuristic, OOBPredictionSet]) -> None:
    """Routing heuristics may only disagree where an absent level was hit."""
    tokens = [h for h in sets if h is not Heuristic.ONE_HOT]
    if len(tokens) < 2:
        return
    ref = sets[tokens[0]]
    flagged = ref.absent_tree_counts > 0
    for h in tokens[1:]:
        s = sets[h]
        if not np.array_equal(s.absent_tree_counts > 0, flagged):
            raise RuntimeError("absence flags differ between heuristics on a shared forest")
        clean = ~flagged
        if s.probabilities is None:
            same = np.array_equal(s.predictions[clean], ref.predictions[clean])
        else:
            same = np.array_equal(s.probabilities[clean], ref.probabilities[clean])
        if not same:
            raise RuntimeError(
                f"predictions for {tokens[0].token} and {h.token} differ on rows that "
                "never met an absent level"
            )


@dataclass
class _Replication:
    """What one replication leaves for the aggregate outputs once its
    prediction sets have been written out and dropped."""

    seed: int
    tree_hashes: list[str]
    onehot_tree_hashes: list[str] | None
    values: dict[str, dict[Heuristic, float]]  # metric -> heuristic -> value
    relative: dict[str, dict[Heuristic, float]]  # the same, relative to the best baseline
    kappas: list[tuple[Heuristic, Heuristic, float]]
    paired: dict[Heuristic, np.ndarray]  # see _paired_values
    # the first routed policy's set (the one-hot set when none is routed):
    # every routed policy on the shared forest has the same absence counts
    flags: OOBPredictionSet


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    output_dir: Path
    task: str
    replication_seeds: list[int]
    forest_hashes: list[str]
    summary_rows: list[tuple]
    absence: np.ndarray


def run_experiment(cfg: ExperimentConfig, verbose: bool = False) -> ExperimentResult:
    schema, response = load_schema(cfg.schema_path)
    dataset, dropped = ingest_csv(
        cfg.dataset_path,
        schema,
        response,
        missing_token=cfg.missing_token,
        skip_header=cfg.skip_header,
    )
    if verbose:
        print(
            f"loaded {dataset.n_rows} rows ({dropped} dropped), task={dataset.task}",
            file=sys.stderr,
        )
    return run_experiment_on(cfg, dataset, verbose=verbose)


def run_experiment_on(
    cfg: ExperimentConfig, dataset: Dataset, verbose: bool = False
) -> ExperimentResult:
    """Run the experiment against an already-loaded dataset."""
    task = dataset.task
    n_classes = dataset.response.n_classes
    baseline = cfg.resolved_baseline()
    routed = [h for h in cfg.heuristics if h is not Heuristic.ONE_HOT]
    onehot_data = one_hot_transform(dataset) if Heuristic.ONE_HOT in cfg.heuristics else None

    if task == CLASSIFICATION and n_classes == 2:
        label = cfg.positive_class or dataset.response.classes[1]
        if label not in dataset.response.classes:
            raise ConfigError(f"positive class {label!r} is not a declared class")
        positive_idx = dataset.response.classes.index(label) + 1
    else:
        positive_idx = 0
    eps = cfg.log_loss_eps if cfg.log_loss_eps is not None else 1.0 / (2.0 * cfg.n_trees)
    plan = _metric_plan(task, n_classes)

    # a setting the config leaves unset defaults from each forest's own predictors
    settings = {
        "mtry": cfg.mtry,
        "min_node_size": cfg.min_node_size,
        "exhaustive_max_q_binary": cfg.exhaustive_max_q_binary,
        "exhaustive_max_q_multiclass": cfg.exhaustive_max_q_multiclass,
        "random_candidates": cfg.random_candidates,
    }
    grow = _grow_settings(dataset, settings)
    if grow.mtry > dataset.n_predictors:
        raise ConfigError(f"mtry={grow.mtry} exceeds the {dataset.n_predictors} predictors")

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, task, "running", [])

    seeds = [derive(cfg.seed, REPLICATION, r) for r in range(cfg.replications)]
    reps: list[_Replication] = []
    r = -1
    try:
        for r, seed_r in enumerate(seeds):
            forest_cfg = ForestConfig(cfg.n_trees, cfg.sample_size, seed_r, grow)
            pairs = [(dataset, forest_cfg)]
            if onehot_data is not None:
                pairs.append((onehot_data, dataclasses.replace(forest_cfg, grow=_grow_settings(onehot_data, settings))))
            forest, *onehot = train_forests(pairs, workers=cfg.workers)
            coins = Coins(master=cfg.seed, replication=r)
            sets = oob_predict_all(forest, dataset, routed, coins)
            onehot_tree_hashes = None
            if onehot:
                (onehot_forest,) = onehot
                onehot_tree_hashes = forest_tree_hashes(onehot_forest)
                # no categorical columns remain, so the routing policy is
                # never consulted; LEFT is an arbitrary stand-in
                (s,) = oob_predict_all(onehot_forest, onehot_data, [Heuristic.LEFT], coins).values()
                if s.absent_tree_counts.any():
                    raise RuntimeError("one-hot forest reported absent levels")
                sets[Heuristic.ONE_HOT] = dataclasses.replace(s, heuristic=Heuristic.ONE_HOT.token)

            undefined = sorted({int(i) for s in sets.values() for i in np.flatnonzero(~s.defined)})
            if undefined:
                raise RuntimeError(f"rows {undefined} were never out of bag; increase n_trees")
            _check_paired_invariant(sets)

            values = {
                metric: {
                    h: _evaluate_set(metric, sets[h], dataset, positive_idx, eps)
                    for h in cfg.heuristics
                }
                for metric, _ in plan
            }
            rep = _Replication(
                seed=seed_r,
                tree_hashes=forest_tree_hashes(forest),
                onehot_tree_hashes=onehot_tree_hashes,
                values=values,
                relative={
                    metric: relative_to_best(values[metric], baseline, orientation)
                    for metric, orientation in plan
                    if baseline
                },
                kappas=[
                    (a, b, cohen_kappa(sets[a].predictions, sets[b].predictions, n_classes))
                    for a, b in itertools.combinations(cfg.heuristics, 2)
                ]
                if task == CLASSIFICATION
                else [],
                paired={h: _paired_values(sets[h], dataset, positive_idx) for h in cfg.heuristics},
                flags=sets[routed[0]] if routed else sets[Heuristic.ONE_HOT],
            )
            _write_replication(out, r, dataset, rep, sets)
            reps.append(rep)
            if verbose:
                print(f"replication {r} done", file=sys.stderr)
    except Exception as exc:
        _write_manifest(
            out, cfg, task, "failed", seeds[: r + 1], failed_replication=r, error=str(exc)
        )
        raise RuntimeError(f"replication {r} failed: {exc}") from exc

    flags = [rep.flags for rep in reps]
    absence = pooled_absence_proportions(flags)
    summary_rows = _summary_rows(cfg.heuristics, baseline, reps, absence)
    _write_csv(
        out / "summary.csv",
        ["kind", "heuristic", "metric", "stat", "value"],
        list(zip(*summary_rows)),
    )
    _write_csv(
        out / "absence_proportions.csv",
        ["observation", "oob_trees", "absent_trees", "proportion"],
        [
            np.arange(dataset.n_rows),
            sum(f.oob_tree_counts for f in flags),
            sum(f.absent_tree_counts for f in flags),
            absence,
        ],
    )

    stacked = {h.token: np.vstack([rep.paired[h] for rep in reps]) for h in cfg.heuristics}
    buckets = paired_difference_summary(stacked, absence, cfg.bucket_width)
    fields = ["first", "second", "bucket_low", "bucket_high", "count", "mean", "lo95", "hi95"]
    _write_csv(
        out / "paired_differences.csv",
        ["mean_diff" if f == "mean" else f for f in fields] + ["excludes_zero"],
        [[getattr(b, f) for b in buckets] for f in fields] + [[b.excludes_zero for b in buckets]],
    )

    _write_manifest(out, cfg, task, "complete", seeds)
    return ExperimentResult(
        config=cfg,
        output_dir=out,
        task=task,
        replication_seeds=seeds,
        forest_hashes=[combine_tree_hashes(rep.tree_hashes) for rep in reps],
        summary_rows=summary_rows,
        absence=absence,
    )


def _summary_rows(
    heuristics: tuple[Heuristic, ...],
    baseline: tuple[Heuristic, ...],
    reps: list[_Replication],
    absence: np.ndarray,
) -> list[tuple]:
    """``summary.csv`` rows: six statistics across replications of each
    metric and relative value per heuristic, how often each baseline
    member was best (ties to the earlier member, the first at distance 0),
    and six statistics of the defined pooled absence proportions."""
    rows: list[tuple] = []
    for kind, attr in (("metric", "values"), ("relative", "relative")):
        for metric in getattr(reps[0], attr):
            for h in heuristics:
                vals = np.asarray([getattr(rep, attr)[metric][h] for rep in reps])
                rows += [(kind, h.token, metric, stat, v) for stat, v in _six_stats(vals)]
    for metric in reps[0].relative:
        best = [next(h for h in baseline if rep.relative[metric][h] == 0) for rep in reps]
        rows += [("wins", h.token, metric, "count", best.count(h)) for h in baseline]
    defined = absence[~np.isnan(absence)]
    if defined.size:
        rows += [("absence", "", "proportion", stat, v) for stat, v in _six_stats(defined)]
    return rows


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, cfg: ExperimentConfig, task: str, status: str, seeds, **outcome):
    """The run manifest: status, config echo and replication seeds, plus
    ``outcome`` (the failed replication and its error) after a failure."""
    config = dataclasses.asdict(cfg)
    config["heuristics"] = [h.token for h in cfg.heuristics]
    config["baseline"] = None if cfg.baseline is None else [h.token for h in cfg.baseline]
    obj = {"library_version": __version__, "status": status, "task": task, "config": config}
    _write_json(out / "manifest.json", {**obj, "replication_seeds": list(seeds), **outcome})


def _write_replication(
    out: Path, r: int, dataset: Dataset, rep: _Replication, sets: dict[Heuristic, OOBPredictionSet]
) -> None:
    rep_dir = out / f"replication_{r}"
    rep_dir.mkdir(parents=True, exist_ok=True)

    rows = [(h.token, m, v) for m, per_h in rep.values.items() for h, v in per_h.items()]
    rows += [(h.token, f"{m}_rel", v) for m, per_h in rep.relative.items() for h, v in per_h.items()]
    rows += [(f"{a.token}|{b.token}", "kappa", k) for a, b, k in rep.kappas]
    _write_csv(
        rep_dir / "metrics.csv",
        ["replication", "heuristic", "metric", "value"],
        [[r] * len(rows), *zip(*rows)],
    )

    for h, s in sets.items():
        header, columns = prediction_columns(s, dataset.response.classes)
        _write_csv(
            rep_dir / f"oob_{h.token}.csv",
            header + ["oob_trees", "absent_trees"],
            columns + [s.oob_tree_counts, s.absent_tree_counts],
        )

    manifest = {
        "replication": r,
        "seed": rep.seed,
        "forest_hash": combine_tree_hashes(rep.tree_hashes),
        "tree_hashes": rep.tree_hashes,
    }
    if rep.onehot_tree_hashes is not None:
        manifest["onehot_forest_hash"] = combine_tree_hashes(rep.onehot_tree_hashes)
        manifest["onehot_tree_hashes"] = rep.onehot_tree_hashes
    _write_json(rep_dir / "manifest.json", manifest)
