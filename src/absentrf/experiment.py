"""Paired replication experiments over routing heuristics.

Each replication trains *one* forest and evaluates every non-one-hot
heuristic on it out-of-bag, so heuristics see byte-identical trees and
any metric difference is attributable to absent-level routing alone;
the one-hot heuristic trains its own forest on the dummy-coded data
from the same replication seed.  All outputs are plain CSV/JSON written
with a fixed row order and shortest-round-trip float formatting, so a
rerun of the same config file reproduces every artifact byte for byte
regardless of the worker count.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import CLASSIFICATION, REGRESSION, Dataset, ingest_csv, load_schema, one_hot_transform
from .forest import (
    ForestConfig,
    OOBPredictionSet,
    combine_tree_hashes,
    default_grow_config,
    forest_tree_hashes,
    oob_predict_all,
    pooled_absence_proportions,
    train_forest,
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
from .tree import GrowConfig


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
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.n_trees < 1:
            raise ConfigError("n_trees must be at least 1")
        if not self.heuristics:
            raise ConfigError("at least one heuristic is required")
        if len(set(self.heuristics)) != len(self.heuristics):
            raise ConfigError("duplicate heuristics")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not 0 < self.bucket_width <= 1:
            raise ConfigError("bucket_width must lie in (0, 1]")

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
    try:
        obj["heuristics"] = tuple(parse_heuristic(t) for t in obj["heuristics"])
        if obj.get("baseline") is not None:
            obj["baseline"] = tuple(parse_heuristic(t) for t in obj["baseline"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(**obj)


# ---------------------------------------------------------------------------
# deterministic formatting


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return "" if math.isnan(v) else repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    use_onehot = Heuristic.ONE_HOT in cfg.heuristics
    routed = [h for h in cfg.heuristics if h is not Heuristic.ONE_HOT]
    onehot_data = one_hot_transform(dataset) if use_onehot else None

    if task == CLASSIFICATION and n_classes == 2:
        label = cfg.positive_class or dataset.response.classes[1]
        if label not in dataset.response.classes:
            raise ConfigError(f"positive class {label!r} is not a declared class")
        positive_idx = dataset.response.classes.index(label) + 1
    else:
        positive_idx = 0
    eps = cfg.log_loss_eps if cfg.log_loss_eps is not None else 1.0 / (2.0 * cfg.n_trees)
    plan = _metric_plan(task, n_classes)

    base = default_grow_config(dataset)
    grow = GrowConfig(
        task=task,
        mtry=cfg.mtry if cfg.mtry is not None else base.mtry,
        min_node_size=cfg.min_node_size if cfg.min_node_size is not None else base.min_node_size,
        exhaustive_max_q_binary=cfg.exhaustive_max_q_binary,
        exhaustive_max_q_multiclass=cfg.exhaustive_max_q_multiclass,
        random_candidates=cfg.random_candidates,
    )

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, cfg, task, status="running", failed=None, error=None, seeds=[])

    rep_seeds: list[int] = []
    hashes: list[str] = []
    metric_values: dict[str, dict[Heuristic, list[float]]] = {
        m: {h: [] for h in cfg.heuristics} for m, _ in plan
    }
    relative_values: dict[str, dict[Heuristic, list[float]]] = {
        m: {h: [] for h in cfg.heuristics} for m, _ in plan
    }
    win_counts: dict[str, dict[Heuristic, int]] = {
        m: {h: 0 for h in baseline} for m, _ in plan
    }
    paired: dict[str, list[np.ndarray]] = {h.token: [] for h in cfg.heuristics}
    pooled_absent = np.zeros(dataset.n_rows, dtype=np.int64)
    pooled_oob = np.zeros(dataset.n_rows, dtype=np.int64)

    r = -1
    try:
        for r in range(cfg.replications):
            seed_r = derive(cfg.seed, REPLICATION, r)
            rep_seeds.append(seed_r)
            forest = train_forest(
                dataset,
                ForestConfig(cfg.n_trees, cfg.sample_size, seed_r, grow),
                workers=cfg.workers,
            )
            tree_hashes = forest_tree_hashes(forest)
            coins = Coins(master=cfg.seed, replication=r)
            sets = oob_predict_all(forest, dataset, routed, coins)
            onehot_tree_hashes = None
            if use_onehot:
                onehot_forest = train_forest(
                    onehot_data,
                    ForestConfig(cfg.n_trees, cfg.sample_size, seed_r, None),
                    workers=cfg.workers,
                )
                onehot_tree_hashes = forest_tree_hashes(onehot_forest)
                # no categorical columns remain, so the routing policy is
                # never consulted; LEFT is an arbitrary stand-in
                (s,) = oob_predict_all(onehot_forest, onehot_data, [Heuristic.LEFT], coins).values()
                if s.absent_tree_counts.any():
                    raise RuntimeError("one-hot forest reported absent levels")
                s = dataclasses.replace(s, heuristic=Heuristic.ONE_HOT.token)
                sets[Heuristic.ONE_HOT] = s

            undefined = [
                int(i)
                for h in cfg.heuristics
                for i in np.flatnonzero(~sets[h].defined)
            ]
            if undefined:
                raise RuntimeError(
                    f"rows {sorted(set(undefined))} were never out of bag; "
                    "increase n_trees"
                )
            _check_paired_invariant(sets)

            # absence flags are identical across routing heuristics (the
            # trace is shared up to the first absent-level event), so any
            # one of them can feed the pooled proportions
            flag_source = sets[routed[0]] if routed else sets[Heuristic.ONE_HOT]
            pooled_absent += flag_source.absent_tree_counts
            pooled_oob += flag_source.oob_tree_counts

            values_per_metric: dict[str, dict[str, float]] = {}
            for metric, _ in plan:
                vals = {
                    h.token: _evaluate_set(metric, sets[h], dataset, positive_idx, eps)
                    for h in cfg.heuristics
                }
                values_per_metric[metric] = vals
                for h in cfg.heuristics:
                    metric_values[metric][h].append(vals[h.token])

            rel_per_metric: dict[str, dict[str, float]] = {}
            for metric, orientation in plan:
                if baseline:
                    rel = relative_to_best(
                        values_per_metric[metric], [h.token for h in baseline], orientation
                    )
                    rel_per_metric[metric] = rel
                    for h in cfg.heuristics:
                        relative_values[metric][h].append(rel[h.token])
                    # the best baseline member is the first whose distance
                    # from the best is 0, so ties go to the earlier member
                    win_counts[metric][next(h for h in baseline if rel[h.token] == 0)] += 1

            kappas: list[tuple[str, str, float]] = []
            if task == CLASSIFICATION:
                hs = list(cfg.heuristics)
                for i in range(len(hs)):
                    for j in range(i + 1, len(hs)):
                        k = cohen_kappa(
                            sets[hs[i]].predictions, sets[hs[j]].predictions, n_classes
                        )
                        kappas.append((hs[i].token, hs[j].token, k))

            for h in cfg.heuristics:
                paired[h.token].append(_paired_values(sets[h], dataset, positive_idx))

            _write_replication(
                out,
                r,
                cfg,
                dataset,
                seed_r,
                tree_hashes,
                onehot_tree_hashes,
                sets,
                values_per_metric,
                rel_per_metric,
                kappas,
            )
            hashes.append(combine_tree_hashes(tree_hashes))
            if verbose:
                print(f"replication {r} done", file=sys.stderr)
    except Exception as exc:
        _write_manifest(
            out, cfg, task, status="failed", failed=r, error=str(exc), seeds=rep_seeds
        )
        raise RuntimeError(f"replication {r} failed: {exc}") from exc

    with np.errstate(invalid="ignore"):
        absence = np.where(pooled_oob > 0, pooled_absent / np.maximum(pooled_oob, 1), np.nan)

    # ---- aggregate outputs
    summary_rows: list[tuple] = []
    for metric, _ in plan:
        for h in cfg.heuristics:
            vals = np.asarray(metric_values[metric][h])
            for stat, v in _six_stats(vals):
                summary_rows.append(("metric", h.token, metric, stat, v))
    for metric, _ in plan:
        if baseline:
            for h in cfg.heuristics:
                vals = np.asarray(relative_values[metric][h])
                for stat, v in _six_stats(vals):
                    summary_rows.append(("relative", h.token, metric, stat, v))
    for metric, _ in plan:
        for h in baseline:
            summary_rows.append(("wins", h.token, metric, "count", win_counts[metric][h]))
    defined = ~np.isnan(absence)
    if defined.any():
        for stat, v in _six_stats(absence[defined]):
            summary_rows.append(("absence", "", "proportion", stat, v))
    _write_csv(out / "summary.csv", ["kind", "heuristic", "metric", "stat", "value"], summary_rows)

    _write_csv(
        out / "absence_proportions.csv",
        ["observation", "oob_trees", "absent_trees", "proportion"],
        [
            (i, int(pooled_oob[i]), int(pooled_absent[i]), float(absence[i]))
            for i in range(dataset.n_rows)
        ],
    )

    stacked = {tok: np.vstack(rows) for tok, rows in paired.items()}
    buckets = paired_difference_summary(stacked, absence, cfg.bucket_width)
    _write_csv(
        out / "paired_differences.csv",
        ["first", "second", "bucket_low", "bucket_high", "count", "mean_diff", "lo95", "hi95", "excludes_zero"],
        [
            (
                b.first,
                b.second,
                b.bucket_low,
                b.bucket_high,
                b.count,
                b.mean,
                b.lo95,
                b.hi95,
                b.excludes_zero,
            )
            for b in buckets
        ],
    )

    _write_manifest(out, cfg, task, status="complete", failed=None, error=None, seeds=rep_seeds)
    return ExperimentResult(
        config=cfg,
        output_dir=out,
        task=task,
        replication_seeds=rep_seeds,
        forest_hashes=hashes,
        summary_rows=summary_rows,
        absence=absence,
    )


def _config_echo(cfg: ExperimentConfig) -> dict:
    obj = dataclasses.asdict(cfg)
    obj["heuristics"] = [h.token for h in cfg.heuristics]
    obj["baseline"] = None if cfg.baseline is None else [h.token for h in cfg.baseline]
    return obj


def _write_manifest(out: Path, cfg, task, status, failed, error, seeds) -> None:
    obj = {
        "library_version": __version__,
        "status": status,
        "task": task,
        "config": _config_echo(cfg),
        "replication_seeds": list(seeds),
    }
    if failed is not None:
        obj["failed_replication"] = failed
    if error is not None:
        obj["error"] = error
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_replication(
    out: Path,
    r: int,
    cfg: ExperimentConfig,
    dataset: Dataset,
    seed_r: int,
    tree_hashes: list[str],
    onehot_tree_hashes: list[str] | None,
    sets: dict[Heuristic, OOBPredictionSet],
    values_per_metric: dict[str, dict[str, float]],
    rel_per_metric: dict[str, dict[str, float]],
    kappas: list[tuple[str, str, float]],
) -> None:
    rep_dir = out / f"replication_{r}"
    rep_dir.mkdir(parents=True, exist_ok=True)

    rows: list[tuple] = []
    for metric in values_per_metric:
        for h in cfg.heuristics:
            rows.append((r, h.token, metric, values_per_metric[metric][h.token]))
    for metric in rel_per_metric:
        for h in cfg.heuristics:
            rows.append((r, h.token, f"{metric}_rel", rel_per_metric[metric][h.token]))
    for h1, h2, k in kappas:
        rows.append((r, f"{h1}|{h2}", "kappa", k))
    _write_csv(rep_dir / "metrics.csv", ["replication", "heuristic", "metric", "value"], rows)

    for h in cfg.heuristics:
        s = sets[h]
        if dataset.task == REGRESSION:
            header = ["observation", "prediction", "oob_trees", "absent_trees"]
            body = [
                (i, float(s.predictions[i]), int(s.oob_tree_counts[i]), int(s.absent_tree_counts[i]))
                for i in range(dataset.n_rows)
            ]
        else:
            labels = dataset.response.classes
            header = (
                ["observation", "prediction"]
                + [f"p_{c}" for c in labels]
                + ["oob_trees", "absent_trees"]
            )
            body = []
            for i in range(dataset.n_rows):
                pred = int(s.predictions[i])
                body.append(
                    (i, labels[pred - 1] if pred else "")
                    + tuple(float(p) for p in s.probabilities[i])
                    + (int(s.oob_tree_counts[i]), int(s.absent_tree_counts[i]))
                )
        _write_csv(rep_dir / f"oob_{h.token}.csv", header, body)

    manifest = {
        "replication": r,
        "seed": seed_r,
        "forest_hash": combine_tree_hashes(tree_hashes),
        "tree_hashes": tree_hashes,
    }
    if onehot_tree_hashes is not None:
        manifest["onehot_forest_hash"] = combine_tree_hashes(onehot_tree_hashes)
        manifest["onehot_tree_hashes"] = onehot_tree_hashes
    with open(rep_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
