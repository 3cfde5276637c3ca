"""End-to-end experiment harness tests: file contracts, pairing, determinism."""
import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from absentrf.data import (
    CATEGORICAL,
    NUMERIC,
    RESPONSE_CLASS,
    ColumnSchema,
    ResponseSpec,
    from_arrays,
    ingest_csv,
    load_schema,
    one_hot_transform,
    save_schema,
    write_csv,
)
from absentrf import experiment
from absentrf.experiment import (
    ConfigError,
    ExperimentConfig,
    load_experiment_config,
    run_experiment,
    run_experiment_on,
)
from absentrf.forest import ForestConfig, forest_hash, forest_tree_hashes, train_forest, train_forests
from absentrf.heuristics import Heuristic
from absentrf.metrics import cohen_kappa, log_loss
from absentrf.synth import bridge_multiclass, rollcall_binary

ALL = (
    Heuristic.LEFT,
    Heuristic.RIGHT,
    Heuristic.STOP,
    Heuristic.MAJORITY,
    Heuristic.RANDOM,
    Heuristic.DBI,
    Heuristic.ONE_HOT,
)
BASELINE_TOKENS = ["stop", "majority", "random", "dbi"]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def write_inputs(dirpath: Path, dataset) -> tuple[str, str]:
    data = dirpath / "data.csv"
    schema = dirpath / "schema.json"
    write_csv(dataset, data)
    save_schema(schema, dataset.schema, dataset.response)
    return str(data), str(schema)


def small_binary_dataset():
    """40 rows; the 6-level state column has sizes 14..1, so the rare
    levels drop out of bootstraps and absence flags actually occur."""
    rng = np.random.default_rng(12)
    n = 40
    num = np.round(rng.normal(size=n), 2)
    state = np.repeat(np.arange(1, 7), [14, 10, 8, 5, 2, 1])
    rng.shuffle(state)
    lean = np.array([0.8, -0.5, 0.3, -0.9, 0.6, -0.2])[state - 1]
    y = ((num + lean + rng.normal(0, 0.8, n)) > 0.2).astype(np.int64) + 1
    schema = (
        ColumnSchema("num", NUMERIC),
        ColumnSchema("state", CATEGORICAL, tuple("ABCDEF")),
    )
    resp = ResponseSpec(RESPONSE_CLASS, ("nay", "yea"))
    return from_arrays(schema, resp, [num, state], y)


@pytest.fixture(scope="session")
def bridge_run(tmp_path_factory):
    """One full multiclass experiment shared by the file-contract tests."""
    root = tmp_path_factory.mktemp("bridge")
    data, schema = write_inputs(root, bridge_multiclass())
    out = root / "out"
    cfg = ExperimentConfig(
        dataset_path=data,
        schema_path=schema,
        output_dir=str(out),
        heuristics=ALL,
        replications=2,
        n_trees=40,
        seed=9,
    )
    result = run_experiment(cfg)
    return cfg, result, out


# ---------------------------------------------------------------------------
# output contracts


def test_expected_files_exist(bridge_run):
    _, _, out = bridge_run
    for name in ("summary.csv", "absence_proportions.csv", "paired_differences.csv", "manifest.json"):
        assert (out / name).is_file()
    for r in (0, 1):
        rep = out / f"replication_{r}"
        assert (rep / "metrics.csv").is_file()
        assert (rep / "manifest.json").is_file()
        for h in ALL:
            assert (rep / f"oob_{h.token}.csv").is_file()


def test_top_manifest(bridge_run):
    cfg, result, out = bridge_run
    m = json.loads((out / "manifest.json").read_text())
    assert m["status"] == "complete"
    assert m["task"] == "classification"
    assert m["config"]["heuristics"] == [h.token for h in ALL]
    assert m["config"]["n_trees"] == 40
    assert m["replication_seeds"] == result.replication_seeds
    assert len(m["replication_seeds"]) == 2
    assert "library_version" in m
    assert "timestamp" not in json.dumps(m).lower()


def test_replication_manifests_record_forest_hashes(bridge_run):
    _, result, out = bridge_run
    for r in (0, 1):
        m = json.loads((out / f"replication_{r}" / "manifest.json").read_text())
        assert m["forest_hash"] == result.forest_hashes[r]
        assert len(m["tree_hashes"]) == 40
        assert m["onehot_forest_hash"] != m["forest_hash"]
        assert len(m["onehot_tree_hashes"]) == 40
        assert m["seed"] == result.replication_seeds[r]
    # independent replications draw different forests
    assert result.forest_hashes[0] != result.forest_hashes[1]


def test_replication_manifest_hashes_match_a_retrained_forest(bridge_run):
    cfg, _, out = bridge_run
    dataset, _ = ingest_csv(cfg.dataset_path, *load_schema(cfg.schema_path))
    m = json.loads((out / "replication_1" / "manifest.json").read_text())
    for data, hash_key, trees_key in (
        (dataset, "forest_hash", "tree_hashes"),
        (one_hot_transform(dataset), "onehot_forest_hash", "onehot_tree_hashes"),
    ):
        forest = train_forest(data, ForestConfig(n_trees=cfg.n_trees, seed=m["seed"]))
        assert forest_hash(forest) == m[hash_key]
        assert forest_tree_hashes(forest) == m[trees_key]


def test_summary_layout(bridge_run):
    _, _, out = bridge_run
    rows = read_rows(out / "summary.csv")
    assert list(rows[0].keys()) == ["kind", "heuristic", "metric", "stat", "value"]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"metric", "relative", "wins", "absence"}
    # multiclass: log_loss is the only headline metric, six stats per heuristic
    for h in ALL:
        stats = [r["stat"] for r in rows if r["kind"] == "metric" and r["heuristic"] == h.token]
        assert stats == ["min", "q1", "median", "mean", "q3", "max"]
    # wins only for the baseline set, summing to the replication count
    wins = [r for r in rows if r["kind"] == "wins"]
    assert {r["heuristic"] for r in wins} == set(BASELINE_TOKENS)
    assert sum(int(r["value"]) for r in wins) == 2


def test_absence_table(bridge_run):
    _, result, out = bridge_run
    rows = read_rows(out / "absence_proportions.csv")
    assert len(rows) == 72
    for r in rows:
        oob, absent = int(r["oob_trees"]), int(r["absent_trees"])
        assert 0 <= absent <= oob
        assert float(r["proportion"]) == pytest.approx(absent / oob)
    props = np.array([float(r["proportion"]) for r in rows])
    assert np.array_equal(props, result.absence)
    assert props.max() > 0.3  # the near-unique location column guarantees absence


def test_paired_difference_table(bridge_run):
    cfg, _, out = bridge_run
    rows = read_rows(out / "paired_differences.csv")
    n_pairs = 7 * 6 // 2
    n_buckets = 20
    assert len(rows) == n_pairs * n_buckets
    for first, second in {(r["first"], r["second"]) for r in rows}:
        pair_rows = [r for r in rows if r["first"] == first and r["second"] == second]
        assert len(pair_rows) == n_buckets
        # every (replication, observation) difference lands in some bucket
        assert sum(int(r["count"]) for r in pair_rows) == 2 * 72
    empty = [r for r in rows if int(r["count"]) == 0]
    assert all(r["mean_diff"] == "" and r["excludes_zero"] == "false" for r in empty)


def test_replication_metrics_layout(bridge_run):
    _, _, out = bridge_run
    rows = read_rows(out / "replication_0" / "metrics.csv")
    by_metric: dict[str, list] = {}
    for r in rows:
        by_metric.setdefault(r["metric"], []).append(r)
    assert {r["heuristic"] for r in by_metric["log_loss"]} == {h.token for h in ALL}
    assert {r["heuristic"] for r in by_metric["log_loss_rel"]} == {h.token for h in ALL}
    assert len(by_metric["kappa"]) == 7 * 6 // 2
    assert all("|" in r["heuristic"] for r in by_metric["kappa"])


def test_relative_zero_lands_on_exactly_one_baseline_member(bridge_run):
    _, _, out = bridge_run
    for r in (0, 1):
        rows = read_rows(out / f"replication_{r}" / "metrics.csv")
        rel = {row["heuristic"]: float(row["value"]) for row in rows if row["metric"] == "log_loss_rel"}
        zeros = [tok for tok in BASELINE_TOKENS if rel[tok] == 0.0]
        assert len(zeros) == 1
        assert all(rel[tok] >= 0.0 for tok in BASELINE_TOKENS)


def test_logged_metrics_recompute_from_oob_files(bridge_run):
    _, _, out = bridge_run
    ds = bridge_multiclass()
    classes = ds.response.classes
    rep = out / "replication_0"
    oob = {h: read_rows(rep / f"oob_{h}.csv") for h in ("left", "stop")}
    probs = {
        h: np.array([[float(r[f"p_{c}"]) for c in classes] for r in rows])
        for h, rows in oob.items()
    }
    preds = {
        h: np.array([classes.index(r["prediction"]) + 1 for r in rows])
        for h, rows in oob.items()
    }
    metrics = read_rows(rep / "metrics.csv")
    logged = {(r["heuristic"], r["metric"]): float(r["value"]) for r in metrics}
    eps = 1.0 / (2 * 40)  # the documented default for a 40-tree forest
    assert logged[("left", "log_loss")] == pytest.approx(log_loss(probs["left"], ds.y, eps), rel=1e-12)
    assert logged[("left|stop", "kappa")] == pytest.approx(
        cohen_kappa(preds["left"], preds["stop"], len(classes)), rel=1e-12
    )


def test_heuristics_disagree_only_on_flagged_rows(bridge_run):
    _, _, out = bridge_run
    rep = out / "replication_1"
    left = read_rows(rep / "oob_left.csv")
    right = read_rows(rep / "oob_right.csv")
    flags_seen = 0
    for a, b in zip(left, right):
        assert a["oob_trees"] == b["oob_trees"]
        assert a["absent_trees"] == b["absent_trees"]
        if int(a["absent_trees"]) == 0:
            assert a == b
        else:
            flags_seen += 1
    assert flags_seen > 0


# ---------------------------------------------------------------------------
# determinism


def test_rerun_and_worker_count_reproduce_bytes(tmp_path):
    data, schema = write_inputs(tmp_path, small_binary_dataset())
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        dataset_path=data,
        schema_path=schema,
        output_dir=str(out),
        heuristics=(Heuristic.LEFT, Heuristic.RANDOM, Heuristic.DBI, Heuristic.ONE_HOT),
        replications=2,
        n_trees=25,
        seed=4,
    )
    run_experiment(cfg)
    first = snapshot(out)
    shutil.rmtree(out)
    run_experiment(cfg)
    assert snapshot(out) == first

    shutil.rmtree(out)
    run_experiment(dataclasses.replace(cfg, workers=2))
    third = snapshot(out)
    # the top manifest echoes the workers setting; everything else is identical
    assert set(third) == set(first)
    for name in first:
        if name != "manifest.json":
            assert third[name] == first[name], name


def test_replications_are_seed_isolated(tmp_path):
    data, schema = write_inputs(tmp_path, small_binary_dataset())
    one = tmp_path / "one"
    two = tmp_path / "two"
    base = dict(
        dataset_path=data,
        schema_path=schema,
        heuristics=(Heuristic.STOP, Heuristic.DBI),
        n_trees=25,
        seed=77,
    )
    run_experiment(ExperimentConfig(output_dir=str(one), replications=1, **base))
    run_experiment(ExperimentConfig(output_dir=str(two), replications=2, **base))
    assert snapshot(one / "replication_0") == snapshot(two / "replication_0")


def test_onehot_only_run(tmp_path):
    data, schema = write_inputs(tmp_path, small_binary_dataset())
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        dataset_path=data,
        schema_path=schema,
        output_dir=str(out),
        heuristics=(Heuristic.ONE_HOT,),
        replications=1,
        n_trees=15,
        seed=2,
    )
    result = run_experiment(cfg)
    assert np.nanmax(result.absence) == 0.0  # dummy columns never hit absent levels
    rows = read_rows(out / "summary.csv")
    assert not [r for r in rows if r["kind"] in ("relative", "wins")]  # no baseline
    assert read_rows(out / "paired_differences.csv") == []


def test_onehot_forest_follows_the_config_growth_settings(tmp_path, monkeypatch):
    dataset = rollcall_binary(0)
    onehot_forests = []

    def train_and_keep(pairs, workers=1):
        forests = train_forests(pairs, workers=workers)
        onehot_forests.extend(forest for (data, _), forest in zip(pairs, forests) if data is not dataset)
        return forests

    monkeypatch.setattr(experiment, "train_forests", train_and_keep)
    base = dict(
        dataset_path="data.csv",
        schema_path="schema.json",
        heuristics=(Heuristic.LEFT, Heuristic.ONE_HOT),
        replications=1,
        n_trees=20,
        seed=11,
    )
    run_experiment_on(ExperimentConfig(output_dir=str(tmp_path / "unset"), **base), dataset)
    run_experiment_on(ExperimentConfig(output_dir=str(tmp_path / "set"), min_node_size=40, **base), dataset)
    split_sizes = [node["size"] for tree in onehot_forests[1].tree_dicts for node in tree["nodes"] if node["split"]]
    assert split_sizes and min(split_sizes) > 40
    name = "replication_0/oob_onehot.csv"
    assert (tmp_path / "unset" / name).read_bytes() != (tmp_path / "set" / name).read_bytes()


# ---------------------------------------------------------------------------
# failure handling


def test_failed_replication_writes_manifest_and_raises(tmp_path):
    data, schema = write_inputs(tmp_path, small_binary_dataset())
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        dataset_path=data,
        schema_path=schema,
        output_dir=str(out),
        heuristics=(Heuristic.LEFT,),
        replications=1,
        n_trees=1,  # in-bag rows of the single tree are never out of bag
        seed=0,
    )
    with pytest.raises(RuntimeError, match="replication 0 failed"):
        run_experiment(cfg)
    m = json.loads((out / "manifest.json").read_text())
    assert m["status"] == "failed"
    assert m["failed_replication"] == 0
    assert "out of bag" in m["error"]


def test_unknown_positive_class_fails_before_training(tmp_path):
    data, schema = write_inputs(tmp_path, small_binary_dataset())
    cfg = ExperimentConfig(
        dataset_path=data,
        schema_path=schema,
        output_dir=str(tmp_path / "out"),
        heuristics=(Heuristic.LEFT,),
        replications=1,
        n_trees=10,
        positive_class="abstain",
    )
    with pytest.raises(ConfigError, match="positive class"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# config validation


def cfg_kwargs(**over):
    base = dict(
        dataset_path="d.csv",
        schema_path="s.json",
        output_dir="out",
        heuristics=(Heuristic.LEFT, Heuristic.STOP),
    )
    base.update(over)
    return base


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(**cfg_kwargs(replications=0))
    with pytest.raises(ConfigError):
        ExperimentConfig(**cfg_kwargs(n_trees=0))
    with pytest.raises(ConfigError):
        ExperimentConfig(**cfg_kwargs(heuristics=()))
    with pytest.raises(ConfigError):
        ExperimentConfig(**cfg_kwargs(heuristics=(Heuristic.LEFT, Heuristic.LEFT)))
    with pytest.raises(ConfigError):
        ExperimentConfig(**cfg_kwargs(workers=0))
    with pytest.raises(ConfigError):
        ExperimentConfig(**cfg_kwargs(bucket_width=0.0))


def test_config_stores_numpy_integer_counts_as_ints():
    cfg = ExperimentConfig(**cfg_kwargs(n_trees=np.int64(3), mtry=np.int64(2), seed=np.uint8(7)))
    assert [type(v) for v in (cfg.n_trees, cfg.mtry, cfg.seed, cfg.sample_size)] == [int, int, int, type(None)]
    with pytest.raises(TypeError):
        ExperimentConfig(**cfg_kwargs(n_trees=2.0))


def test_baseline_resolution():
    cfg = ExperimentConfig(**cfg_kwargs(heuristics=(Heuristic.LEFT, Heuristic.DBI, Heuristic.STOP)))
    assert cfg.resolved_baseline() == (Heuristic.STOP, Heuristic.DBI)  # canonical order
    cfg = ExperimentConfig(**cfg_kwargs(baseline=(Heuristic.STOP,)))
    assert cfg.resolved_baseline() == (Heuristic.STOP,)
    with pytest.raises(ConfigError, match="directional"):
        ExperimentConfig(**cfg_kwargs(baseline=(Heuristic.LEFT,))).resolved_baseline()
    with pytest.raises(ConfigError, match="not in the heuristic list"):
        ExperimentConfig(**cfg_kwargs(baseline=(Heuristic.DBI,))).resolved_baseline()


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "dataset_path": "d.csv",
                "schema_path": "s.json",
                "output_dir": "out",
                "heuristics": ["left", "stop", "onehot"],
                "baseline": ["stop"],
                "replications": 3,
                "n_trees": 11,
                "positive_class": "yea",
            }
        )
    )
    cfg = load_experiment_config(path)
    assert cfg.heuristics == (Heuristic.LEFT, Heuristic.STOP, Heuristic.ONE_HOT)
    assert cfg.baseline == (Heuristic.STOP,)
    assert (cfg.replications, cfg.n_trees, cfg.positive_class) == (3, 11, "yea")


def test_load_config_rejects_malformed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_experiment_config(path)
    path.write_text('{"dataset_path": "d", "schema_path": "s", "heuristics": ["left"]}')
    with pytest.raises(ConfigError, match="missing required"):
        load_experiment_config(path)
    path.write_text(
        '{"dataset_path": "d", "schema_path": "s", "output_dir": "o", '
        '"heuristics": ["left"], "bogus": 1}'
    )
    with pytest.raises(ConfigError, match="unknown config fields"):
        load_experiment_config(path)
    path.write_text(
        '{"dataset_path": "d", "schema_path": "s", "output_dir": "o", "heuristics": ["leftish"]}'
    )
    with pytest.raises(ConfigError, match="unknown heuristic"):
        load_experiment_config(path)
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment_config(path)
