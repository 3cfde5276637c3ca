"""Command-line interface: subcommands, file round trips, exit codes."""
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import absentrf
import absentrf.forest
import absentrf.splits
import absentrf.tree
from absentrf import synth
from absentrf.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from absentrf.data import (
    CATEGORICAL,
    NUMERIC,
    REGRESSION,
    RESPONSE_CLASS,
    RESPONSE_NUMERIC,
    ColumnSchema,
    ResponseSpec,
    from_arrays,
    load_schema,
    save_schema,
    write_csv,
)
from absentrf.forest import load_forest
from absentrf.heuristics import Heuristic
from absentrf.seeding import Coins
from absentrf.tree import route
from reference import tree_predict, tree_vote

ROUTED = [h for h in Heuristic if h is not Heuristic.ONE_HOT]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def regression_inputs(tmp_path, n=50, seed=3):
    rng = np.random.default_rng(seed)
    num = np.round(rng.normal(size=n), 2)
    make = np.repeat(np.arange(1, 6), [20, 14, 9, 5, 2])
    rng.shuffle(make)
    y = np.round(num * 3 + make * 2.0 + rng.normal(0, 0.5, n), 3)
    schema = (
        ColumnSchema("num", NUMERIC),
        ColumnSchema("make", CATEGORICAL, ("ash", "birch", "cedar", "dogwood", "elm")),
    )
    resp = ResponseSpec(RESPONSE_NUMERIC)
    ds = from_arrays(schema, resp, [num, make], y)
    data = tmp_path / "train.csv"
    spec = tmp_path / "schema.json"
    write_csv(ds, data)
    save_schema(spec, schema, resp)
    return ds, str(data), str(spec)


@pytest.fixture()
def trained(tmp_path):
    ds, data, spec = regression_inputs(tmp_path)
    model = tmp_path / "model.json"
    code = main(
        [
            "train", "--data", data, "--schema", spec, "--out", str(model),
            "--trees", "30", "--seed", "5",
        ]
    )
    assert code == EXIT_OK
    return ds, data, spec, str(model)


def test_train_writes_model(trained):
    _, _, _, model = trained
    forest = load_forest(model)
    assert forest.n_trees == 30
    assert forest.config.seed == 5


def test_train_grow_overrides(tmp_path):
    _, data, spec = regression_inputs(tmp_path)
    model = tmp_path / "m.json"
    code = main(
        [
            "train", "--data", data, "--schema", spec, "--out", str(model),
            "--trees", "5", "--mtry", "2", "--min-node-size", "12",
        ]
    )
    assert code == EXIT_OK
    cfg = load_forest(model).config.grow
    assert (cfg.mtry, cfg.min_node_size) == (2, 12)


def test_predict_labeled_and_unlabeled(trained, tmp_path):
    _, data, spec, model = trained
    out = tmp_path / "pred.csv"
    code = main(
        ["predict", "--data", data, "--schema", spec, "--model", model,
         "--heuristic", "left", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert list(rows[0].keys()) == ["observation", "prediction", "absent_trees"]
    assert len(rows) == 50

    unlabeled = tmp_path / "new.csv"
    unlabeled.write_text("0.5,ash\n-1.2,elm\n")
    code = main(
        ["predict", "--data", str(unlabeled), "--schema", spec, "--model", model,
         "--heuristic", "majority", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2
    # elm occurs twice in training, so some bootstraps never see it
    assert int(rows[1]["absent_trees"]) > 0
    float(rows[0]["prediction"])  # parses


def test_predict_left_right_differ_only_on_flagged_rows(trained, tmp_path):
    _, data, spec, model = trained
    outs = {}
    for h in ("left", "right"):
        path = tmp_path / f"{h}.csv"
        assert main(
            ["predict", "--data", data, "--schema", spec, "--model", model,
             "--heuristic", h, "--out", str(path)]
        ) == EXIT_OK
        outs[h] = read_rows(path)
    for a, b in zip(outs["left"], outs["right"]):
        assert a["absent_trees"] == b["absent_trees"]
        if int(a["absent_trees"]) == 0:
            assert a["prediction"] == b["prediction"]


def test_predict_replays_random_heuristic_exactly(trained, tmp_path):
    _, data, spec, model = trained
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(
            ["predict", "--data", data, "--schema", spec, "--model", model,
             "--heuristic", "random", "--coin-seed", "123", "--out", str(path)]
        ) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_predict_rejects_onehot(trained, tmp_path, capsys):
    _, data, spec, model = trained
    code = main(
        ["predict", "--data", data, "--schema", spec, "--model", model, "--heuristic", "onehot"]
    )
    assert code == EXIT_DATA
    assert "onehot" in capsys.readouterr().err


def test_predict_rejects_unknown_heuristic(trained, capsys):
    _, data, spec, model = trained
    code = main(
        ["predict", "--data", data, "--schema", spec, "--model", model, "--heuristic", "sideways"]
    )
    assert code == EXIT_DATA
    assert "unknown heuristic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [None, lambda obj: obj["columns"][1]["levels"].__setitem__(0, "red"), lambda obj: obj["response"]["classes"].pop()],
    ids=["missing-file", "renamed-level", "other-classes"],
)
def test_predict_rejects_a_schema_other_than_the_models(tmp_path, capsys, edit):
    _, data, spec = classification_inputs(tmp_path)
    model, other, out = tmp_path / "model.json", tmp_path / "other.json", tmp_path / "pred.csv"
    assert main(["train", "--data", data, "--schema", spec, "--out", str(model), "--trees", "5"]) == EXIT_OK
    capsys.readouterr()
    if edit is not None:
        obj = json.loads(Path(spec).read_text())
        edit(obj)
        other.write_text(json.dumps(obj))
    argv = ["predict", "--data", data, "--schema", str(other), "--model", str(model), "--heuristic", "left"]
    assert main(argv + ["--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert ("No such file" if edit is None else "schema differs from the one in the model dump") in err
    assert not out.exists()


def test_predict_output_is_unchanged_under_an_equal_schema(tmp_path):
    # the same schema written another way (keys reordered, no indent)
    _, data, spec = classification_inputs(tmp_path)
    model, same = tmp_path / "model.json", tmp_path / "same.json"
    assert main(["train", "--data", data, "--schema", spec, "--out", str(model), "--trees", "5"]) == EXIT_OK
    obj = json.loads(Path(spec).read_text())
    same.write_text(json.dumps(dict(reversed(list(obj.items())))))
    outs = []
    for schema in (spec, str(same)):
        outs.append(tmp_path / f"{len(outs)}.csv")
        argv = ["predict", "--data", data, "--schema", schema, "--model", str(model), "--heuristic", "dbi"]
        assert main(argv + ["--out", str(outs[-1])]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes() != b""


def classification_inputs(tmp_path, n=60, seed=4):
    """Three classes; the 6-level colour column has rare levels, so
    bootstraps miss them and rows meet absent levels."""
    rng = np.random.default_rng(seed)
    num = np.round(rng.normal(size=n), 2)
    colour = np.repeat(np.arange(1, 7), [22, 15, 10, 7, 4, 2])
    rng.shuffle(colour)
    score = num + np.array([0.9, -0.6, 0.2, -1.1, 1.3, -0.3])[colour - 1] + rng.normal(0, 0.6, n)
    y = np.digitize(score, [-0.5, 0.5]) + 1
    schema = (
        ColumnSchema("num", NUMERIC),
        ColumnSchema("colour", CATEGORICAL, tuple("rgbcmy")),
    )
    resp = ResponseSpec(RESPONSE_CLASS, ("low", "mid", "high"))
    ds = from_arrays(schema, resp, [num, colour], y)
    data = tmp_path / "cls.csv"
    spec = tmp_path / "cls.json"
    write_csv(ds, data)
    save_schema(spec, schema, resp)
    return ds, str(data), str(spec)


def reference_rows(forest, ds, policy, coins):
    """Expected predict CSV rows from the reference router: each row's
    tree outputs summed left to right in tree order."""
    rows, x = [], ds.matrix()
    for i in range(ds.n_rows):
        traces = [route(t, x[i], policy, coins, i) for t in forest.tree_dicts]
        absent = str(sum(tr.absent_encountered for tr in traces))
        if forest.task == REGRESSION:
            total = 0.0
            for tr, t in zip(traces, forest.tree_dicts):
                total += tree_predict(tr, t)
            rows.append([str(i), repr(total / forest.n_trees), absent])
        else:
            votes = [tree_vote(tr, t) for tr, t in zip(traces, forest.tree_dicts)]
            counts = [votes.count(k) for k in range(1, forest.n_classes + 1)]
            label = forest.response.classes[counts.index(max(counts))]
            shares = [repr(c / forest.n_trees) for c in counts]
            rows.append([str(i), label] + shares + [absent])
    return rows


@pytest.mark.parametrize("inputs", [regression_inputs, classification_inputs])
def test_predict_matches_reference_router(tmp_path, inputs):
    ds, data, spec = inputs(tmp_path)
    model = tmp_path / "model.json"
    assert main(
        ["train", "--data", data, "--schema", spec, "--out", str(model),
         "--trees", "15", "--seed", "8"]
    ) == EXIT_OK
    forest = load_forest(model)
    coins = Coins(master=forest.config.seed)
    for policy in ROUTED:
        out = tmp_path / f"{policy.token}.csv"
        assert main(
            ["predict", "--data", data, "--schema", spec, "--model", str(model),
             "--heuristic", policy.token, "--out", str(out)]
        ) == EXIT_OK
        with open(out, newline="") as fh:
            got = list(csv.reader(fh))[1:]
        expected = reference_rows(forest, ds, policy, coins)
        assert got == expected, policy
        assert any(int(row[-1]) > 0 for row in expected)  # absent levels were met


def _child_far_out_of_range(dump):
    split = next(n["split"] for n in dump["trees"][0]["nodes"] if n["split"])
    split["left"] = 10**6


def _children_point_at_root(dump):
    for tree in dump["trees"]:
        for node in tree["nodes"]:
            if node["split"]:
                node["split"]["left"] = node["split"]["right"] = 0


def _node_without_size(dump):
    del dump["trees"][0]["nodes"][1]["size"]


def _predictor_outside_schema(dump):
    split = next(n["split"] for n in dump["trees"][0]["nodes"] if n["split"])
    split["predictor"] = 99


def _zero_daughter_sizes(dump):
    split = next(n["split"] for n in dump["trees"][0]["nodes"] if n["split"])
    split["left_size"] = split["right_size"] = 0


def _in_bag_missing_a_tree(dump):
    dump["in_bag"].pop()


def _in_bag_count_beyond_int64(dump):
    dump["in_bag"][0][0] = 2**70


def _column_name_not_a_string(dump):
    dump["data"]["columns"][0]["name"] = ["num"]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_in_bag_missing_a_tree, "in_bag has shape"),
        (_child_far_out_of_range, "child id 1000000"),
        (_children_point_at_root, "child id 0"),
        (_node_without_size, "missing key 'size'"),
        (_predictor_outside_schema, "predictor 99"),
        (_zero_daughter_sizes, "left_size 0 is below 1"),
        (_in_bag_count_beyond_int64, "too large"),
        (_column_name_not_a_string, "must be strings"),
    ],
)
def test_predict_rejects_malformed_model_dump(trained, tmp_path, capsys, corrupt, message):
    _, data, spec, model = trained
    with open(model) as fh:
        dump = json.load(fh)
    corrupt(dump)
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(dump))
    code = main(
        ["predict", "--data", data, "--schema", spec, "--model", str(bad), "--heuristic", "left"]
    )
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err


# the audit CSV of ``inspect`` on the bridge model below
GOLDEN_INSPECT = "82de9395ff52ddcb7f337d049a9651d38806649a3c30767de8aa186f1aa4dac9"


@pytest.fixture(scope="module")
def bridge_model(tmp_path_factory):
    """The golden 40-tree bridge model: (``--data``/``--schema`` args, model path)."""
    tmp = tmp_path_factory.mktemp("bridge")
    d = synth.bridge_multiclass(0)
    data, schema, model = tmp / "d.csv", tmp / "s.json", tmp / "m.json"
    write_csv(d, data)
    save_schema(schema, d.schema, d.response)
    common = ["--data", str(data), "--schema", str(schema)]
    assert main(["train", *common, "--out", str(model), "--trees", "40", "--seed", "7"]) == EXIT_OK
    return common, model


def test_inspect_output_is_unchanged(bridge_model, tmp_path):
    _, model = bridge_model
    audit = tmp_path / "audit.csv"
    assert main(["inspect", "--model", str(model), "--out", str(audit)]) == EXIT_OK
    assert hashlib.sha256(audit.read_bytes()).hexdigest() == GOLDEN_INSPECT


def test_predict_builds_no_tree_objects(bridge_model, tmp_path, monkeypatch):
    """``predict``, hashing and ``inspect`` read the trees of the dump as
    they are: with both rule constructors failing, ``predict`` still
    writes the golden tables, the forest hashes, and ``inspect`` audits
    every categorical split."""
    from test_golden import GOLDEN_PREDICT

    common, model = bridge_model

    def refuse(*args, **kwargs):
        raise AssertionError("a tree object was built")

    audit = tmp_path / "audit.csv"
    with monkeypatch.context() as m:
        for module in (absentrf.splits, absentrf.tree):
            for name in {"OrderedRule", "CategoricalRule"} & set(vars(module)):
                m.setattr(module, name, refuse)
        for token, digest in GOLDEN_PREDICT.items():
            out = tmp_path / f"{token}.csv"
            argv = ["predict", *common, "--model", str(model), "--heuristic", token, "--out", str(out)]
            assert main(argv) == EXIT_OK
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, token
        digest = absentrf.forest.forest_hash(load_forest(model))
        assert main(["inspect", "--model", str(model), "--out", str(audit)]) == EXIT_OK
    trees = load_forest(model).tree_dicts
    assert digest == absentrf.forest.combine_tree_hashes([absentrf.tree.structure_hash(t) for t in trees])
    categorical = [n for t in trees for n in t["nodes"] if n["split"] and n["split"]["kind"] == "categorical"]
    assert len(read_rows(audit)) == len(categorical) > 0


def test_transform_emits_dummies(tmp_path):
    _, data, spec = regression_inputs(tmp_path)
    out_data = tmp_path / "wide.csv"
    out_schema = tmp_path / "wide.json"
    code = main(
        ["transform", "--data", data, "--schema", spec,
         "--out-data", str(out_data), "--out-schema", str(out_schema)]
    )
    assert code == EXIT_OK
    schema, response = load_schema(out_schema)
    assert [c.name for c in schema] == [
        "num", "make=ash", "make=birch", "make=cedar", "make=dogwood", "make=elm",
    ]
    assert all(c.kind == NUMERIC for c in schema)
    with open(out_data, newline="") as fh:
        row = next(csv.reader(fh))
    assert len(row) == 7  # 6 predictors + response
    assert sorted(row[1:6]) == ["0.0", "0.0", "0.0", "0.0", "1.0"]


def test_inspect_audits_categorical_splits(trained, tmp_path):
    _, _, _, model = trained
    out = tmp_path / "audit.csv"
    assert main(["inspect", "--model", model, "--out", str(out)]) == EXIT_OK
    rows = read_rows(out)
    assert rows  # the make column must have been split on somewhere
    for r in rows:
        assert r["predictor"] == "make"
        left = set(r["left_levels"].split("|"))
        present = set(r["present_levels"].split("|"))
        assert left < present
        assert float(r["pseudo_split"]) == float(r["pseudo_split"])  # populated, parses
        assert int(r["bitmask"]) > 0
        if r["absent_levels"]:
            assert set(r["absent_levels"].split("|")).isdisjoint(present)


def test_experiment_subcommand(tmp_path):
    rng = np.random.default_rng(1)
    n = 36
    num = np.round(rng.normal(size=n), 2)
    grp = np.repeat(np.arange(1, 5), [18, 9, 6, 3])
    rng.shuffle(grp)
    y = ((num + (grp % 2)) > 0.5).astype(np.int64) + 1
    schema = (ColumnSchema("num", NUMERIC), ColumnSchema("grp", CATEGORICAL, tuple("wxyz")))
    resp = ResponseSpec(RESPONSE_CLASS, ("lo", "hi"))
    ds = from_arrays(schema, resp, [num, grp], y)
    data = tmp_path / "d.csv"
    spec = tmp_path / "s.json"
    write_csv(ds, data)
    save_schema(spec, schema, resp)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset_path": str(data),
                "schema_path": str(spec),
                "output_dir": str(tmp_path / "out"),
                "heuristics": ["left", "stop", "dbi"],
                "replications": 1,
                "n_trees": 20,
                "seed": 3,
            }
        )
    )
    assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "summary.csv").is_file()


@pytest.mark.parametrize("flag", ["--trees", "--sample-size"])
def test_train_refuses_a_huge_count_with_the_runtime_code(tmp_path, capsys, flag):
    # numpy refuses the petabyte array before it allocates anything
    _, data, spec = regression_inputs(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train", "--data", data, "--schema", spec, "--out", str(model), "--trees", "2"]
    code = main(argv + [flag, "10000000000000"])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_train_rejects_workers_below_one(tmp_path, capsys, workers):
    _, data, spec = regression_inputs(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train", "--data", data, "--schema", spec, "--out", str(model), "--trees", "2"]
    assert main(argv + ["--workers", workers]) == EXIT_DATA
    assert "error: workers must be at least 1" in capsys.readouterr().err
    assert not model.exists()


def test_experiment_failure_exit_code(tmp_path, capsys):
    _, data, spec = regression_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset_path": data,
                "schema_path": spec,
                "output_dir": str(tmp_path / "out"),
                "heuristics": ["left"],
                "replications": 1,
                "n_trees": 1,
            }
        )
    )
    code = main(["experiment", "--config", str(cfg)])
    assert code == EXIT_RUNTIME
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("log_loss_eps", 0.7),
        ("log_loss_eps", 0.0),
        ("sample_size", 0),
        ("mtry", 99),
        ("exhaustive_max_q_binary", 60),
        ("exhaustive_max_q_multiclass", 17),
        ("n_trees", "20"),
        ("replications", "1"),
        ("workers", "1"),
        ("sample_size", "30"),
        ("mtry", "2"),
        ("log_loss_eps", "0.1"),
        ("heuristics", 5),
        ("baseline", 5),
        ("heuristics", ["left", []]),
        ("baseline", [["dbi"]]),
    ],
)
def test_experiment_rejects_bad_config_before_training(tmp_path, capsys, field, value):
    _, data, spec = classification_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset_path": data,
                "schema_path": spec,
                "output_dir": str(tmp_path / "out"),
                "heuristics": ["left", "dbi"],
                "replications": 1,
                "n_trees": 20,
                field: value,
            }
        )
    )
    code = main(["experiment", "--config", str(cfg)])
    assert code == EXIT_DATA
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "replication_0").exists()


def test_missing_files_exit_cleanly(tmp_path, capsys):
    code = main(
        ["train", "--data", str(tmp_path / "nope.csv"), "--schema", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_bad_csv_exits_with_data_code(tmp_path, capsys):
    _, data, spec = regression_inputs(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("not-a-number,ash,1.0\n")
    code = main(["train", "--data", str(bad), "--schema", spec, "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    assert "not numeric" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "transform", "predict", "experiment"])
def test_a_field_beyond_the_csv_field_limit_exits_with_data_code(trained, tmp_path, capsys, command):
    _, _, spec, model = trained
    big = tmp_path / "big.csv"
    big.write_text("0.5,ash,1.0\n" + "7" * (csv.field_size_limit() + 1) + ",ash,1.0\n")
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    config = {"dataset_path": str(big), "schema_path": spec, "output_dir": out, "heuristics": ["left"]}
    cfg.write_text(json.dumps(config))
    data = ["--data", str(big), "--schema", spec]
    argv = {
        "train": ["train", *data, "--out", str(tmp_path / "m.json")],
        "transform": ["transform", *data, "--out-data", out + ".csv", "--out-schema", out + ".json"],
        "predict": ["predict", *data, "--model", model, "--heuristic", "left"],
        "experiment": ["experiment", "--config", str(cfg)],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {big}: line 2: field larger than field limit") and "Traceback" not in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    # the child imports the package these tests import, installed or not
    src = str(Path(absentrf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "absentrf.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "absentrf" in proc.stdout
