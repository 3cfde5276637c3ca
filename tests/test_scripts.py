"""Smoke tests of the helper scripts, run as a user runs them."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def write_config(path, dataset_path, schema_path, output_dir):
    path.write_text(
        json.dumps(
            {
                "dataset_path": str(dataset_path),
                "schema_path": str(schema_path),
                "output_dir": str(output_dir),
                "heuristics": ["left", "dbi"],
                "replications": 1,
                "n_trees": 30,
                "seed": 2,
            }
        )
    )


def test_make_synthetic_then_run_all_experiments(tmp_path):
    data = tmp_path / "data"
    proc = run_script("make_synthetic.py", "--only", "bridge", "--out-dir", data)
    assert proc.returncode == 0, proc.stderr
    assert (data / "bridge.csv").is_file() and (data / "bridge.schema.json").is_file()

    cfg = tmp_path / "bridge.json"
    write_config(cfg, data / "bridge.csv", data / "bridge.schema.json", tmp_path / "out")
    proc = run_script("run_all_experiments.py", cfg)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 1 configs complete" in proc.stdout
    assert "left      mean log_loss = " in proc.stdout
    assert "dbi       mean log_loss = " in proc.stdout
    assert "median absence proportion = " in proc.stdout
    assert (tmp_path / "out" / "summary.csv").is_file()


def test_run_all_experiments_reports_a_failed_config(tmp_path):
    cfg = tmp_path / "broken.json"
    write_config(cfg, tmp_path / "missing.csv", tmp_path / "missing.json", tmp_path / "out")
    proc = run_script("run_all_experiments.py", cfg)
    assert proc.returncode == 1
    assert "FAILED" in proc.stdout
    assert "1 of 1 configs failed" in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(op_ref_s, output_bytes, correct=True):
    metrics = {"op_ref_s": {"value": op_ref_s, "unit": "s"}, "output_bytes": {"value": output_bytes, "unit": "bytes"}}
    return json.dumps({"correct": correct, "attempted": 4, "failed": 0 if correct else 1, "metrics": metrics})


def test_paired_bench_summarizes_alternated_pairs():
    bench = load_script("paired_bench")
    assert bench.parse_seeds("3,51-53") == [3, 51, 52, 53]
    report = json.dumps({"workload": "rollcall-experiment", "timings": {}})
    canned = {  # seed -> (base, change) op_ref_s; output_bytes equal but on seed 53
        51: (0.40, 0.35),
        52: (0.38, 0.39),
        53: (0.42, 0.30),
        54: (0.36, 0.36),
    }
    runs = []
    for seed, (base, change) in canned.items():
        for side, value in (("base", base), ("change", change)):
            run = bench.parse_result(report + "\n" + result_line(value, 100.0 - (seed == 53) * (side == "change")))
            runs.append({"seed": seed, "side": side, "order": 0, **run})
    runs.append({"seed": 55, "side": "base", "order": 0, **bench.parse_result(result_line(0.1, 100.0))})  # no pair
    summary = bench.summarize(runs)
    assert summary["op_ref_s"]["pairs"] == 4
    assert summary["op_ref_s"]["change_lower"] == 2  # ties are not lower
    assert summary["op_ref_s"]["base"] == {"median": 0.39, "q1": 0.375, "q3": 0.405}
    assert summary["op_ref_s"]["change"]["median"] == 0.355
    assert summary["output_bytes"]["change_lower"] == 1
    assert runs[0]["correct"] is True and runs[0]["metrics"] == {"op_ref_s": 0.40, "output_bytes": 100.0}



def test_paired_bench_states_the_verdict_of_each_metric():
    bench = load_script("paired_bench")
    bounds = bench.load_bounds(ROOT)
    assert bounds["op_ref_s"] == ("lower", 0.24) and bounds["tree.route.calls"] == ("lower", None)

    def summary(pairs, bound=0.05, better="lower"):
        runs = []
        for seed, (base, change) in enumerate(pairs):
            for side, value in (("base", base), ("change", change)):
                runs.append({"seed": seed, "side": side, "order": 0, **bench.parse_result(result_line(value, 100.0))})
        return bench.summarize(runs, {"op_ref_s": (better, bound)})["op_ref_s"]

    nine = [(1.00 + i / 100, 0.90 + i / 100) for i in range(9)]  # with a tenth pair: base IQR 0.045, gap 0.09
    met = summary(nine + [(1.00, 1.01)])
    assert met["change_lower"] == 9 and met["claim_met"] is True and met["within_bound"] is True
    assert summary(nine[:8] + [(1.00, 1.01)] * 2)["claim_met"] is False  # lower in 8 of 10
    narrow = [(1.00 + i / 50, 0.99 + i / 50) for i in range(10)]  # lower in 10 of 10, gap 0.01 < IQR 0.09
    assert summary(narrow)["claim_met"] is False
    assert summary([(1.0, 1.04)] * 3)["within_bound"] is True
    assert summary([(1.0, 1.06)] * 3)["within_bound"] is False
    assert summary([(1.0, 1.06)] * 3, bound=None)["within_bound"] is None
    higher = summary(nine, better="higher")  # the change reads lower, which is worse
    assert higher["claim_met"] is False and higher["within_bound"] is False
    assert summary([(1.0, 0.9)] * 9, better="higher")["within_bound"] is False
    assert summary([(1.0, 1.1)] * 9, better="higher")["claim_met"] is True


def test_paired_bench_rotates_a_control_and_reports_its_medians():
    bench = load_script("paired_bench")
    sides = ("base", "change", "control")
    assert [bench.rotation(sides, i) for i in range(4)] == [
        sides,
        ("change", "control", "base"),
        ("control", "base", "change"),
        sides,
    ]
    assert [bench.rotation(bench.SIDES, i) for i in range(2)] == [("base", "change"), ("change", "base")]
    canned = {  # seed -> (base, change, control) op_ref_s
        61: (0.40, 0.35, 0.41),
        62: (0.38, 0.33, 0.37),
        63: (0.42, 0.36, 0.42),
    }
    runs = []
    for seed, values in canned.items():
        for order, (side, value) in enumerate(zip(sides, values)):
            runs.append({"seed": seed, "side": side, "order": order, **bench.parse_result(result_line(value, 100.0))})
    runs.append({"seed": 64, "side": "control", "order": 0, **bench.parse_result(result_line(0.1, 100.0))})  # no pair
    summary = bench.summarize(runs)["op_ref_s"]
    assert summary["pairs"] == 3 and summary["change_lower"] == 3
    assert summary["control"] == {"median": 0.41, "q1": 0.39, "q3": 0.415}
    assert summary["control_lower"] == 1  # ties are not lower
    assert summary["base"]["median"] == 0.40
    assert "control" not in bench.summarize([r for r in runs if r["side"] != "control"])["op_ref_s"]
