"""Smoke tests of the helper scripts, run as a user runs them."""
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
