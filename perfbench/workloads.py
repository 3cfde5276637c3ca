"""The benchmark's workloads: inputs generated from a seed, and the
operations run on them.

Each workload seed gives several independent draws of the data, and one
cycle runs the workload's operations on every draw.  How much work an
operation does depends on its data (rollcall trees grown to purity had
9% more or fewer nodes from one seed to the next), so a cycle that spans
several draws varies less between seeds than one draw would.

Every path is relative to the working directory, which the runner sets
to a scratch directory of its own.  Relative paths keep the experiment
manifests, which echo the config, identical from run to run.

Why each workload exists (see README.md for the layer each one loads):

* ``price-experiment``: regression with 25 predictors; tree growth
  dominates, so the split kernels are on the blocking path.
* ``rollcall-experiment``: binary, 424 rows, a 50-level state column,
  trees grown to purity; out-of-bag routing and structure hashing carry
  a large share, while most (row, tree) pairs meet no absent level.
* ``bridge-serve``: the train -> predict path through the CLI on
  multiclass data, which reaches the exhaustive and random-bitmask
  kernels, model dumps and loads, and rows that meet absent levels in
  nearly half the trees.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from absentrf import cli, experiment, synth
from absentrf.data import save_schema, write_csv
from absentrf.forest import forest_hash, load_forest

ROUTED = ("left", "right", "stop", "majority", "random", "dbi")
HEURISTICS = ROUTED + ("onehot",)
# the demo configs' seeds; every workload seed then shares one bootstrap
# layout, checked to leave no row in-bag in every tree
EXPERIMENT_SEED = 11
TRAIN_SEED = 7


@dataclass(frozen=True)
class Operation:
    """One call into the program.  ``run`` returns an exit code and
    writes ``output`` (a file or a directory); ``span`` names the
    benchmark's own span around the call when tracing."""

    key: str
    output: str
    run: Callable[[], int]
    span: str | None = None


def draw_seed(seed: int, draws: int, j: int) -> int:
    """The generator seed of draw ``j`` of a workload seed; no two
    workload seeds share a draw."""
    return draws * seed + j


def _write_dataset(dataset, stem: str, directory: Path) -> None:
    write_csv(dataset, directory / f"{stem}.csv")
    save_schema(directory / f"{stem}.schema.json", dataset.schema, dataset.response)


class ExperimentWorkload:
    """One ``run_experiment`` call per draw, shaped like a
    ``configs/demo_*.json``."""

    def __init__(self, generator, replications: int, n_trees: int, draws: int, positive_class=None):
        self.generator = generator
        self.draws = draws
        self.replications = replications
        self.settings = {
            "heuristics": list(HEURISTICS),
            "replications": replications,
            "n_trees": n_trees,
            "seed": EXPERIMENT_SEED,
            "workers": 1,
        }
        if positive_class is not None:
            self.settings["positive_class"] = positive_class

    def config(self, j: int) -> dict:
        return {
            **self.settings,
            "dataset_path": f"data_{j}.csv",
            "schema_path": f"data_{j}.schema.json",
            "output_dir": f"out_{j}",
        }

    def write_inputs(self, seed: int, directory: Path) -> None:
        for j in range(self.draws):
            _write_dataset(self.generator(draw_seed(seed, self.draws, j)), f"data_{j}", directory)
            with open(directory / f"experiment_{j}.json", "w", encoding="utf-8") as fh:
                json.dump(self.config(j), fh, indent=2, sort_keys=True)

    def operations(self) -> list[Operation]:
        def run(j: int) -> int:
            # looked up at call time so that a tracer's wrapper is used
            experiment.run_experiment(experiment.load_experiment_config(f"experiment_{j}.json"))
            return 0

        return [
            Operation(f"experiment:{j}", self.config(j)["output_dir"], lambda j=j: run(j))
            for j in range(self.draws)
        ]

    def forest_hashes(self) -> list[str]:
        return [
            json.loads((Path(f"out_{j}") / f"replication_{r}" / "manifest.json").read_text())["forest_hash"]
            for j in range(self.draws)
            for r in range(self.replications)
        ]


class ServeWorkload:
    """Per draw, ``absentrf train`` once, then ``absentrf predict`` once
    per routed policy, each on a fresh draw from the generator at another
    seed."""

    def __init__(self, generator, n_trees: int, draws: int):
        self.generator = generator
        self.n_trees = n_trees
        self.draws = draws

    @staticmethod
    def predict_seed(train_seed: int, k: int) -> int:
        return 1_000_000 + len(ROUTED) * train_seed + k

    def write_inputs(self, seed: int, directory: Path) -> None:
        for j in range(self.draws):
            train_seed = draw_seed(seed, self.draws, j)
            _write_dataset(self.generator(train_seed), f"train_{j}", directory)
            for k, policy in enumerate(ROUTED):
                rows = self.generator(self.predict_seed(train_seed, k))
                write_csv(rows, directory / f"rows_{j}_{policy}.csv")

    def operations(self) -> list[Operation]:
        ops = []
        for j in range(self.draws):
            schema, model = f"train_{j}.schema.json", f"model_{j}.json"
            train = [
                "train", "--data", f"train_{j}.csv", "--schema", schema, "--out", model,
                "--trees", str(self.n_trees), "--seed", str(TRAIN_SEED), "--workers", "1",
            ]
            ops.append(Operation(f"train:{j}", model, lambda a=train: cli.main(a), "cli.train"))
            for policy in ROUTED:
                argv = [
                    "predict", "--data", f"rows_{j}_{policy}.csv", "--schema", schema,
                    "--model", model, "--heuristic", policy, "--out", f"pred_{j}_{policy}.csv",
                ]
                ops.append(
                    Operation(
                        f"predict:{j}:{policy}", f"pred_{j}_{policy}.csv", lambda a=argv: cli.main(a), "cli.predict"
                    )
                )
        return ops

    def forest_hashes(self) -> list[str]:
        return [forest_hash(load_forest(f"model_{j}.json")) for j in range(self.draws)]


WORKLOADS = {
    "price-experiment": ExperimentWorkload(synth.price_regression, replications=1, n_trees=20, draws=4),
    "rollcall-experiment": ExperimentWorkload(
        synth.rollcall_binary, replications=1, n_trees=20, draws=4, positive_class="yes"
    ),
    "bridge-serve": ServeWorkload(synth.bridge_multiclass, n_trees=40, draws=2),
}
