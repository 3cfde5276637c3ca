#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternated pairs.

Runs ``perfbench/run.py`` from the root of each checkout, once per seed
on each side, and rotates which side runs first from one seed to the
next, so that a drift in machine speed falls on every side alike.  With
``--control``, a third checkout, a second copy of the base, runs in the
rotation too: how far its medians lie from the base's shows the spread
that an effect must exceed, which matters for effects under 3%.  The
result goes into a JSON file keyed by workload (an existing file keeps
its other workloads): every run's metrics, and per metric each side's
median and quartiles and the number of pairs in which the change (and
the control) reads lower than the base.

    python3 scripts/paired_bench.py --base ../parent --change . --control ../parent-copy \\
        --workload rollcall-experiment --seeds 51-60 --seconds 35 --out BENCH_7.json

Stdlib only; every checkout needs what ``perfbench/run.py`` needs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
CONTROL = "control"


def parse_seeds(text: str) -> list[int]:
    """``"1,4-6"`` -> ``[1, 4, 5, 6]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_result(stdout: str) -> dict:
    """The metric values and the correctness flag of one run, from the
    result object that ``perfbench/run.py`` prints as its last line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], "metrics": metrics}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over its runs, the
    number of complete pairs (one run of each side on a seed), and in how
    many of them the change reads lower.  Where control runs exist, also
    the control's quartiles over the pairs that have one, and in how many
    of those it reads lower than the base."""
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [sides for sides in by_seed.values() if all(side in sides for side in SIDES)]
    names = sorted(set().union(*(run["metrics"] for run in runs))) if runs else []
    summary = {}
    for name in names:
        complete = [p for p in pairs if all(name in p[side] for side in SIDES)]
        entry = {side: quartiles([p[side][name] for p in complete]) for side in SIDES if complete}
        entry["pairs"] = len(complete)
        entry["change_lower"] = sum(p["change"][name] < p["base"][name] for p in complete)
        controlled = [p for p in complete if name in p.get(CONTROL, {})]
        if controlled:
            entry[CONTROL] = quartiles([p[CONTROL][name] for p in controlled])
            entry["control_lower"] = sum(p[CONTROL][name] < p["base"][name] for p in controlled)
        summary[name] = entry
    return summary


def rotation(sides: tuple, i: int) -> tuple:
    """The order in which ``sides`` run on the ``i``-th seed: each side
    first in turn."""
    k = i % len(sides)
    return sides[k:] + sides[:k]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "failed": None, "metrics": {}, "error": proc.stderr[-2000:]}
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--control", type=Path, default=None, help="a second checkout of the parent")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 51-60 or 1,3,5")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    runs = []
    sides = SIDES + ((CONTROL,) if args.control else ())
    for i, seed in enumerate(args.seeds):
        for order, side in enumerate(rotation(sides, i)):
            run = run_once(getattr(args, side), args.workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "side": side, "order": order, **run})
            print(f"{args.workload} seed {seed} {side}: {json.dumps(run['metrics'], sort_keys=True)}", flush=True)
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record[args.workload] = {
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "runs": runs,
        "summary": summarize(runs),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
