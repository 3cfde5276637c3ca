#!/usr/bin/env python3
"""Benchmark for absentrf, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; inputs are generated from ``--seed`` into a scratch
directory under ``perfbench/_work/`` that is removed on exit.  The
workload's operations repeat, in one process with ``workers=1``, until
``--seconds`` have passed; each operation's outputs are digested and
checked.  Times are wall seconds scaled to a reference machine speed by
a fixed kernel timed between calls (see ``speed.py``).

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` the first third of the time runs untraced, the rest
with every traced function wrapped, and the metrics are the per-layer
ones.  The last line of stdout is the result object; the line before it
is a report with the environment, per-operation timing summaries and
digest mismatches.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from measure import DigestBook, digest_path, environment, size_path, summarize
from speed import REFERENCE_S, Gauge
from tracing import Tracer, install, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
UNTRACED_SHARE = 1 / 3  # of --seconds, when tracing


def import_program():
    """Import absentrf from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import absentrf
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import absentrf from {src}: {exc}")
    if Path(absentrf.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: absentrf was imported from {absentrf.__file__}, not {src}")
    return absentrf


@contextmanager
def scratch_dir():
    """A fresh directory under perfbench/_work/, removed with everything
    in it on exit; the working directory is restored too."""
    parent = HERE / "_work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    home = os.getcwd()
    try:
        yield work
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


def parse_args(argv):
    p = argparse.ArgumentParser(description="absentrf benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def clear(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def run_cycle(ops, book, gauge=None, tracer=None):
    """Run each operation once.  Returns its wall seconds by key, its
    reference seconds by key (empty without a gauge) and the number that
    failed: raised, returned non-zero, or wrote outputs whose digest the
    book rejects."""
    seconds: dict[str, float] = {}
    ref: dict[str, float] = {}
    failed = 0
    for op in ops:
        out = Path(op.output)
        clear(out)
        span = tracer.span(op.span) if tracer is not None and op.span else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                code = op.run()
        except Exception:
            traceback.print_exc()
            code = None
        seconds[op.key] = perf_counter() - t0
        if gauge is not None:
            ref[op.key] = gauge.scale(seconds[op.key])
        if code != 0:
            print(f"perfbench: {op.key} failed (exit code {code})", file=sys.stderr)
            failed += 1
        elif not out.exists() or not book.check(op.key, digest_path(out)):
            print(f"perfbench: {op.key} output digest mismatch", file=sys.stderr)
            failed += 1
    return seconds, ref, failed


def setup_seconds(args, work: Path) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of fresh processes that start the
    interpreter, import absentrf and write the workload's inputs.

    Each process reports when its inputs were written and then reads the
    gauge itself, on the core it ran on; the parent's own readings did
    not follow the child's speed."""
    wall, ref = [], []
    for k in range(SETUP_PROBES):
        probe = work / f"setup_{k}"
        probe.mkdir()
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", str(probe),
        ]
        t0 = monotonic()
        # no timeout: with one, the wait polls and rounds up to 50 ms
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        wall.append(report["done"] - t0)
        ref.append(wall[-1] / report["gauge_s"] * REFERENCE_S)
        shutil.rmtree(probe)
    return wall, ref


def monotonic() -> float:
    """A clock that parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure(workload, args, book, gauge: Gauge) -> dict:
    """Repeat the workload's operations for ``args.seconds``."""
    ops = workload.operations()
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    untraced_ref: list[dict[str, float]] = []
    traced_ref: list[dict[str, float]] = []
    failed = 0
    start = perf_counter()
    untraced_until = start + args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    gauge.start()
    while True:
        seconds, ref, f = run_cycle(ops, book, gauge)
        untraced.append(seconds)
        untraced_ref.append(ref)
        failed += f
        if perf_counter() >= untraced_until:
            break
    tracer = None
    if args.trace:
        tracer = Tracer()
        restore = install(tracer)
        gauge.start()
        try:
            while True:
                seconds, ref, f = run_cycle(ops, book, gauge, tracer)
                traced.append(seconds)
                traced_ref.append(ref)
                failed += f
                if perf_counter() >= start + args.seconds:
                    break
        finally:
            restore()

    def cycle_seconds(cycles):
        return [sum(c.values()) for c in cycles]

    def typical(cycles):
        # each call's median over its repetitions, summed over a cycle's
        # calls, per draw
        return sum(statistics.median(c[op.key] for c in cycles) for op in ops) / workload.draws

    op_ref_s = typical(untraced_ref)
    outputs = {op.key: size_path(op.output) for op in ops}
    timings = {"cycle": summarize(cycle_seconds(untraced))}
    for op in ops:
        timings[op.key] = summarize([c[op.key] for c in untraced])
        timings[op.key + ":ref"] = summarize([c[op.key] for c in untraced_ref])
    if any(key.startswith("predict:") for key in outputs):
        timings["predict"] = summarize(
            [sum(v for k, v in c.items() if k.startswith("predict:")) / workload.draws for c in untraced]
        )
    n_cycles = len(untraced) + len(traced)
    result = {
        "attempted": n_cycles * len(ops),
        "failed": failed,
        "timings": timings,
        "cycle_seconds": cycle_seconds(untraced),
        "output_bytes_by_op": outputs,
    }
    if args.trace:
        metrics = layer_metrics(tracer, len(traced) * workload.draws)
        metrics["experiment.output_bytes"] = (
            sum(v for k, v in outputs.items() if k.startswith("experiment:")) / workload.draws
        )
        metrics["trace.overhead_ratio"] = typical(traced_ref) / op_ref_s
        result["metrics"] = metrics
        result["traced_cycles"] = len(traced)
    else:
        result["metrics"] = {
            "op_ref_s": op_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output_bytes": sum(outputs.values()) / workload.draws,
        }
    return result


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.write_inputs(args.seed, Path(args.setup_probe))
        done = monotonic()
        print(json.dumps({"done": done, "gauge_s": Gauge().last}))
        return 0

    units = declared_metrics(args.trace)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    recorded = expected.get(args.workload, {}).get(str(args.seed), {}).get("digests")
    book = DigestBook(recorded)

    gauge = Gauge()
    with scratch_dir() as work:
        setup_wall, setup = ([], []) if args.trace else setup_seconds(args, work)
        workload.write_inputs(args.seed, work)
        os.chdir(work)
        result = measure(workload, args, book, gauge)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(ROOT, numpy.__version__),
        "setup_s_samples": setup,
        "setup_wall_s_samples": setup_wall,
        "gauge_s": summarize(gauge.samples),
        "timings": result["timings"],
        "cycle_seconds": result["cycle_seconds"],
        "output_bytes_by_op": result["output_bytes_by_op"],
        "digests_recorded": recorded is not None,
        "digest_mismatches": book.mismatches,
    }
    if args.trace:
        report["traced_cycles"] = result["traced_cycles"]
        report["not_run"] = sorted(k for k, v in metrics.items() if v == 0)
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
