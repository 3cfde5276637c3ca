#!/usr/bin/env python3
"""Record the expected output digests that run.py checks against.

    python3 perfbench/record.py [--seeds 0-19]

For each workload and seed, runs the workload's operations once and
writes their output digests, with the forest hashes behind them, to
perfbench/expected.json.  Re-record only for a change meant to alter
outputs; a change meant to keep them must pass against the record.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from measure import DigestBook
from run import HERE, import_program, run_cycle, scratch_dir


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = p.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    import_program()
    from workloads import WORKLOADS

    expected: dict = {}
    with scratch_dir() as work:
        for name, workload in WORKLOADS.items():
            for seed in range(lo, hi + 1):
                d = work / f"{name}-{seed}"
                d.mkdir()
                workload.write_inputs(seed, d)
                os.chdir(d)
                book = DigestBook()
                _, _, failed = run_cycle(workload.operations(), book)
                if failed:
                    raise SystemExit(f"record: {name} seed {seed}: {failed} operations failed")
                expected.setdefault(name, {})[str(seed)] = {
                    "digests": book.seen,
                    "forest_hashes": workload.forest_hashes(),
                }
                print(f"{name} seed {seed} recorded", file=sys.stderr)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
