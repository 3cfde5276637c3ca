"""Summary statistics, output digests and the environment record.

Standard library only, so the benchmark's tests can import it without
the program under test.
"""
from __future__ import annotations

import bisect
import hashlib
import math
import os
import platform
import statistics
from pathlib import Path

# Percentiles tried, highest first, for the tail of a timing.  A tail is
# reported only where at least MIN_BEYOND samples lie above it, so that
# it is not set by one or two stragglers.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(values) -> dict:
    """Median, plus the highest ladder percentile that has at least
    MIN_BEYOND samples above it, and the sample count.

    ``tail_pct`` and ``tail`` are None when no ladder percentile
    qualifies (fewer than about 100 samples).
    """
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    out = {"n": len(s), "median": statistics.median(s), "tail_pct": None, "tail": None}
    for pct in TAIL_LADDER:
        v = nearest_rank(s, pct)
        if len(s) - bisect.bisect_right(s, v) >= MIN_BEYOND:
            out["tail_pct"], out["tail"] = pct, v
            break
    return out


def digest_path(path) -> str:
    """sha256 over a file's bytes, or over every file under a directory
    (relative name, size and bytes, in sorted name order)."""
    p = Path(path)
    h = hashlib.sha256()
    if p.is_file():
        h.update(p.read_bytes())
        return h.hexdigest()
    if not p.is_dir():
        raise FileNotFoundError(f"no output at {p}")
    for f in sorted(f for f in p.rglob("*") if f.is_file()):
        data = f.read_bytes()
        h.update(f"{f.relative_to(p).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def size_path(path) -> int:
    """Bytes in a file, or in every file under a directory."""
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())


class DigestBook:
    """Checks each operation's output digest.

    An operation fails the check if its digest differs from the one
    recorded for this seed (when one is recorded), or from the digest
    the same operation produced earlier in this run.
    """

    def __init__(self, recorded: dict[str, str] | None = None):
        self.recorded = dict(recorded or {})
        self.seen: dict[str, str] = {}
        self.mismatches: list[dict] = []

    def check(self, key: str, digest: str) -> bool:
        first = self.seen.setdefault(key, digest)
        want = self.recorded.get(key, first)
        if digest == first and digest == want:
            return True
        self.mismatches.append(
            {"op": key, "digest": digest, "first_in_run": first, "recorded": self.recorded.get(key)}
        )
        return False


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def git_sha(root) -> str | None:
    """The commit checked out at ``root``, read from ``.git`` without
    running git; None outside a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(root, numpy_version: str) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "git_sha": git_sha(root),
    }
