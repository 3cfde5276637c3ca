"""The benchmark's traced mode finds every library function it wraps.

``perfbench/tracing.py`` looks each target up by module and attribute
name, so moving or renaming one of them breaks ``run.py --trace 1``.
This test only reads ``perfbench/``.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing.targets()
    assert targets
    missing = []
    for name, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):  # "Coins.uniform" names a method
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module_name}.{attr}")
    assert missing == []
