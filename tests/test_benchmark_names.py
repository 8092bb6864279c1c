"""The s2a names the benchmark harness in perfbench/ reads still exist.

perfbench/spans.py rebinds each TRACED (layer, function) pair and
perfbench/workloads.py imports s2a names directly; a rename in src/ would
only show when the benchmark runs. Both files are loaded by path and only
read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """perfbench/<name>.py as module bench_<name>, registered before it runs
    (its dataclasses look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def missing_traced(traced) -> list[str]:
    """The "<layer>.<function>" entries that are not a callable in s2a.<layer>."""
    return [f"{layer}.{fn}" for layer, fn in traced
            if not callable(getattr(importlib.import_module(f"s2a.{layer}"), fn, None))]


def test_traced_functions_exist():
    traced = load("spans").TRACED
    assert traced
    assert missing_traced(traced) == []


def test_workloads_imports_resolve():
    assert callable(load("workloads").Evaluate)  # loading fails on a missing s2a name


def test_guard_sees_a_renamed_function(monkeypatch):
    import s2a.synth

    monkeypatch.delattr(s2a.synth, "segment_audio")
    assert missing_traced(load("spans").TRACED) == ["synth.segment_audio"]
