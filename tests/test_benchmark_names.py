"""The s2a names the benchmark harness in perfbench/ reads still exist, and
each workload's op passes the harness's correctness check.

perfbench/spans.py rebinds each TRACED (layer, function) pair and
perfbench/workloads.py imports s2a names directly; a rename in src/ would
only show when the benchmark runs. The perfbench files are loaded by path
and only read.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", load("run").WORKLOAD_NAMES)
def test_op_zero_passes_the_benchmark_check(tmp_path, name):
    """Op 0 at seed 0 reports no problem, and its values (train losses,
    report.json numbers) are within tolerance of perfbench/reference.json.
    Values, not sha256: the train bytes depend on the BLAS thread count."""
    run = load("run")
    reference = json.loads(run.REFERENCE.read_text())
    assert reference["seed"] == 0
    workload = load("workloads").WORKLOADS[name](tmp_path, 0)
    workload.run(0)
    result = workload.check(0)
    assert result.problems == []
    assert run.values_differ(result.values, reference["workloads"][name][0]["values"]) == []


def test_render_ops_write_the_reference_midi(tmp_path):
    """Each render op at seed 0 writes the out.mid whose sha256
    perfbench/reference.json holds. The harness only reports a render that
    differs (outputs_identical: false); this test fails on it."""
    reference = json.loads(load("run").REFERENCE.read_text())["workloads"]["render"]
    workload = load("workloads").WORKLOADS["render"](tmp_path, 0)
    assert len(reference) == workload.cycle
    for i, want in enumerate(reference):
        workload.run(i)
        assert workload.check(i).sha256 == want["sha256"], f"op {i}"
