"""The s2a names the benchmark harness in perfbench/ reads still exist, and
each workload's op passes the harness's correctness check. The render,
synth and evaluate ops at seed 0 write pinned outputs.

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


# sha256 of each file the synth op at seed 0 writes for the first two corpus
# performances.
SYNTH_PINS = [
    {"out.wav": "7ae78d34908204281dc4e2f5c3674379cc4669a2ea21791e83ba9c5bbf00937b",
     "out.spec.f32": "8807f8e69de08d71c6cf13c2588303cf1b11c4dac00034fd539f734eb7f9143e",
     "out.spec.json": "97e17a42eda1f0ddeb5c7f400954e99007ba0a12ab084748f6e4260ac210e9b7",
     "out.chroma.f32": "5b75f7f994f6226bcf6118d2b7c7d1859dfd7ebaf2838e77d7ece784a2ef21bb",
     "out.chroma.json": "5993aa74fc8257ba0148723b2e7e520ce7f678b28744562834cb4c5e14aebcb2"},
    {"out.wav": "c7e5597a83c7ed1306e37a928653f252029f9829ab969ecfd822d1177697a474",
     "out.spec.f32": "35bec5f136893691b7e56da2c418321da4dc0e90873a5744d3a8d64c909ed6b5",
     "out.spec.json": "39af5a3eb957ccc35ea86098f79695400d0a06b76e63cfe78929618480a71822",
     "out.chroma.f32": "fe9b3b6b9065a748f43c41b7b36edfd39fbb3175f4ffabde81208ff33381226e",
     "out.chroma.json": "5ae5c026e43753afb8e7fa39fce4bb94dd8bedff39a27b2aa082245717f7ad93"},
]
EVALUATE_PINS = Path(__file__).resolve().parent / "data"


def test_synth_ops_write_the_pinned_files(tmp_path):
    """`s2a synth --dump-features` of two seed-0 corpus performances writes
    the pinned WAV and spectrogram and chroma sidecars."""
    workload = load("workloads").WORKLOADS["synth"](tmp_path, 0)
    for i, want in enumerate(SYNTH_PINS):
        workload.run(i)
        assert workload.check(i).sha256 == want, f"op {i}"


def assert_json_close(got, want, where="report.json"):
    """got has want's structure and non-float leaves; its floats are within
    1e-12 relative of want's, as the last bit of a BLAS kernel may differ."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}.{k}")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("i", [0, 1])
def test_evaluate_ops_write_the_pinned_reports(tmp_path, i):
    """`s2a evaluate` of two seed-0 benchmark pairs writes the pinned
    summary.txt bytes and report.json values (tests/data)."""
    workload = load("workloads").WORKLOADS["evaluate"](tmp_path, 0)
    workload.run(i)
    pins = EVALUATE_PINS / f"evaluate_seed0_piece_{i:03d}"
    assert (workload.out / "summary.txt").read_bytes() == (pins / "summary.txt").read_bytes()
    assert_json_close(json.loads((workload.out / "report.json").read_text()),
                      json.loads((pins / "report.json").read_text()))
