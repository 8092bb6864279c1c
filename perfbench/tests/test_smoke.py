"""Shortest runs of every workload through the entry point: one cycle of
ops, each checked against the committed seed-0 reference."""

import json
import shutil
import subprocess
import sys

import pytest

import run

COUNTS = {
    "train": {"model.backward_batch.calls_per_op": 6},
    "render": {"model.forward.calls_per_op": 3, "model.sample.kept_row_ratio": 1920 / 2304,
               "model.nucleus_sample_row.calls_per_op": 2304},
    "synth": {"synth.render_audio.calls_per_op": 1},
    "evaluate": {"metrics.dtwd.calls_per_op": 9, "metrics.dtwd.distinct_input_ratio": 1 / 3,
                 "synth.render_audio.calls_per_op": 2},
}


def result_lines(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_traced_cycle_passes_its_checks(name, capsys):
    assert run.main(["--workload", name, "--seconds", "0", "--trace", "1"]) == 0
    record, result = result_lines(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * record["cycle"]  # each op untraced and traced
    assert record["reference"] == "committed" and record["outputs_identical"]
    names = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == names
    for metric, want in COUNTS[name].items():
        assert result["metrics"][metric]["value"] == pytest.approx(want)


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "render", "--seconds", "0", "--trace", "0"]) == 0
    record, result = result_lines(capsys)
    assert result["correct"] and result["attempted"] == record["cycle"] == 4
    names = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["setups"]) == run.SETUP_SAMPLES
    assert result["metrics"]["setup_s"]["value"] in [s["setup_s"] for s in record["setups"]]
    assert record["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
