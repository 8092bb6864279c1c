import dataclasses
import json
import logging
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_midi_io import smf, vlq
from test_model import LAST_TENSOR_BYTES, edit_header
import s2a
from s2a.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from s2a.cli import EXIT_DATA, EXIT_EMPTY, EXIT_OK, EXIT_USAGE, build_parser, main
from s2a.corpus import SyntheticCorpusSpec, generate_corpus, split_counts
from s2a.midi_io import NoteEvent, NoteSequence, parse_smf, write_smf
from s2a.model import M2MConfig, init_model, parameter_shapes
from s2a.synth import load_matrix, midi_spectrogram, read_wav, render_audio, write_wav
from s2a.tokenizer import FEATURE_NAMES, SCORE_VELOCITY, VOCAB


def run(*argv):
    return main(list(argv))


def make_corpus(tmp_path, pieces=2, notes=60, performers=2, seed=11):
    out = tmp_path / "corpus"
    code = run("demo-data", "--out", str(out), "--pieces", str(pieces),
               "--notes", str(notes), "--performers", str(performers),
               "--seed", str(seed))
    assert code == EXIT_OK
    return out


def far_note_midi() -> bytes:
    """64 bytes: ppq 1 and tempo 0xFFFFFF (16.8 s a tick), with notes at ticks
    0 and 0x0FFFFFF0, about 143 years apart."""
    conductor = [vlq(0) + b"\xff\x51\x03\xff\xff\xff"]
    notes = [vlq(0) + bytes([0x90, 60, 64]), vlq(1) + bytes([0x80, 60, 0]),
             vlq(0x0FFFFFEF) + bytes([0x90, 60, 64]), vlq(1) + bytes([0x80, 60, 0])]
    return smf([conductor, notes], ppq=1)


def checkpoint_tail(header: bytes, tensors: bytes = b"") -> bytes:
    """Checkpoint bytes after the magic string: header length, header, tensors."""
    return struct.pack("<Q", len(header)) + header + tensors


def tiny_checkpoint() -> bytes:
    return save_checkpoint(init_model(M2MConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32)))


def v1_checkpoint(model) -> bytes:
    """The model in the version 1 format: a header of the config (then with
    max_seq_len, d_embed and vocab) and a tensor manifest, then the tensors
    in name order."""
    c = model.config
    config = {"n_layers": c.n_layers, "d_model": c.d_model, "n_heads": c.n_heads, "d_ff": c.d_ff,
              "dropout": c.dropout, "n_performers": c.n_performers, "max_seq_len": 256,
              "d_embed": c.d_embed, "seed": c.seed,
              "vocab": dict(zip(FEATURE_NAMES, VOCAB.sizes()))}
    manifest, blob = [], b""
    for name in sorted(model.params):
        tensor = np.ascontiguousarray(model.params[name], dtype="<f4")
        manifest.append({"name": name, "shape": list(tensor.shape), "offset": len(blob),
                         "dtype": "<f4"})
        blob += tensor.tobytes()
    header = json.dumps({"config": config, "tensors": manifest}).encode()
    return b"S2A-M2M-CKPT-v1\n" + struct.pack("<Q", len(header)) + header + blob


def v2_checkpoint(model) -> bytes:
    """The model in the version 2 format: the version 3 layout with a zero key
    bias after each layer's wk."""
    header = json.dumps(dataclasses.asdict(model.config)).encode()
    blob = b""
    for name, _ in parameter_shapes(model.config):
        blob += np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
        if name.endswith(".wk"):
            blob += np.zeros(model.config.d_model, dtype="<f4").tobytes()
    return b"S2A-M2M-CKPT-v2\n" + struct.pack("<Q", len(header)) + header + blob


def render_with(tmp_path, checkpoint: bytes) -> int:
    """s2a render of a corpus score with a checkpoint of these bytes."""
    corpus = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(checkpoint)
    return run("render", "--score", str(corpus / "scores/piece_000.mid"),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.mid"))


class TestDemoData:
    def test_zero_pieces_succeeds(self, tmp_path):
        out = tmp_path / "empty"
        assert run("demo-data", "--out", str(out), "--pieces", "0") == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["items"] == []

    def test_same_seed_byte_identical(self, tmp_path):
        a = make_corpus(tmp_path / "a")
        b = make_corpus(tmp_path / "b")
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_score_constant_performance_varied(self, tmp_path):
        corpus = make_corpus(tmp_path)
        score = parse_smf((corpus / "scores/piece_000.mid").read_bytes())
        perf = parse_smf((corpus / "performances/piece_000_p00.mid").read_bytes())
        assert {n.velocity for n in score.notes} == {SCORE_VELOCITY}
        assert len({n.velocity for n in perf.notes}) > 1

    def test_split_assigned(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=10)
        manifest = json.loads((corpus / "manifest.json").read_text())
        splits = {it["split"] for it in manifest["items"]}
        assert splits == {"train", "valid", "test"}

    def test_each_performer_splits_its_pieces_in_order(self, tmp_path):
        """Every performer plays every piece, so each performer's items, in
        piece order, carry the split_counts(n_pieces) splits, and "split" is
        each item's last key."""
        keys = ["piece", "performer_id", "score", "performance", "alignment", "split"]
        for n_pieces in range(13):
            n_train, n_valid, n_test = split_counts(n_pieces)
            expected = ["train"] * n_train + ["valid"] * n_valid + ["test"] * n_test
            for n_performers in range(5):
                out = tmp_path / f"{n_pieces}_{n_performers}"
                generate_corpus(SyntheticCorpusSpec(n_pieces=n_pieces, notes_per_piece=1,
                                                    n_performers=n_performers), out)
                items = json.loads((out / "manifest.json").read_text())["items"]
                assert len(items) == n_pieces * n_performers
                assert all(list(item) == keys for item in items)
                for performer in range(n_performers):
                    rows = [item for item in items if item["performer_id"] == performer]
                    assert [item["piece"] for item in rows] == list(range(n_pieces))
                    assert [item["split"] for item in rows] == expected


class TestTokenizeAlign:
    def test_tokenize_writes_tsv(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "tokens.tsv"
        code = run("tokenize", "--in", str(corpus / "scores/piece_000.mid"),
                   "--out", str(out), "--as-score")
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "pitch\tvelocity\tduration\tioi\tposition\tbar"
        assert len(lines) == 61

    def test_tokenize_missing_file_is_data_error(self, tmp_path):
        assert run("tokenize", "--in", str(tmp_path / "nope.mid")) == EXIT_DATA

    def test_tokenize_high_bit_data_byte_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.mid"
        # velocity 80 (0x50) flipped to 169 (0xA9)
        bad.write_bytes(smf([[vlq(0) + bytes([0x90, 60, 0xA9]),
                              vlq(480) + bytes([0x80, 60, 0])]]))
        assert run("tokenize", "--in", str(bad)) == EXIT_DATA

    def test_align_outputs_json(self, tmp_path):
        corpus = make_corpus(tmp_path)
        out = tmp_path / "align.json"
        code = run("align", "--score", str(corpus / "scores/piece_000.mid"),
                   "--performance", str(corpus / "performances/piece_000_p00.mid"),
                   "--out", str(out))
        assert code == EXIT_OK
        obj = json.loads(out.read_text())
        assert len(obj["pairs"]) == 60


class TestTrainRender:
    def test_full_chain(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=2, notes=40)
        ckpt = tmp_path / "model.ckpt"
        code = run("train", "--data", str(corpus), "--out", str(ckpt),
                   "--split", "all", "--epochs", "3", "--dropout", "0.0",
                   "--learning-rate", "1e-3", "--seed", "1")
        assert code == EXIT_OK
        assert ckpt.exists()
        assert ckpt.with_suffix(".log.csv").read_text().startswith("step,lr,")

        perf = tmp_path / "perf.mid"
        code = run("render", "--score", str(corpus / "scores/piece_000.mid"),
                   "--checkpoint", str(ckpt), "--performer-id", "1",
                   "--out", str(perf), "--seed", "5")
        assert code == EXIT_OK
        rendered = parse_smf(perf.read_bytes())
        score = parse_smf((corpus / "scores/piece_000.mid").read_bytes())
        assert len(rendered.notes) == len(score.notes)
        assert [n.pitch for n in rendered.notes] == [n.pitch for n in score.notes]

    def test_render_deterministic(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=30, performers=1)
        ckpt = tmp_path / "model.ckpt"
        run("train", "--data", str(corpus), "--out", str(ckpt), "--split", "all",
            "--epochs", "2", "--dropout", "0.0", "--seed", "1")
        outs = []
        for name in ("a.mid", "b.mid"):
            out = tmp_path / name
            run("render", "--score", str(corpus / "scores/piece_000.mid"),
                "--checkpoint", str(ckpt), "--out", str(out), "--seed", "7")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_checkpoint_is_data_error(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=10, performers=1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code = run("render", "--score", str(corpus / "scores/piece_000.mid"),
                   "--checkpoint", str(bad), "--out", str(tmp_path / "x.mid"))
        assert code == EXIT_DATA


def s2a_in_subprocess(env, *argv, code=EXIT_OK):
    """s2a run in a fresh interpreter that imports s2a before numpy; its
    exit code must be code. Returns its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from s2a.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == code, proc.stderr[-2000:]
    return proc.stderr


def test_diverging_train_prints_one_stderr_line(tmp_path):
    """numpy's overflow warnings, from either thread of a training step, stay
    off stderr: a diverged run prints its one error line. Only a fresh
    interpreter shows this; pytest collects warnings apart from stderr."""
    corpus = make_corpus(tmp_path, pieces=1, notes=50, performers=1)
    env = {**os.environ, "PYTHONPATH": str(Path(s2a.__file__).resolve().parents[1])}
    err = s2a_in_subprocess(env, "train", "--data", str(corpus), "--out", str(tmp_path / "m.ckpt"),
                            "--split", "all", "--learning-rate", "1e300", code=EXIT_DATA)
    assert err.startswith("error: training diverged") and err.count("\n") == 1, err


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one BLAS thread")
def test_same_bytes_at_one_blas_thread_and_at_one_per_core(tmp_path):
    """Unset, the BLAS thread variables let OpenBLAS run a thread per core,
    and it rounds a product split between threads differently: train and
    render must give the bytes they give at one thread."""
    corpus = make_corpus(tmp_path, pieces=3, notes=120)
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = str(Path(s2a.__file__).resolve().parents[1])
    outputs = []
    for name, threads in (("default", {}), ("one", dict.fromkeys(blas_vars, "1"))):
        ckpt, perf = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.mid"
        s2a_in_subprocess({**env, **threads}, "train", "--data", str(corpus), "--out", str(ckpt),
                          "--split", "all", "--epochs", "2")
        s2a_in_subprocess({**env, **threads}, "render", "--score",
                          str(corpus / "scores/piece_000.mid"), "--checkpoint", str(ckpt),
                          "--out", str(perf))
        outputs.append([p.read_bytes() for p in (ckpt, ckpt.with_suffix(".log.csv"), perf)])
    assert outputs[0] == outputs[1]


class TestSynth:
    def test_short_performance_single_segment(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        wav = tmp_path / "out.wav"
        code = run("synth", "--in", str(corpus / "performances/piece_000_p00.mid"),
                   "--out", str(wav))
        assert code == EXIT_OK
        audio = read_wav(wav.read_bytes())
        assert audio.sample_rate == 24000
        assert len(audio.samples) > 0

    def test_long_performance_written_as_rendered(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=120, performers=1, seed=3)
        perf_path = corpus / "performances/piece_000_p00.mid"
        seq = parse_smf(perf_path.read_bytes())
        direct = render_audio(seq)
        assert direct.duration_seconds > 9.6  # longer than one synthesizer segment
        wav = tmp_path / "out.wav"
        assert run("synth", "--in", str(perf_path), "--out", str(wav),
                   "--dump-features") == EXIT_OK
        assert wav.read_bytes() == write_wav(direct)
        spec = midi_spectrogram(direct)
        frames, _, _ = load_matrix(str(tmp_path / "out.spec"))
        assert np.array_equal(frames, spec.frames.astype("<f4").astype(np.float64))

    def test_empty_midi_writes_empty_wav(self, tmp_path):
        from s2a.midi_io import NoteSequence, write_smf
        empty = tmp_path / "empty.mid"
        empty.write_bytes(write_smf(NoteSequence(ppq=96)))
        wav = tmp_path / "out.wav"
        assert run("synth", "--in", str(empty), "--out", str(wav)) == EXIT_OK
        assert len(read_wav(wav.read_bytes()).samples) == 0

    def test_dump_features_sidecars(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        wav = tmp_path / "out.wav"
        code = run("synth", "--in", str(corpus / "performances/piece_000_p00.mid"),
                   "--out", str(wav), "--dump-features")
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "out.spec.json").read_text())
        assert meta["kind"] == "spectrogram"
        assert meta["shape"][1] == 128
        assert (tmp_path / "out.chroma.f32").exists()

    def test_audio_past_an_hour_is_data_error(self, tmp_path, capsys):
        midi = tmp_path / "far.mid"
        midi.write_bytes(far_note_midi())
        wav = tmp_path / "out.wav"
        assert run("synth", "--in", str(midi), "--out", str(wav)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3600 s" in err
        assert not wav.exists()


def evaluate_pair(root, pred, target):
    """s2a evaluate of one file of pred notes against one of target notes, under root."""
    for side, notes in (("pred", pred), ("target", target)):
        (root / side).mkdir()
        (root / side / "x.mid").write_bytes(write_smf(NoteSequence(96, tuple(notes))))
    return run("evaluate", "--pred", str(root / "pred"), "--target", str(root / "target"),
               "--out-dir", str(root / "r"))


class TestEvaluate:
    def test_pred_equals_target_perfect(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=2, notes=50)
        perf_dir = corpus / "performances"
        out = tmp_path / "report"
        code = run("evaluate", "--pred", str(perf_dir), "--target", str(perf_dir),
                   "--out-dir", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        for feat in ("velocity", "ioi", "duration"):
            assert report["performance_wise"][feat]["kld"]["mean"] < 1e-9
            assert report["performance_wise"][feat]["dtwd"]["mean"] == 0.0
            assert report["performance_wise"][feat]["correlation"]["mean"] == pytest.approx(1.0)
        assert report["chroma_mse"]["mean"] == 0.0
        assert report["spectrogram_mse"]["mean"] == 0.0

    def test_row_count_matches_files(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=3, notes=30, performers=1)
        perf_dir = corpus / "performances"
        out = tmp_path / "report"
        run("evaluate", "--pred", str(perf_dir), "--target", str(perf_dir),
            "--out-dir", str(out))
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 3

    def test_single_pair_has_no_ci(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=40, performers=1)
        perf_dir = corpus / "performances"
        out = tmp_path / "report"
        run("evaluate", "--pred", str(perf_dir), "--target", str(perf_dir),
            "--out-dir", str(out))
        report = json.loads((out / "report.json").read_text())
        assert report["performance_wise"]["velocity"]["kld"]["ci95"] is None
        assert report["chroma_mse"]["ci95"] is None

    @pytest.mark.parametrize("pred, target, empty", [
        ([NoteEvent(0, 96, 60, 64)], [NoteEvent(0, 96, 62, 64)], ("kld", "correlation", "dtwd")),
        ([NoteEvent(0, 96, 60 + i, 64) for i in range(3)],  # a chord: every feature constant
         [NoteEvent(0, 96, 60 + i, 64) for i in range(3)], ("correlation",)),
    ], ids=["no-pitch-in-common", "constant-features"])
    def test_mean_over_no_values_is_null(self, tmp_path, pred, target, empty):
        def reject(constant):
            raise AssertionError(f"{constant} in report.json")

        assert evaluate_pair(tmp_path, pred, target) == EXIT_OK
        report = json.loads((tmp_path / "r/report.json").read_text(), parse_constant=reject)
        for wise in ("performance_wise", "segment_wise"):
            for feature in ("velocity", "ioi", "duration"):
                for metric in empty:
                    assert report[wise][feature][metric]["mean"] is None

    def test_no_matches_exit_3(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "x.mid").write_bytes(b"")
        (b / "y.mid").write_bytes(b"")
        assert run("evaluate", "--pred", str(a), "--target", str(b),
                   "--out-dir", str(tmp_path / "r")) == EXIT_EMPTY

    def test_ground_truth_alignments_used(self, tmp_path):
        corpus = make_corpus(tmp_path, pieces=1, notes=40, performers=1)
        pred = tmp_path / "pred"
        pred.mkdir()
        name = "piece_000_p00.mid"
        (pred / name).write_bytes((corpus / "performances" / name).read_bytes())
        aligns = tmp_path / "aligns"
        aligns.mkdir()
        (aligns / "piece_000_p00.json").write_text(
            (corpus / "alignments/piece_000_p00.json").read_text()
        )
        out = tmp_path / "report"
        code = run("evaluate", "--pred", str(pred),
                   "--target", str(corpus / "performances"),
                   "--out-dir", str(out), "--alignments", str(aligns))
        assert code == EXIT_OK

    @pytest.mark.parametrize("text", [
        None,  # file missing
        "{",
        "[]",
        '{"pairs": []}',
        '{"pairs": 5, "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [["a", 0]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[1, 1], [0, 0]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[0, 40]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[-1, 0]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[0.9, 1.5]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[true, 1]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[0, 0]], "unmatched_score": ["1"], "unmatched_perf": []}',
        '{"pairs": [[0, 0]], "unmatched_score": [0], "unmatched_perf": []}',
        '{"pairs": [[0, 0]], "unmatched_score": [500], "unmatched_perf": []}',
        '{"pairs": [[0, 0]], "unmatched_score": [], "unmatched_perf": []}',
    ], ids=["missing", "not-json", "not-object", "missing-keys", "pairs-not-list",
            "non-integer", "not-increasing", "index-past-end", "negative-index",
            "float-index", "bool-index", "string-index", "index-twice",
            "unmatched-past-end", "notes-left-out"])
    def test_bad_alignment_is_data_error(self, tmp_path, text):
        corpus = make_corpus(tmp_path, pieces=1, notes=40, performers=1)
        aligns = tmp_path / "aligns"
        aligns.mkdir()
        if text is not None:
            (aligns / "piece_000_p00.json").write_text(text)
        perf_dir = corpus / "performances"
        code = run("evaluate", "--pred", str(perf_dir), "--target", str(perf_dir),
                   "--out-dir", str(tmp_path / "report"), "--alignments", str(aligns))
        assert code == EXIT_DATA

    @pytest.mark.parametrize("pred, target", [
        ([], [NoteEvent(i * 96, 96, 60, 64) for i in range(10)]),
        ([NoteEvent(0, 96, 10, 64), NoteEvent(96, 96, 60, 64)],
         [NoteEvent(0, 96, 10, 64), NoteEvent(96, 96, 60, 64)]),
    ], ids=["empty-side", "pitch-off-piano"])
    def test_unscorable_item_is_data_error(self, tmp_path, capsys, pred, target):
        assert evaluate_pair(tmp_path, pred, target) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: x: ")
        assert not (tmp_path / "r").exists()

    def test_audio_past_an_hour_is_data_error(self, tmp_path, capsys):
        for side in ("pred", "target"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "x.mid").write_bytes(far_note_midi())
        assert run("evaluate", "--pred", str(tmp_path / "pred"), "--target",
                   str(tmp_path / "target"), "--out-dir", str(tmp_path / "r")) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: x: ") and "3600 s" in err
        assert not (tmp_path / "r").exists()


notes_lists = st.lists(st.builds(NoteEvent, st.integers(0, 400), st.integers(1, 400),
                                 st.integers(0, 127), st.integers(1, 127)), max_size=6)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pred=notes_lists, target=notes_lists)
def test_evaluate_any_short_notes_gives_ok_or_data_error(tmp_path, pred, target):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # evaluate warns on length mismatches
        code = evaluate_pair(Path(tempfile.mkdtemp(dir=tmp_path)), pred, target)
    assert code in (EXIT_OK, EXIT_DATA)


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run("train") == EXIT_USAGE  # missing required flags

    def test_unknown_command_is_1(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "demo_data": {"pieces": 1, "notes": 15}}))
        out = tmp_path / "c"
        assert run("--config", str(cfg), "demo-data", "--out", str(out)) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_pieces"] == 1

    def test_bad_config_version_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 99}))
        assert run("--config", str(cfg), "demo-data", "--out", str(tmp_path / "x")) == EXIT_DATA

    @pytest.mark.parametrize("edit", [
        lambda m: "{",
        lambda m: [],
        lambda m: {k: v for k, v in m.items() if k != "items"},
        lambda m: {k: v for k, v in m.items() if k != "n_performers"},
        lambda m: {**m, "n_performers": "2"},
        lambda m: {**m, "items": 5},
        lambda m: {**m, "items": [5]},
        lambda m: {**m, "items": [{k: v for k, v in m["items"][0].items() if k != "alignment"}]},
        lambda m: {**m, "items": [{**m["items"][0], "alignment": "none.json"}]},
        lambda m: {**m, "items": [{**m["items"][0], "performer_id": m["n_performers"]}]},
        lambda m: {**m, "n_performers": True},
        lambda m: {**m, "items": [{**m["items"][0], "performer_id": 0.5}]},
        lambda m: {**m, "n_performers": 2, "items": [{**m["items"][0], "performer_id": True}]},
        lambda m: {**m, "n_performers": 10**12},
        lambda m: {**m, "n_performers": 0},
        lambda m: {**m, "n_performers": -1},
    ], ids=["not-json", "not-object", "no-items", "no-performers", "performers-not-int",
            "items-not-list", "item-not-object", "item-missing-key", "alignment-missing",
            "performer-out-of-range", "performers-bool", "performer-float", "performer-bool",
            "performers-past-max", "performers-zero", "performers-negative"])
    def test_bad_manifest_is_data_error(self, tmp_path, edit):
        data = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        manifest = edit(json.loads((data / "manifest.json").read_text()))
        (data / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert run("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                   "--split", "all", "--epochs", "1") == EXIT_DATA

    def test_sparse_performer_ids_train(self, tmp_path):
        """A performer id is a row of perf_emb, so a corpus that keeps its own
        ids (here 0 and 3 of 4) trains, with fewer items than performers."""
        data = make_corpus(tmp_path, pieces=1, notes=8, performers=2)
        manifest = json.loads((data / "manifest.json").read_text())
        for item in manifest["items"]:
            item["performer_id"] *= 3
        (data / "manifest.json").write_text(json.dumps({**manifest, "n_performers": 4}))
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", str(data), "--out", str(out),
                   "--split", "all", "--epochs", "1") == EXIT_OK
        assert load_checkpoint(out.read_bytes()).config.n_performers == 4

    @pytest.mark.parametrize("tail", [
        b"",  # truncated right after the magic string
        checkpoint_tail(b"{"),
        checkpoint_tail(b""),
        checkpoint_tail(b"{}"),
        checkpoint_tail(b'{"vocab": {"bogus": 1}}'),
        checkpoint_tail(b"5"),
        checkpoint_tail(b"[]"),
        checkpoint_tail(b"{}", struct.pack("<3f", 0.0, 0.0, 0.0)),
        tiny_checkpoint()[len(MAGIC):-4] + struct.pack("<f", float("nan")),
        checkpoint_tail(b"[" * 100_000),
        checkpoint_tail(b'{"n_layers": 1000000000}'),
        *(edit_header(tiny_checkpoint(), lambda c, k=key, v=value: {**c, k: v})[len(MAGIC):]
          for key, value in [("n_heads", 2.0), ("n_heads", True), ("n_layers", True),
                             ("seed", float("nan")), ("seed", 1e308), ("d_ff", "32"),
                             ("dropout", False)]),
    ], ids=["truncated", "not-json", "no-config", "empty-config", "unknown-vocab-key",
            "config-not-object", "header-not-object", "tensor-past-end", "non-finite",
            "deeply-nested", "billion-layers", "float-heads", "bool-heads", "bool-layers",
            "nan-seed", "huge-float-seed", "string-d-ff", "bool-dropout"])
    def test_bad_checkpoint_is_data_error(self, tmp_path, tail):
        assert render_with(tmp_path, MAGIC + tail) == EXIT_DATA

    @pytest.mark.parametrize("edit", [
        lambda blob: blob[:-LAST_TENSOR_BYTES],
        lambda blob: edit_header(blob, lambda c: {**c, "d_ff": 64}),
        lambda blob: edit_header(blob, lambda c: {**c, "n_layers": 0}),
        lambda blob: blob[:-4],
        lambda blob: blob + struct.pack("<f", 0.5),
    ], ids=["missing-tensor", "wrong-shape", "extra-name", "one-float-short", "one-float-over"])
    def test_checkpoint_unlike_its_config_is_data_error(self, tmp_path, capsys, edit):
        assert render_with(tmp_path, edit(tiny_checkpoint())) == EXIT_DATA
        assert "tensor" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("max_seq_len", 10**12), ("d_embed", 4), ("vocab", {}),
    ], ids=["max_seq_len", "d_embed", "vocab"])
    def test_checkpoint_with_a_v1_config_key_is_data_error(self, tmp_path, key, value):
        blob = edit_header(tiny_checkpoint(), lambda c: {**c, key: value})
        assert render_with(tmp_path, blob) == EXIT_DATA

    @pytest.mark.parametrize("version, write", [("v1", v1_checkpoint), ("v2", v2_checkpoint)],
                             ids=["v1", "v2"])
    def test_old_checkpoint_is_data_error_naming_its_version(self, tmp_path, capsys, version,
                                                              write):
        model = init_model(M2MConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32))
        assert render_with(tmp_path, write(model)) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"checkpoint version {version!r}" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Settings: one table, library-owned defaults and ranges, one exit code each

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 1-piece corpus, a checkpoint for it, and a regular file to write beneath."""
    root = tmp_path_factory.mktemp("workspace")
    make_corpus(root, pieces=1, notes=20, performers=1)
    model = init_model(M2MConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, n_performers=1))
    (root / "m.ckpt").write_bytes(save_checkpoint(model))
    (root / "file").write_text("")
    return root


SCORE = "{c}/scores/piece_000.mid"
PERF = "{c}/performances/piece_000_p00.mid"
TRAIN = ("train", "--data", "{c}", "--out", "{o}/m.ckpt", "--split", "all")
RENDER = ("render", "--score", SCORE, "--checkpoint", "{w}/m.ckpt", "--out", "{o}/r.mid")
SYNTH = ("synth", "--in", PERF, "--out", "{o}/s.wav")
ALIGN = ("align", "--score", SCORE, "--performance", PERF, "--out", "{o}/a.json")


def run_in(workspace, out_dir, argv, config=None):
    """main() on argv with {w}, {c}, {o} filled in and config, if given, as --config."""
    paths = {"w": workspace, "c": workspace / "corpus", "o": out_dir}
    argv = [a.format(**paths) for a in argv]
    if config is not None:
        path = out_dir / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = ["--config", str(path)] + argv
    return main(argv)


class TestSettings:
    @pytest.mark.parametrize("config, argv", [
        ({"demo_data": {"pieces": "3"}}, ("demo-data", "--out", "{o}/d")),
        ({"sampling": {"seed": 1.5}}, RENDER),
        ({"model": {"n_heads": 0}}, TRAIN + ("--epochs", "1")),
        ({"train": {"warmup_steps": 0}}, TRAIN + ("--epochs", "1")),
        ({"train": {"learning-rate": 1e-3}}, TRAIN + ("--epochs", "1")),
        ({"model": 5}, ("demo-data", "--out", "{o}/d", "--pieces", "0")),
        ({"tokenize": {}}, ("demo-data", "--out", "{o}/d", "--pieces", "0")),
        ({"model": {"d_model": 3, "n_heads": 1}}, TRAIN + ("--epochs", "1")),
        ('{"train": {"learning_rate": 1e400}}', TRAIN + ("--epochs", "1")),
        ({"train": {"learning_rate": 10**400}}, TRAIN + ("--epochs", "1")),
        ({"train": {"max_epochs": True}}, TRAIN),
        (None, TRAIN + ("--epochs", "-1")),
        (None, TRAIN + ("--epochs", "1", "--batch-size", "0")),
        (None, TRAIN + ("--epochs", "1", "--d-model", "7")),
        ({"model": {"n_heads": 1}}, TRAIN + ("--epochs", "1", "--d-model", "5")),
        (None, TRAIN + ("--epochs", "1", "--dropout", "1.5")),
        (None, TRAIN + ("--epochs", "1", "--learning-rate", "nan")),
        (None, TRAIN + ("--epochs", "1", "--layers", "-1")),
        (None, TRAIN + ("--epochs", "1", "--seed", "-1")),
        (None, ("demo-data", "--out", "{o}/d", "--performers", "9")),
        (None, ("demo-data", "--out", "{o}/d", "--pieces", "-1")),
        (None, SYNTH + ("--sample-rate", "0")),
        (None, SYNTH + ("--sample-rate", "-3")),
        (None, SYNTH + ("--sample-rate", "192001")),
        (None, SYNTH + ("--sample-rate", "5000000000")),
        (None, RENDER + ("--top-p", "2")),
        (None, RENDER + ("--temperature", "nan")),
        (None, RENDER + ("--seed", "-1")),
    ], ids=["string-pieces", "float-seed", "zero-heads", "zero-warmup", "unknown-key",
            "section-not-object", "unknown-section", "zero-embedding", "infinite-number",
            "number-past-float", "bool-integer", "negative-epochs", "zero-batch",
            "d-model-not-divisible", "odd-d-model", "dropout-past-one", "nan-learning-rate",
            "negative-layers", "negative-train-seed", "performers-past-profiles", "negative-pieces",
            "zero-sample-rate", "negative-sample-rate", "sample-rate-past-192k",
            "sample-rate-past-wav-header", "top-p-past-one", "nan-temperature",
            "negative-sampling-seed"])
    def test_bad_setting_is_usage_error(self, workspace, tmp_path, capsys, config, argv):
        assert run_in(workspace, tmp_path, argv, config) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "d").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("temperature", ["1e300", "inf"],
                             ids=["temperature-past-1e6", "infinite-temperature"])
    def test_any_large_temperature_renders(self, workspace, tmp_path, temperature):
        assert run_in(workspace, tmp_path, RENDER + ("--temperature", temperature)) == EXIT_OK
        score = parse_smf((workspace / "corpus/scores/piece_000.mid").read_bytes())
        assert len(parse_smf((tmp_path / "r.mid").read_bytes()).notes) == len(score.notes)

    def test_settings_checked_before_data(self, workspace, tmp_path):
        missing = ("train", "--data", "{o}/missing", "--out", "{o}/m.ckpt")
        assert run_in(workspace, tmp_path, missing + ("--epochs", "-1")) == EXIT_USAGE
        assert run_in(workspace, tmp_path, missing) == EXIT_DATA

    def test_unknown_log_level_is_usage_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("S2A_LOG_LEVEL", "bogus")
        assert run("demo-data", "--out", str(tmp_path / "d"), "--pieces", "0") == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: S2A_LOG_LEVEL: unknown level 'bogus'\n"

    @pytest.mark.parametrize("config, argv", [
        (None, ("tokenize", "--in", "{c}")),
        (None, ("synth", "--in", "{c}", "--out", "{o}/s.wav")),
        (None, ("synth", "--in", PERF, "--out", "{w}/file/s.wav")),
        (None, ("align", "--score", SCORE, "--performance", PERF, "--out", "{w}/file/a.json")),
        (None, ("tokenize", "--in", SCORE, "--out", "{w}/file/t.tsv")),
        (None, ("train", "--data", "{c}", "--out", "{w}/file/m.ckpt", "--split", "all",
                "--epochs", "1")),
        (None, ("demo-data", "--out", "{w}/file/d", "--pieces", "1", "--notes", "5")),
        (None, ("render", "--score", SCORE, "--checkpoint", "{w}/m.ckpt",
                "--out", "{w}/file/r.mid")),
        (None, ("evaluate", "--pred", "{c}/performances", "--target", "{c}/performances",
                "--out-dir", "{w}/file")),
        (None, ("evaluate", "--pred", "{o}/missing", "--target", "{c}/performances",
                "--out-dir", "{o}/d")),
        (None, ("evaluate", "--pred", "{c}/performances", "--target", "{o}/missing",
                "--out-dir", "{o}/d")),
        (None, ("evaluate", "--pred", PERF, "--target", "{c}/performances", "--out-dir", "{o}/d")),
        (None, ("evaluate", "--pred", "{c}/performances", "--target", PERF, "--out-dir", "{o}/d")),
        (None, TRAIN + ("--epochs", "3", "--learning-rate", "1e300")),
        (None, RENDER + ("--performer-id", "99999999999999999999")),
        ("[]", ("demo-data", "--out", "{o}/d")),
        ({"version": True}, ("demo-data", "--out", "{o}/d")),
        ('{"version": 1, "model": ' * 2000 + "}" * 2000, ("demo-data", "--out", "{o}/d")),
    ], ids=["tokenize-dir", "synth-dir", "synth-out", "align-out", "tokenize-out", "train-out",
            "demo-data-out", "render-out", "evaluate-out-dir", "evaluate-missing-pred",
            "evaluate-missing-target", "evaluate-file-as-pred", "evaluate-file-as-target",
            "training-diverges",
            "performer-id-past-int64", "config-not-object", "config-version-bool",
            "config-nested-deep"])
    def test_os_and_data_problems_are_data_errors(self, workspace, tmp_path, capsys,
                                                  config, argv):
        assert run_in(workspace, tmp_path, argv, config) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("argv, name", [
        (("tokenize", "--in", SCORE), "tokenize"),
        (ALIGN, "align_notes"),
        (TRAIN + ("--epochs", "1"), "train"),
        (RENDER, "predict_performance"),
        (SYNTH, "write_wav"),
        (("evaluate", "--pred", "{c}/performances", "--target", "{c}/performances",
          "--out-dir", "{o}/r"), "evaluate_m2m"),
    ], ids=["tokenize", "align", "train", "render", "synth", "evaluate"])
    def test_value_error_from_any_layer_is_data_error(self, workspace, tmp_path, capsys,
                                                      monkeypatch, argv, name):
        def reject(*args, **kwargs):
            raise ValueError("no such input")
        monkeypatch.setattr(f"s2a.cli.{name}", reject)
        assert run_in(workspace, tmp_path, argv) == EXIT_DATA
        assert capsys.readouterr().err == "error: no such input\n"

    def test_memory_error_is_data_error(self, workspace, tmp_path, capsys, monkeypatch):
        """A model too large for memory (`--d-model 4000000000` asks numpy
        for 685 GiB) is an error line, not a traceback. The allocation is
        faked: a host that overcommits memory would grant the real one."""
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 685. GiB for an array")
        monkeypatch.setattr("s2a.cli.init_model", too_large)
        argv = TRAIN + ("--epochs", "1", "--d-model", "4000000000")
        assert run_in(workspace, tmp_path, argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 685. GiB for an array\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_debug_log_has_the_data_error_traceback(self, workspace, tmp_path, capsys,
                                                    monkeypatch, caplog):
        def reject(*args, **kwargs):
            raise ValueError("no such input")
        monkeypatch.setattr("s2a.cli.tokenize", reject)
        caplog.set_level(logging.DEBUG, logger="s2a")
        assert run_in(workspace, tmp_path, ("tokenize", "--in", SCORE)) == EXIT_DATA
        (record,) = [r for r in caplog.records if r.exc_info]
        assert "in reject" in caplog.text and record.exc_info[1].args == ("no such input",)

    def test_bad_alignment_in_manifest_is_data_error(self, tmp_path):
        data = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        (data / "alignments/piece_000_p00.json").write_text(
            '{"pairs": [[0.9, 1.5]], "unmatched_score": [], "unmatched_perf": []}')
        assert run("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                   "--split", "all", "--epochs", "1") == EXIT_DATA

    @pytest.mark.parametrize("text", [
        '{"pairs": [[500, 500]], "unmatched_score": [], "unmatched_perf": []}',
        '{"pairs": [[0, 0]], "unmatched_score": [500], "unmatched_perf": []}',
        '{"pairs": [[0, 0]], "unmatched_score": [], "unmatched_perf": []}',
    ], ids=["pair-past-end", "unmatched-past-end", "notes-left-out"])
    def test_alignment_not_covering_the_notes_is_data_error(self, tmp_path, capsys, text):
        data = make_corpus(tmp_path, pieces=1, notes=20, performers=1)
        (data / "alignments/piece_000_p00.json").write_text(text)
        assert run("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                   "--split", "all", "--epochs", "1") == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: bad manifest item")

    def test_flag_then_file_then_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"demo_data": {"pieces": 1, "notes": 15}}))
        out = tmp_path / "c"
        assert run("--config", str(cfg), "demo-data", "--out", str(out), "--pieces", "2") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_pieces"], manifest["notes_per_piece"]) == (2, 15)
        assert manifest["n_performers"] == 2  # SyntheticCorpusSpec's default

    def test_defaults_given_explicitly_give_the_same_bytes(self, workspace, tmp_path):
        corpus = str(workspace / "corpus")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "model": {"n_layers": 2, "d_model": 64, "n_heads": 4, "d_ff": 256,
                      "dropout": 0.1, "seed": 0},
            "train": {"learning_rate": 2e-5, "warmup_steps": 40, "max_epochs": 1,
                      "batch_size": 4, "alpha": 1.5, "seed": 0, "gradnorm_lr": 0.025,
                      "early_stop_loss": None},
        }))
        runs = {
            "default": ["train", "--epochs", "1"],
            "flags": ["train", "--epochs", "1", "--batch-size", "4", "--learning-rate", "2e-5",
                      "--layers", "2", "--d-model", "64", "--dropout", "0.1", "--seed", "0"],
            "file": ["--config", str(config), "train"],
        }
        outputs = set()
        for name, argv in runs.items():
            ckpt = tmp_path / f"{name}.ckpt"
            assert main(argv + ["--data", corpus, "--out", str(ckpt), "--split", "all"]) == 0
            outputs.add((ckpt.read_bytes(), ckpt.with_suffix(".log.csv").read_bytes()))
        assert len(outputs) == 1

    def test_flags_are_unchanged(self):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
        flags = {cmd: sorted(s for a in p._actions for s in a.option_strings if s != "-h")
                 for cmd, p in subparsers.items()}
        assert flags == {
            "demo-data": ["--help", "--notes", "--out", "--performers", "--pieces", "--seed"],
            "tokenize": ["--as-score", "--help", "--in", "--out"],
            "align": ["--help", "--out", "--performance", "--score"],
            "train": ["--batch-size", "--d-model", "--data", "--dropout", "--epochs", "--help",
                      "--layers", "--learning-rate", "--out", "--seed", "--split"],
            "render": ["--checkpoint", "--help", "--out", "--performer-id", "--score", "--seed",
                       "--temperature", "--top-p"],
            "synth": ["--dump-features", "--help", "--in", "--out", "--sample-rate"],
            "evaluate": ["--alignments", "--help", "--out-dir", "--pred", "--target"],
        }

    def test_readme_names_every_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {
            "--no-build-isolation"}  # pip's
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        flags = {s for p in [parser, *subparsers.values()] for a in p._actions
                 for s in a.option_strings} - {"--help", "-h"}
        assert documented == flags

    def test_readme_names_the_checkpoint_version(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        row = next(line for line in readme.splitlines() if line.startswith("| `s2a.checkpoint`"))
        assert re.findall(r"\bv\d+\b", row) == [VERSION]


# Flag and config values: accepted values stay tiny (epochs <= 2, pieces <= 2,
# notes <= 40, d_model <= 16, sample rate <= 8000, on a 1-piece corpus); the
# odd ones are out of range, non-finite, or not numbers at all.
ODD_FLAG = st.sampled_from(["0", "-1", "-3", "nan", "inf", "-inf", "1e999", "1.5", "True", "x",
                            ""])
ODD_KEY = st.sampled_from([None, True, False, "3", 1.5, -1, 0, float("nan"), float("inf"),
                           -float("inf"), 10**400, [], {}, [1]])
ints = st.integers
VALID = {
    "pieces": ints(0, 2), "notes": ints(0, 40), "performers": ints(0, 4), "seed": ints(0, 3),
    "max_epochs": ints(0, 2), "batch_size": ints(1, 4), "n_layers": ints(0, 2),
    "d_model": st.sampled_from([4, 8, 16]), "n_heads": st.sampled_from([1, 2, 4]),
    "d_ff": ints(1, 32), "warmup_steps": ints(1, 5), "sample_rate": ints(1, 8000),
    "performer_id": ints(0, 1), "dropout": st.sampled_from([0.0, 0.5]),
    "learning_rate": st.sampled_from([1e-3, 2e-5, 1e300]), "alpha": st.sampled_from([0.0, 1.5]),
    "gradnorm_lr": st.sampled_from([0.025, 1e300]), "early_stop_loss": st.sampled_from(
        [None, 0.0, 100.0]), "temperature": st.sampled_from([0.0, 1e-7, 1.0, 2.0]),
    "top_p": st.sampled_from([0.05, 0.9, 1.0]),
}
FLAG_KEYS = {"--pieces": "pieces", "--notes": "notes", "--performers": "performers",
             "--seed": "seed", "--epochs": "max_epochs", "--batch-size": "batch_size",
             "--layers": "n_layers", "--d-model": "d_model", "--learning-rate": "learning_rate",
             "--dropout": "dropout", "--performer-id": "performer_id",
             "--temperature": "temperature", "--top-p": "top_p", "--sample-rate": "sample_rate"}
OPTIONAL = {
    "demo-data": ["--pieces", "--notes", "--performers", "--seed"],
    "tokenize": ["--as-score"],
    "align": [],
    "train": ["--epochs", "--batch-size", "--learning-rate", "--layers", "--d-model",
              "--dropout", "--seed"],
    "render": ["--performer-id", "--temperature", "--top-p", "--seed"],
    "synth": ["--sample-rate", "--dump-features"],
    "evaluate": ["--alignments"],
}


def path(good, *bad):
    """The good path three times as often as each bad one."""
    return st.sampled_from([good] * 3 + list(bad))


OUT = path("{o}/out", "{w}/file/out")
REQUIRED = {
    "demo-data": {"--out": OUT},
    "tokenize": {"--in": path(SCORE, "{c}", "{o}/none.mid"),
                 "--out": path("{o}/t.tsv", "{w}/file/t.tsv")},
    "align": {"--score": path(SCORE, "{c}"), "--performance": path(PERF, "{c}"), "--out": OUT},
    "train": {"--data": path("{c}", "{o}"), "--out": OUT, "--split": path("all", "test")},
    "render": {"--score": path(SCORE, "{c}"), "--checkpoint": path("{w}/m.ckpt", PERF),
               "--out": OUT},
    "synth": {"--in": path(PERF, "{c}"), "--out": OUT},
    "evaluate": {"--pred": path("{c}/performances", "{o}"),
                 "--target": st.just("{c}/performances"), "--out-dir": OUT},
}
SECTIONS = {  # the config keys README.md documents
    "model": ["n_layers", "d_model", "n_heads", "d_ff", "dropout", "seed"],
    "train": ["learning_rate", "warmup_steps", "max_epochs", "batch_size", "alpha", "seed",
              "gradnorm_lr", "early_stop_loss"],
    "sampling": ["temperature", "top_p", "seed"],
    "synth": ["sample_rate"],
    "demo_data": ["pieces", "notes", "performers", "seed"],
}
# Small leaves only: a document drawn here can still name a real section and key.
json_doc = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from([float("nan"), float("inf")]) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def config_docs(draw):
    """Objects of the config's sections and keys (a few unknown), or any JSON document."""
    doc = {}
    names = st.sampled_from(list(SECTIONS) + ["bogus"])
    for section in draw(st.lists(names, max_size=3, unique=True)):
        keys = st.sampled_from(SECTIONS.get(section, ["seed"]) + ["bogus-key"])
        doc[section] = {key: draw(st.one_of(VALID.get(key, ODD_KEY), ODD_KEY))
                        for key in draw(st.lists(keys, max_size=4, unique=True))}
    if draw(st.booleans()):
        doc["version"] = draw(st.sampled_from([1, 1, 1, 2, "1", True, 1.0]))
    return draw(st.one_of(st.just(doc), json_doc))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(list(REQUIRED)))
    argv = [command]
    for flag, value in REQUIRED[command].items():
        argv += [flag, draw(value)]
    optional = OPTIONAL[command]  # align has none, and sampled_from([]) is an error
    for flag in draw(st.lists(st.sampled_from(optional), unique=True)) if optional else ():
        if flag == "--alignments":
            argv += [flag, draw(path("{c}/alignments", "{c}/scores", "{o}"))]
        elif flag not in FLAG_KEYS:  # a switch
            argv += [flag]
        else:
            value = draw(st.one_of(VALID[FLAG_KEYS[flag]].map(str), ODD_FLAG))
            argv += [f"{flag}={value}"]
    config = draw(st.one_of(st.none(), config_docs()))
    return argv, config


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
@example(invocation=(["demo-data", "--out", "{o}/out", "--pieces=1", "--notes=5"], None))
@example(invocation=(["tokenize", "--in", SCORE, "--out", "{o}/t.tsv", "--as-score"], None))
@example(invocation=(list(ALIGN), None))
@example(invocation=(list(TRAIN) + ["--epochs=2", "--d-model=8"],
                     {"version": 1, "model": {"n_heads": 2, "d_ff": 8},
                      "train": {"early_stop_loss": None}}))
@example(invocation=(list(RENDER) + ["--temperature=0.5"], {"sampling": {"top_p": 0.5}}))
@example(invocation=(list(SYNTH) + ["--dump-features"], {"synth": {"sample_rate": 8000}}))
@example(invocation=(["evaluate", "--pred", "{c}/performances", "--target", "{c}/performances",
                      "--out-dir", "{o}/r", "--alignments", "{c}/alignments"], None))
def test_any_flags_and_config_give_a_contract_exit_code(workspace, tmp_path, invocation):
    argv, config = invocation
    out_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # evaluate warns on length mismatches
        code = run_in(workspace, out_dir, argv, None if config is None else json.dumps(config))
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_EMPTY)
