import json
import struct

import numpy as np
import pytest

from test_midi_io import smf, vlq
from test_model import edit_manifest
from s2a.checkpoint import MAGIC, save_checkpoint
from s2a.cli import EXIT_DATA, EXIT_EMPTY, EXIT_OK, EXIT_USAGE, main
from s2a.midi_io import parse_smf
from s2a.model import M2MConfig, init_model
from s2a.synth import load_matrix, midi_spectrogram, read_wav, render_audio, write_wav
from s2a.tokenizer import SCORE_VELOCITY


def run(*argv):
    return main(list(argv))


def make_corpus(tmp_path, pieces=2, notes=60, performers=2, seed=11):
    out = tmp_path / "corpus"
    code = run("demo-data", "--out", str(out), "--pieces", str(pieces),
               "--notes", str(notes), "--performers", str(performers),
               "--seed", str(seed))
    assert code == EXIT_OK
    return out


def checkpoint_tail(header: bytes, tensors: bytes = b"") -> bytes:
    """Checkpoint bytes after the magic string: header length, header, tensors."""
    return struct.pack("<Q", len(header)) + header + tensors


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
    ], ids=["missing", "not-json", "not-object", "missing-keys", "pairs-not-list",
            "non-integer", "not-increasing", "index-past-end", "negative-index"])
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
    ], ids=["not-json", "not-object", "no-items", "no-performers", "performers-not-int",
            "items-not-list", "item-not-object", "item-missing-key", "alignment-missing",
            "performer-out-of-range"])
    def test_bad_manifest_is_data_error(self, tmp_path, edit):
        data = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        manifest = edit(json.loads((data / "manifest.json").read_text()))
        (data / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert run("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                   "--split", "all", "--epochs", "1") == EXIT_DATA

    @pytest.mark.parametrize("tail", [
        b"",  # truncated right after the magic string
        checkpoint_tail(b"{"),
        checkpoint_tail(b'{"tensors": []}'),
        checkpoint_tail(b'{"config": {}, "tensors": []}'),
        checkpoint_tail(b'{"config": {"vocab": {"bogus": 1}}, "tensors": []}'),
        checkpoint_tail(b'{"config": 5, "tensors": []}'),
        checkpoint_tail(b"[]"),
        checkpoint_tail(b'{"config": {"vocab": {}}, "tensors": [{"name": "x", "shape": [4],'
                        b' "offset": 0, "dtype": "<f4"}]}'),
        checkpoint_tail(b'{"config": {"vocab": {}}, "tensors": [{"name": "x", "shape": [1],'
                        b' "offset": 0, "dtype": "<f4"}]}', struct.pack("<f", float("nan"))),
    ], ids=["truncated", "not-json", "no-config", "empty-config", "unknown-vocab-key",
            "config-not-object", "header-not-object", "tensor-past-end", "non-finite"])
    def test_bad_checkpoint_is_data_error(self, tmp_path, tail):
        corpus = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(MAGIC + tail)
        assert run("render", "--score", str(corpus / "scores/piece_000.mid"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.mid")) == EXIT_DATA

    @pytest.mark.parametrize("edit", [
        lambda ts: [t for t in ts if t["name"] != "emb_pitch"],
        lambda ts: [{**t, "shape": [t["shape"][0] + 1, t["shape"][1]]}
                    if t["name"] == "emb_velocity" else t for t in ts],
        lambda ts: ts + [{"name": "extra", "shape": [1], "offset": 0, "dtype": "<f4"}],
    ], ids=["missing-tensor", "wrong-shape", "extra-name"])
    def test_checkpoint_unlike_its_config_is_data_error(self, tmp_path, edit):
        corpus = make_corpus(tmp_path, pieces=1, notes=8, performers=1)
        model = init_model(M2MConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32))
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(edit_manifest(save_checkpoint(model), edit))
        assert run("render", "--score", str(corpus / "scores/piece_000.mid"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "o.mid")) == EXIT_DATA
