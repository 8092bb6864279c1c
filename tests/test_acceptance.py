"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -rA` to see every line, or `-s` for live output. The
timed criteria (gradient check, overfit run, pipeline determinism) assert
their wall-clock budgets as part of the criterion.
"""

import math
import random
import time
from itertools import product
from pathlib import Path

import numpy as np

from gradcheck import group_relative_errors
from test_align import jittered_performance, random_score
from test_metrics import brute_force_dtw
from test_midi_io import random_sequence
from test_tokenizer import random_grid_sequence

from oracles import alignment_objective, brute_force_align
from s2a.align import align_notes
from s2a.cli import main as cli_main
from s2a.corpus import (
    PerformerProfile,
    SyntheticCorpusSpec,
    build_training_pairs,
    generate_corpus,
)
from s2a.metrics import FeatureSeq, dtw_path_cost, kld, pearson
from s2a.midi_io import NoteEvent, NoteSequence, TempoEvent, parse_smf, write_smf
from s2a.model import M2MConfig, init_model
from s2a.synth import (
    Waveform,
    chromagram,
    concat_crosscorr,
    midi_spectrogram,
    render_audio,
    segment_audio,
    stitch_segments,
)
from s2a.tokenizer import VocabSpec, detokenize, tokenize
from s2a.trainer import TaskWeights, TrainConfig, gradnorm_step, token_accuracy, train
from s2a.align import AlignmentMap


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_vocabulary_conformance():
    sizes = VocabSpec().sizes()
    report(1, "vocabulary sizes match", sizes == (92, 68, 1156, 772, 388, 3004),
           f"sizes={sizes}")


def test_02_tokenizer_round_trip():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        seq = random_grid_sequence(rng)
        toks = tokenize(seq, is_score=False)
        out = detokenize(
            [t.pitch_tok for t in toks],
            [t.velocity_tok for t in toks],
            [t.ioi_tok for t in toks],
            [t.duration_tok for t in toks],
            seq.effective_time_signatures(),
        )
        if out.notes != seq.notes:
            failures += 1
    report(2, "tokenizer round-trip on 1000 sequences", failures == 0,
           f"failures={failures}")


def test_03_midi_io_round_trip():
    rng = random.Random(31)
    failures = 0
    for _ in range(500):
        seq = random_sequence(rng)
        again = parse_smf(write_smf(seq))
        same = (
            again.ppq == seq.ppq
            and again.notes == seq.notes
            and again.tempi == seq.tempi
            and again.time_signatures == seq.time_signatures
            and again.sustain_events == seq.sustain_events
        )
        failures += 0 if same else 1
    report(3, "SMF parse/write identity on 500 sequences", failures == 0,
           f"failures={failures}")


def test_04_gradient_check():
    start = time.monotonic()
    model = init_model(M2MConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                                 dropout=0.0, n_performers=3, seed=11))
    errors = group_relative_errors(model, seed=5)
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    report(4, "analytic vs finite-difference gradients",
           worst < 1e-4 and elapsed < 60.0,
           f"worst group error {worst:.2e}, {elapsed:.1f}s")


OVERFIT_PROFILES = (
    PerformerProfile(arch_depth=24.0, rubato_amplitude=0.15, articulation=0.75, noise=0.6),
    PerformerProfile(arch_depth=12.0, rubato_amplitude=0.30, articulation=1.10, noise=0.6),
)


def _overfit_dataset(tmp_path):
    spec = SyntheticCorpusSpec(n_pieces=2, notes_per_piece=256, n_performers=2,
                               seed=5, profiles=OVERFIT_PROFILES)
    manifest = generate_corpus(spec, tmp_path)
    pairs = []
    for item in manifest["items"]:
        score = parse_smf((tmp_path / item["score"]).read_bytes())
        perf = parse_smf((tmp_path / item["performance"]).read_bytes())
        amap = AlignmentMap.from_json((tmp_path / item["alignment"]).read_text())
        pairs.extend(build_training_pairs(score, perf, amap, item["performer_id"]))
    return pairs


def test_05_overfit_experiment(tmp_path):
    start = time.monotonic()
    pairs = _overfit_dataset(tmp_path)
    assert len(pairs) == 4
    model = init_model(M2MConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                                 dropout=0.0, n_performers=2, seed=1))
    cfg = TrainConfig(learning_rate=3e-3, warmup_steps=40, max_epochs=1500,
                      batch_size=4, seed=0, early_stop_loss=0.15)
    model, log = train(model, pairs, cfg)
    steps = len(log.records)
    assert steps <= 2000

    accuracy = token_accuracy(model, pairs)
    from s2a.trainer import greedy_predictions
    correlations = {}
    for feature, (pred, target) in greedy_predictions(model, pairs).items():
        vocab = {"velocity": 68, "ioi": 772, "duration": 1156}[feature]
        correlations[feature] = pearson(
            FeatureSeq(tuple(int(v) for v in pred), feature, vocab),
            FeatureSeq(tuple(int(v) for v in target), feature, vocab),
        )
    elapsed = time.monotonic() - start
    ok = (
        all(v > 0.9 for v in accuracy.values())
        and all(v >= 0.9 for v in correlations.values())
        and elapsed < 600.0
    )
    detail = (
        f"{steps} steps, acc "
        + " ".join(f"{k}={v:.3f}" for k, v in accuracy.items())
        + ", corr "
        + " ".join(f"{k}={v:.3f}" for k, v in correlations.items())
        + f", {elapsed:.0f}s"
    )
    report(5, "overfit: >90% token accuracy and r>=0.9 per feature", ok, detail)


def test_06_metric_oracles():
    # DTWD vs exhaustive enumeration: every pair over a 3-token alphabet up
    # to length 3, plus seeded samples from the 5-token alphabet for every
    # length combination up to 6 x 6
    alphabet3 = [4, 5, 6]
    short = [list(s) for n in (1, 2, 3) for s in product(alphabet3, repeat=n)]
    mismatches = 0
    for x in short:
        for y in short:
            got = dtw_path_cost([float(v) for v in x], [float(v) for v in y])
            if got != brute_force_dtw(x, y):
                mismatches += 1
    rng = random.Random(66)
    alphabet5 = [4, 5, 6, 7, 8]
    for n in range(1, 7):
        for m in range(1, 7):
            for _ in range(30):
                x = [rng.choice(alphabet5) for _ in range(n)]
                y = [rng.choice(alphabet5) for _ in range(m)]
                got = dtw_path_cost([float(v) for v in x], [float(v) for v in y])
                if got != brute_force_dtw(x, y):
                    mismatches += 1

    # pearson vs the two-pass formula
    worst_pearson = 0.0
    for _ in range(200):
        n = rng.randint(2, 50)
        xs = [rng.randint(4, 67) for _ in range(n)]
        ys = [rng.randint(4, 67) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        mx, my = sum(xs) / n, sum(ys) / n
        num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
        den = math.sqrt(sum((a - mx) ** 2 for a in xs) * sum((b - my) ** 2 for b in ys))
        got = pearson(FeatureSeq(tuple(xs), "velocity", 68),
                      FeatureSeq(tuple(ys), "velocity", 68))
        worst_pearson = max(worst_pearson, abs(got - num / den))

    # kld self-divergence
    worst_kld = 0.0
    for _ in range(100):
        vals = tuple(rng.randint(4, 67) for _ in range(rng.randint(1, 40)))
        seq = FeatureSeq(vals, "velocity", 68)
        worst_kld = max(worst_kld, kld(seq, seq))

    ok = mismatches == 0 and worst_pearson < 1e-9 and worst_kld < 1e-9
    report(6, "metric oracles (dtwd exact, pearson 1e-9, kld(x,x)<1e-9)", ok,
           f"dtwd mismatches={mismatches}, pearson err={worst_pearson:.1e}, "
           f"kld self={worst_kld:.1e}")


def test_07_gradnorm_invariants():
    rng = np.random.default_rng(77)
    weights = TaskWeights(alpha=1.5)
    worst_sum = 0.0
    for _ in range(500):
        losses = tuple(float(v) for v in rng.uniform(0.05, 6.0, 3))
        norms = tuple(float(v) for v in rng.uniform(0.01, 4.0, 3))
        weights = gradnorm_step(weights, losses, norms, lr=0.025)
        worst_sum = max(worst_sum, abs(sum(weights.as_tuple()) - 3.0))

    fixed = TaskWeights(alpha=1.5)
    worst_drift = 0.0
    for _ in range(100):
        fixed = gradnorm_step(fixed, (1.7, 1.7, 1.7), (0.9, 0.9, 0.9), lr=0.025)
        worst_drift = max(worst_drift, max(abs(w - 1.0) for w in fixed.as_tuple()))

    ok = worst_sum < 1e-9 and worst_drift < 1e-6
    report(7, "GradNorm sum-to-3 and symmetric fixed point", ok,
           f"sum dev={worst_sum:.1e}, fixed-point drift={worst_drift:.1e}")


def test_08_synthesis():
    # A4 feature localization
    a4 = NoteSequence(ppq=96, notes=(NoteEvent(0, 384, 69, 100),),
                      tempi=(TempoEvent(0, 500000),))
    spec = midi_spectrogram(render_audio(a4))
    voiced = spec.frames.sum(axis=1) > 0
    spec_ok = bool(voiced.any()) and bool(
        np.all(np.argmax(spec.frames[voiced], axis=1) == 69)
    )
    chroma = chromagram(spec)
    cvoiced = chroma.frames.sum(axis=1) > 0
    chroma_ok = bool(np.all(np.argmax(chroma.frames[cvoiced], axis=1) == 9))

    # stitched vs continuous render
    seq = NoteSequence(
        ppq=96,
        notes=tuple(NoteEvent(i * 96, 72, 48 + (i * 7) % 40, 40 + (i * 13) % 80)
                    for i in range(64)),
        tempi=(TempoEvent(0, 500000),),
    )
    continuous = render_audio(seq)
    overlap, fade = 0.5, 0.02
    segs = segment_audio(continuous, 9.6, overlap)
    stitched = stitch_segments(segs, max_lag_seconds=0.05, fade_seconds=fade,
                               overlap_seconds=overlap)
    n = min(len(stitched.samples), len(continuous.samples))
    sr = continuous.sample_rate
    seg_n = int(9.6 * sr)
    step = seg_n - int(overlap * sr)
    fade_n = int(fade * sr)
    mask = np.ones(n, dtype=bool)
    for k in range(1, len(segs)):
        join = seg_n + (k - 1) * step
        mask[max(0, join - fade_n - 2):min(n, join + 2)] = False
    diff = stitched.samples[:n][mask] - continuous.samples[:n][mask]
    rms = float(np.sqrt(np.mean(diff * diff)))
    stitch_ok = rms < 1e-3

    # shift recovery for k up to max_lag
    srate = 24000
    rng = np.random.default_rng(8)
    t = np.arange(4 * srate) / srate
    x = 0.4 * np.sin(2 * np.pi * 220 * t) + 0.05 * rng.standard_normal(len(t))
    half = len(x) // 2
    window = int(0.07 * srate)
    max_lag_n = int(0.05 * srate)
    shift_ok = True
    for k in (1, 240, 600, max_lag_n):
        a = Waveform(x[:half], srate)
        b = Waveform(x[half - window + k:], srate)
        result = concat_crosscorr(a, b, max_lag_seconds=0.05, fade_seconds=0.02)
        if result.lag != -k:
            shift_ok = False
    ok = spec_ok and chroma_ok and stitch_ok and shift_ok
    report(8, "synthesis: A4 bins, stitch RMS, shift recovery", ok,
           f"spec={spec_ok} chroma={chroma_ok} rms={rms:.1e} shift={shift_ok}")


def _run_pipeline(base: Path, seed: int) -> dict[str, bytes]:
    corpus = base / "corpus"
    assert cli_main(["demo-data", "--out", str(corpus), "--pieces", "2",
                     "--notes", "120", "--performers", "2", "--seed", str(seed)]) == 0
    ckpt = base / "model.ckpt"
    # 4 performances of one segment each, batch 4 -> one step per epoch
    assert cli_main(["train", "--data", str(corpus), "--out", str(ckpt),
                     "--split", "all", "--epochs", "50", "--batch-size", "4",
                     "--learning-rate", "1e-3", "--dropout", "0.1",
                     "--seed", str(seed)]) == 0
    pred_dir = base / "pred"
    pred_dir.mkdir()
    rendered = pred_dir / "piece_000_p00.mid"
    assert cli_main(["render", "--score", str(corpus / "scores/piece_000.mid"),
                     "--checkpoint", str(ckpt), "--performer-id", "0",
                     "--out", str(rendered), "--seed", str(seed)]) == 0
    wav = base / "out.wav"
    assert cli_main(["synth", "--in", str(rendered), "--out", str(wav)]) == 0
    reports = base / "report"
    assert cli_main(["evaluate", "--pred", str(pred_dir),
                     "--target", str(corpus / "performances"),
                     "--out-dir", str(reports)]) == 0
    return {
        "midi": rendered.read_bytes(),
        "wav": wav.read_bytes(),
        "checkpoint": ckpt.read_bytes(),
        "train_log": ckpt.with_suffix(".log.csv").read_bytes(),
        "report.json": (reports / "report.json").read_bytes(),
        "report.csv": (reports / "report.csv").read_bytes(),
        "summary.txt": (reports / "summary.txt").read_bytes(),
    }


def test_09_pipeline_determinism(tmp_path):
    start = time.monotonic()
    first = _run_pipeline(tmp_path / "run1", seed=1234)
    second = _run_pipeline(tmp_path / "run2", seed=1234)
    elapsed = time.monotonic() - start
    differing = sorted(name for name in first if first[name] != second[name])
    ok = not differing and elapsed < 900.0
    report(9, "pipeline determinism (bit-identical artifacts)", ok,
           f"differing={differing or 'none'}, {elapsed:.0f}s")


def test_10_alignment():
    rng = random.Random(1001)
    total = 0
    correct = 0
    for _ in range(100):
        score = random_score(rng, rng.randrange(20, 80))
        perf = jittered_performance(score, rng, jitter_frac=0.2)
        result = align_notes(score, perf)
        matched = dict(result.pairs)
        total += len(score.notes)
        correct += sum(1 for i in range(len(score.notes)) if matched.get(i) == i)
    rate = correct / total

    exact = True
    for _ in range(20):
        score = random_score(rng, rng.randrange(1, 9))
        perf_notes = [
            NoteEvent(max(0, n.onset_ticks + rng.randint(-8, 8)), n.duration_ticks,
                      n.pitch if rng.random() < 0.8 else min(108, n.pitch + 2),
                      60)
            for n in score.notes if rng.random() > 0.15
        ]
        perf = NoteSequence(ppq=96, notes=tuple(perf_notes))
        result = align_notes(score, perf)
        if not perf.notes:
            exact &= result.pairs == ()
            continue
        best, optima = brute_force_align(score, perf)
        achieved = alignment_objective(score, perf, result)
        exact &= achieved[0] == best[0]
        exact &= abs(achieved[1] - best[1]) < 1e-12
        exact &= result.pairs in optima

    ok = rate >= 0.99 and exact
    report(10, "alignment: >=99% on jitter, exact vs brute force", ok,
           f"jitter accuracy {rate:.4f}, brute-force agreement {exact}")
