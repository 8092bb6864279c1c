import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import group_relative_errors
from s2a.checkpoint import load_checkpoint, save_checkpoint
from s2a.midi_io import NoteEvent, NoteSequence, write_smf
from s2a.model import (
    M2MConfig,
    forward,
    init_model,
    nucleus_sample_row,
    predict_performance,
    sample,
    softmax,
)
from s2a.tokenizer import PAD_TUPLE, SEGMENT_LEN, TokenSegment, TokenTuple


def toy_config(**overrides):
    defaults = dict(n_layers=1, d_model=16, n_heads=2, d_ff=32, dropout=0.0,
                    n_performers=3, max_seq_len=8, seed=11)
    defaults.update(overrides)
    return M2MConfig(**defaults)


def small_model():
    return init_model(M2MConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                                dropout=0.0, n_performers=4, seed=3))


def make_segment(n_real=10, performer_id=0, fill=5):
    tuples = [TokenTuple(4 + i % 88, 4 + i % 64, 4 + i % 1152, 4 + i % 768,
                         4 + i % 384, 4 + i % 3000) for i in range(n_real)]
    pad = [PAD_TUPLE] * (SEGMENT_LEN - n_real) if fill is None else [
        TokenTuple(fill, fill, fill, fill, fill, fill)] * (SEGMENT_LEN - n_real)
    mask = (True,) * n_real + (False,) * (SEGMENT_LEN - n_real)
    return TokenSegment(tuples=tuple(tuples + pad), pad_mask=mask,
                        performer_id=performer_id, source_offset=0)


class TestForward:
    def test_output_shapes(self):
        model = small_model()
        dist = forward(model, make_segment())
        assert dist.vel_logits.shape == (256, 68)
        assert dist.ioi_logits.shape == (256, 772)
        assert dist.dur_logits.shape == (256, 1156)

    def test_softmax_normalization(self):
        model = small_model()
        dist = forward(model, make_segment(n_real=30))
        for logits in (dist.vel_logits, dist.ioi_logits, dist.dur_logits):
            sums = softmax(logits).sum(axis=-1)
            assert np.all(np.abs(sums[:30] - 1.0) < 1e-6)

    def test_pad_content_invariance(self):
        model = small_model()
        a = forward(model, make_segment(n_real=12, fill=5))
        b = forward(model, make_segment(n_real=12, fill=9))
        assert np.array_equal(a.vel_logits[:12], b.vel_logits[:12])
        assert np.array_equal(a.ioi_logits[:12], b.ioi_logits[:12])
        assert np.array_equal(a.dur_logits[:12], b.dur_logits[:12])

    def test_performer_changes_logits(self):
        model = small_model()
        a = forward(model, make_segment(performer_id=0))
        b = forward(model, make_segment(performer_id=1))
        assert not np.array_equal(a.vel_logits[:10], b.vel_logits[:10])

    def test_performer_row_permutation(self):
        model = small_model()
        permuted = small_model()
        perm = [2, 0, 3, 1]
        permuted.params = {k: v.copy() for k, v in model.params.items()}
        permuted.params["perf_emb"] = model.params["perf_emb"][perm]
        for j in range(4):
            a = forward(permuted, make_segment(performer_id=j))
            b = forward(model, make_segment(performer_id=perm[j]))
            assert np.array_equal(a.vel_logits, b.vel_logits)

    def test_bad_token_id_rejected(self):
        model = small_model()
        seg = make_segment()
        bad = list(seg.tuples)
        bad[0] = TokenTuple(95, 4, 4, 4, 4, 4)  # pitch vocab is 92
        seg = TokenSegment(tuple(bad), seg.pad_mask, 0, 0)
        with pytest.raises(ValueError, match="pitch"):
            forward(model, seg)

    def test_bad_performer_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match="performer"):
            forward(model, make_segment(performer_id=7))

    def test_deterministic(self):
        model = small_model()
        seg = make_segment()
        a = forward(model, seg)
        b = forward(model, seg)
        assert np.array_equal(a.vel_logits, b.vel_logits)


class TestGradients:
    def test_matches_finite_differences(self):
        model = init_model(toy_config())
        errors = group_relative_errors(model, seed=5)
        worst = max(errors.values())
        assert worst < 1e-4, f"worst group error {worst}: {errors}"


class TestSampling:
    def test_argmax_at_zero_temperature(self):
        rng = np.random.default_rng(0)
        logits = np.array([0.2, 3.0, -1.0, 0.4])
        for _ in range(5):
            assert nucleus_sample_row(logits, 1e-9, 1.0, rng) == 1

    def test_tiny_top_p_is_argmax(self):
        rng = np.random.default_rng(0)
        logits = np.array([0.0, 5.0, 1.0])
        picks = {nucleus_sample_row(logits, 1.0, 0.05, rng) for _ in range(50)}
        assert picks == {1}

    def test_tie_break_prefers_lower_id(self):
        rng = np.random.default_rng(0)
        logits = np.zeros(4)
        picks = {nucleus_sample_row(logits, 1.0, 0.5, rng) for _ in range(200)}
        assert picks == {0, 1}

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(123)
        logits = np.array([0.0, math.log(2.0), math.log(4.0)])
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[nucleus_sample_row(logits, 1.0, 1.0, rng)] += 1
        probs = np.array([1 / 7, 2 / 7, 4 / 7])
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 3 * sigma)

    def test_specials_never_sampled(self):
        model = small_model()
        dist = forward(model, make_segment(n_real=40))
        vel, ioi, dur = sample(dist, temperature=2.0, top_p=1.0, seed=9)
        for toks in (vel, ioi, dur):
            assert min(toks) >= 4

    def test_seeded_reproducibility(self):
        model = small_model()
        dist = forward(model, make_segment(n_real=40))
        assert sample(dist, 1.0, 0.9, seed=7) == sample(dist, 1.0, 0.9, seed=7)


class TestPredictPerformance:
    def score(self, n=40):
        notes = [NoteEvent(i * 48, 48, 40 + (i * 5) % 50, 60) for i in range(n)]
        return NoteSequence(ppq=96, notes=tuple(notes))

    def test_note_count_and_pitches_preserved(self):
        model = small_model()
        score = self.score(300)  # crosses a segment boundary
        out = predict_performance(model, score, performer_id=1, seed=4)
        assert len(out.notes) == len(score.notes)
        assert [n.pitch for n in out.notes] == [n.pitch for n in score.notes]

    def test_velocities_come_from_model(self):
        model = small_model()
        out = predict_performance(model, self.score(), performer_id=0,
                                  temperature=2.0, top_p=1.0, seed=1)
        assert len({n.velocity for n in out.notes}) > 1

    def test_fixed_seed_bit_identical(self):
        model = small_model()
        score = self.score(100)
        a = predict_performance(model, score, 0, 1.0, 0.9, seed=5)
        b = predict_performance(model, score, 0, 1.0, 0.9, seed=5)
        assert write_smf(a) == write_smf(b)

    def test_empty_score(self):
        model = small_model()
        out = predict_performance(model, NoteSequence(ppq=96), 0, seed=0)
        assert out.notes == ()


class TestCheckpoint:
    def test_round_trip(self):
        model = small_model()
        blob = save_checkpoint(model)
        again = load_checkpoint(blob)
        assert again.config == model.config
        for key, value in model.params.items():
            assert np.allclose(again.params[key], value, atol=1e-6)

    def test_round_trip_preserves_predictions(self):
        model = small_model()
        again = load_checkpoint(save_checkpoint(model))
        seg = make_segment(n_real=20)
        a = forward(load_checkpoint(save_checkpoint(model)), seg)
        b = forward(again, seg)
        assert np.array_equal(a.vel_logits, b.vel_logits)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(b"garbage")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damaged_bytes_load_or_raise_value_error(self, data):
        model = small_model()
        blob = bytearray(save_checkpoint(model))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:  # most flips land in the header, where the structure is
            header_end = len(blob) - 4 * sum(v.size for v in model.params.values())
            for _ in range(data.draw(st.integers(1, 3), label="flips")):
                at = data.draw(st.integers(0, header_end + 64), label="at")
                blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        try:
            load_checkpoint(bytes(blob))
        except ValueError:
            pass
