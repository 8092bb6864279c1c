import itertools
import json
import math
import re
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import group_relative_errors, random_inputs
from oracles import (
    loop_render,
    loop_sample,
    one_thread_split_work,
    scalar_nucleus_sample_row,
    seed_uniforms,
    softmax,
    whole_array_attention,
    whole_array_attention_backward,
)
from s2a import model as model_module
from s2a.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from s2a.midi_io import NoteEvent, NoteSequence, TempoEvent, TimeSignatureEvent, write_smf
from s2a.model import (
    ARGMAX_TEMPERATURE,
    MAX_PERFORMERS,
    NEG_MASK,
    SAMPLE_BLOCK,
    M2MConfig,
    backward_batch,
    check_sampling,
    forward,
    forward_batch,
    init_model,
    nucleus_sample,
    nucleus_sample_row,
    predict_performance,
    prepare_batch,
    sample,
)
from s2a.tokenizer import (
    FEATURE_NAMES,
    N_SPECIALS,
    PAD,
    PITCH_MIN,
    PREDICTED,
    SEGMENT_LEN,
    VOCAB,
    TokenSegment,
)
from s2a.trainer import cross_entropy

LAST_TENSOR_BYTES = 4 * VOCAB.size("duration")  # head_dur_b, the last tensor of a checkpoint


def toy_config(**overrides):
    defaults = dict(n_layers=1, d_model=16, n_heads=2, d_ff=32, dropout=0.0,
                    n_performers=3, seed=11)
    defaults.update(overrides)
    return M2MConfig(**defaults)


def small_model():
    return init_model(M2MConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                                dropout=0.0, n_performers=4, seed=3))


def make_segment(n_real=10, performer_id=0, fill=5):
    """n_real patterned notes, then pad rows of fill (PAD when fill is None)."""
    ids = np.full((SEGMENT_LEN, 6), PAD if fill is None else fill, dtype=np.int64)
    i = np.arange(n_real)
    ids[:n_real] = np.stack([4 + i % 88, 4 + i % 64, 4 + i % 1152, 4 + i % 768,
                             4 + i % 384, 4 + i % 3000], axis=1)
    return TokenSegment(ids=ids, n_real=n_real, performer_id=performer_id)


class TestForward:
    def test_output_shapes(self):
        model = small_model()
        dist = forward(model, make_segment())
        assert dist["velocity"].shape == (256, 68)
        assert dist["ioi"].shape == (256, 772)
        assert dist["duration"].shape == (256, 1156)

    def test_softmax_normalization(self):
        model = small_model()
        dist = forward(model, make_segment(n_real=30))
        for logits in dist.values():
            sums = softmax(logits).sum(axis=-1)
            assert np.all(np.abs(sums[:30] - 1.0) < 1e-6)

    def test_pad_content_invariance(self):
        model = small_model()
        a = forward(model, make_segment(n_real=12, fill=5))
        b = forward(model, make_segment(n_real=12, fill=9))
        assert np.array_equal(a["velocity"][:12], b["velocity"][:12])
        assert np.array_equal(a["ioi"][:12], b["ioi"][:12])
        assert np.array_equal(a["duration"][:12], b["duration"][:12])

    def test_performer_changes_logits(self):
        model = small_model()
        a = forward(model, make_segment(performer_id=0))
        b = forward(model, make_segment(performer_id=1))
        assert not np.array_equal(a["velocity"][:10], b["velocity"][:10])

    def test_performer_row_permutation(self):
        model = small_model()
        permuted = small_model()
        perm = [2, 0, 3, 1]
        permuted.params = {k: v.copy() for k, v in model.params.items()}
        permuted.params["perf_emb"] = model.params["perf_emb"][perm]
        for j in range(4):
            a = forward(permuted, make_segment(performer_id=j))
            b = forward(model, make_segment(performer_id=perm[j]))
            assert np.array_equal(a["velocity"], b["velocity"])

    def test_bad_token_id_rejected(self):
        model = small_model()
        seg = make_segment()
        bad = seg.ids.copy()
        bad[0] = (95, 4, 4, 4, 4, 4)  # pitch vocab is 92
        seg = TokenSegment(bad, seg.n_real, 0)
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
        assert np.array_equal(a["velocity"], b["velocity"])

    def test_inference_pass_keeps_no_cache(self):
        """Without a generator the pass keeps no cache, and its logits are
        those of a training pass at dropout 0."""
        model = init_model(toy_config(n_layers=2))
        batch = prepare_batch([make_segment(n_real=n, performer_id=i, fill=None)
                               for i, n in enumerate((256, 9))])
        logits, cache = forward_batch(model, *batch)
        assert cache is None
        want, _ = forward_batch(model, *batch, np.random.default_rng(0))
        for feature in PREDICTED:
            assert np.array_equal(logits[feature], want[feature]), feature

    def test_forward_peak_memory(self):
        """One forward call on a full segment at the default shape peaks under
        8 MiB: 4.7 MiB, against 11.7 MiB when it kept every layer's training
        cache until it returned."""
        model = init_model(M2MConfig(n_performers=2, seed=0))
        seg = make_segment(n_real=SEGMENT_LEN, performer_id=1, fill=None)
        forward(model, seg)  # warm-up
        tracemalloc.start()
        try:
            forward(model, seg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak


class TestGradients:
    def test_matches_finite_differences(self):
        model = init_model(toy_config())
        errors = group_relative_errors(model, seed=5)
        worst = max(errors.values())
        assert worst < 1e-4, f"worst group error {worst}: {errors}"

    def test_matches_finite_differences_with_dropout(self):
        model = init_model(toy_config(dropout=0.3))
        errors = group_relative_errors(model, seed=5, dropout_seed=2)
        worst = max(errors.values())
        assert worst < 1e-4, f"worst group error {worst}: {errors}"

    def test_dropout_needs_a_dropout_seed(self):
        """A check without a dropout seed is a plain check: its forward passes
        get a generator only so that they keep the cache, and must draw no mask."""
        with pytest.raises(AssertionError, match="dropout 0"):
            group_relative_errors(init_model(toy_config(dropout=0.3)), seed=5)


@pytest.mark.parametrize("n_layers", [0, 2])
def test_every_parameter_gets_a_gradient(n_layers):
    """A tensor that cannot change the loss gets a gradient of rounding noise
    alone; every parameter's must reach 1e-12 of the largest."""
    model = init_model(toy_config(n_layers=n_layers))
    ids, nonpad, performer, targets = random_inputs(model.config, np.random.default_rng(0))
    assert not nonpad.all()
    # a training pass keeps the cache; at dropout 0 its generator draws nothing
    logits, cache = forward_batch(model, ids, nonpad, performer, np.random.default_rng(0))
    dlogits = {f: cross_entropy(logits[f], targets[f], nonpad)[1] for f in PREDICTED}
    largest = {name: np.abs(g).max() for name, g in backward_batch(model, cache, dlogits).items()}
    floor = 1e-12 * max(largest.values())
    assert {name: value for name, value in largest.items() if value < floor} == {}


def test_init_draws_every_matrix_in_order():
    """Each matrix gets the next rng.normal(0, 0.02) draw, in parameter_shapes
    order. Biases draw nothing, so adding or dropping one keeps every bit."""
    config = toy_config(n_layers=2)
    d, e = config.d_model, config.d_embed
    shapes = [(f"emb_{name}", (VOCAB.size(name), e)) for name in FEATURE_NAMES]
    shapes.append(("proj_w", (6 * e, d)))
    for layer in range(config.n_layers):
        shapes += [(f"l{layer}.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo")]
        shapes += [(f"l{layer}.ff_w1", (d, config.d_ff)), (f"l{layer}.ff_w2", (config.d_ff, d))]
    shapes.append(("perf_emb", (config.n_performers, d)))
    shapes += [(f"head_{name}_w", (d, VOCAB.size(feature)))
               for name, feature in zip(("vel", "ioi", "dur"), PREDICTED)]
    params = init_model(config).params
    assert [n for n, v in params.items() if v.ndim == 2] == [n for n, _ in shapes]
    rng = np.random.default_rng(config.seed)
    for name, shape in shapes:
        assert np.array_equal(params[name], rng.normal(0.0, 0.02, size=shape)), name


def split_heads(rng, B, T, n_heads, d_head):
    """[B, n_heads, T, d_head] normal values, as the strided view forward_batch makes."""
    return model_module._split_heads(rng.normal(size=(B, T, n_heads * d_head)), n_heads)


class TestAttention:
    """The per-slice attention against the whole-array expressions in
    tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("T", [1, 2, 7, 8, 9, 64, 256])
    def test_equals_whole_array_attention(self, T):
        rng = np.random.default_rng(T)
        for B, n_heads, d_head in itertools.product((1, 3, 4), (1, 2, 4), (1, 2, 16)):
            q, k, v, dctx = (split_heads(rng, B, T, n_heads, d_head) for _ in range(4))
            n_real = rng.integers(1, T + 1, size=B)
            n_real[0] = 1  # the only real key is position 0
            if B > 1:
                n_real[-1] = T  # no PAD key
            nonpad = np.arange(T) < n_real[:, None]
            key_mask = np.where(nonpad[:, None, None, :], 0.0, NEG_MASK)
            scale = 1.0 / np.sqrt(d_head)
            shape = (B, n_heads, d_head)
            attn, ctx = model_module._attention(q, k, v, key_mask, scale)
            want_attn, want_ctx = whole_array_attention(q, k, v, key_mask, scale)
            assert np.array_equal(attn, want_attn), shape
            assert np.array_equal(ctx, want_ctx), shape
            got = model_module._attention_backward(attn, q, k, v, dctx, scale)
            want = whole_array_attention_backward(attn, q, k, v, dctx, scale)
            for name, g, w in zip(("dq", "dk", "dv"), got, want):
                assert np.array_equal(g, w), (name, shape)

    def test_batch_passes_equal_whole_array_attention(self, monkeypatch):
        model = init_model(M2MConfig(dropout=0.1, seed=4))
        segments = [make_segment(n_real=n, performer_id=i, fill=None)
                    for i, n in enumerate((256, 200, 1, 37))]
        batch = prepare_batch(segments)
        logits, cache = forward_batch(model, *batch, np.random.default_rng(2))
        rng = np.random.default_rng(6)
        dlogits = {f: rng.normal(size=x.shape) * batch[1][..., None] for f, x in logits.items()}
        grads = backward_batch(model, cache, dlogits)

        monkeypatch.setattr(model_module, "_attention", whole_array_attention)
        monkeypatch.setattr(model_module, "_attention_backward", whole_array_attention_backward)
        want_logits, want_cache = forward_batch(model, *batch, np.random.default_rng(2))
        want_grads = backward_batch(model, want_cache, dlogits)
        for feature, value in logits.items():
            assert np.array_equal(value, want_logits[feature]), feature
        for name, value in grads.items():
            assert np.array_equal(value, want_grads[name]), name

    def test_backward_batch_peak_memory(self):
        """One backward pass at the training shape allocates under 32 MiB at its
        peak: 13.5 MiB, against 35.6 MiB with whole-array [B, H, T, T] steps."""
        model = init_model(M2MConfig())
        batch = prepare_batch([make_segment(n_real=200, performer_id=i, fill=None)
                               for i in range(4)])
        logits, cache = forward_batch(model, *batch, np.random.default_rng(0))
        dlogits = {"velocity": np.random.default_rng(1).normal(size=logits["velocity"].shape)}
        tracemalloc.start()
        try:
            backward_batch(model, cache, dlogits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


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
        """Draw counts within 3 sigma of the nucleus's renormalised
        probabilities; a token of probability 0 is never drawn."""
        rng = np.random.default_rng(123)
        logits = np.array([0.0, math.log(2.0), math.log(4.0)])
        n = 100_000

        def assert_within_3_sigma(ids, probs):
            counts = np.bincount(ids, minlength=len(probs))
            sigma = np.sqrt(n * probs * (1 - probs))
            assert np.all(np.abs(counts - n * probs) <= 3 * sigma), counts

        assert_within_3_sigma([nucleus_sample_row(logits, 1.0, 1.0, rng) for _ in range(n)],
                              np.array([1 / 7, 2 / 7, 4 / 7]))
        # top-p 0.6: the nucleus is {4/7, 2/7}, renormalised to 2/3 and 1/3
        assert_within_3_sigma(nucleus_sample(np.tile(logits, (n, 1)), 1.0, 0.6, rng.random(n)),
                              np.array([0.0, 1 / 3, 2 / 3]))
        # temperature +inf: every value id equally likely, whatever its logit
        width = N_SPECIALS + 8
        dist = {feature: np.tile(rng.normal(0.0, 3.0, width), (n, 1)) for feature in PREDICTED}
        for ids in sample(dist, float("inf"), 1.0, rng.random((len(PREDICTED), n))):
            assert_within_3_sigma(ids, np.array([0.0] * N_SPECIALS + [1 / 8] * 8))

    @pytest.mark.parametrize("logits,temperature", [
        ([0.0, np.inf, 1.0], 1.0), ([0.0, np.nan], 1.0), ([1e303, 0.0], 1e-6),
        ([0.0, 1.0], float("nan")), ([0.0, np.nan, 5.0], 0.0), ([0.0, np.inf, 5.0], 5e-7),
    ], ids=["inf", "nan", "overflow", "nan-temperature", "argmax-nan", "argmax-inf"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_unsampleable_input_raises(self, logits, temperature):
        with pytest.raises(ValueError):
            nucleus_sample_row(np.array(logits), temperature, 0.9, np.random.default_rng(0))

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_minus_inf_logit_is_never_picked(self, temperature):
        """-inf is a legal logit at every temperature: its token is never picked."""
        logits = np.array([[-np.inf, 0.0, 1.0], [1.0, -np.inf, 0.0]])
        for r in (0.0, 0.5, 0.999):
            picked = nucleus_sample(logits, temperature, 1.0, np.full(2, r))
            assert np.isfinite(logits[[0, 1], picked]).all(), picked

    def test_specials_never_sampled(self):
        model = small_model()
        dist = forward(model, make_segment(n_real=40))
        vel, ioi, dur = sample(dist, 2.0, 1.0, seed_uniforms(9, SEGMENT_LEN))
        for toks in (vel, ioi, dur):
            assert min(toks) >= 4

    @pytest.mark.parametrize("temperature", [1.000001e6, 1e30, 1e300, float("inf")])
    def test_specials_never_sampled_past_a_million(self, temperature):
        # the logits are all but flat here, so a special id in reach would be drawn
        dist = forward(small_model(), make_segment(n_real=40))
        for toks in sample(dist, temperature, 1.0, seed_uniforms(0, SEGMENT_LEN)):
            assert min(toks) >= N_SPECIALS

    @pytest.mark.parametrize("width", range(1, N_SPECIALS + 1))
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_no_value_column_raises(self, width, temperature):
        logits = np.zeros((3, width))
        with pytest.raises(ValueError, match=rf"^velocity logits are {width} wide"):
            sample({feature: logits for feature in PREDICTED}, temperature, 0.9,
                   seed_uniforms(0, 3))

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_zero_rows(self, temperature):
        """No rows give no ids once the settings pass; no columns is an error."""
        got = nucleus_sample(np.zeros((0, 5)), temperature, 0.9, np.empty(0))
        assert got.dtype == np.int64 and got.shape == (0,)
        for bad_temperature, top_p in ((temperature, 1.5), (-1.0, 0.9)):
            with pytest.raises(ValueError) as want:
                check_sampling(bad_temperature, top_p)
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                nucleus_sample(np.zeros((0, 5)), bad_temperature, top_p, np.empty(0))
        with pytest.raises(ValueError):
            nucleus_sample(np.zeros((0, 0)), temperature, 0.9, np.empty(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_specials_never_sampled_at_a_million(self, seed):
        dist = forward(small_model(), make_segment(n_real=40))
        for toks in sample(dist, 1e6, 1.0, seed_uniforms(seed, SEGMENT_LEN)):
            assert min(toks) >= 4

    def test_seeded_reproducibility(self):
        model = small_model()
        dist = forward(model, make_segment(n_real=40))
        uniforms = seed_uniforms(7, SEGMENT_LEN)
        assert sample(dist, 1.0, 0.9, uniforms) == sample(dist, 1.0, 0.9, uniforms)

    def test_sample_peak_memory(self):
        """sample on one segment at the real vocabulary widths peaks under
        2 MiB: 0.95 MiB, against 7.11 MiB when nucleus_sample took all 256
        rows in one block."""
        rng = np.random.default_rng(0)
        dist = {feature: rng.normal(0.0, 3.0, (SEGMENT_LEN, VOCAB.size(feature)))
                for feature in PREDICTED}
        uniforms = seed_uniforms(0, SEGMENT_LEN)
        sample(dist, 1.0, 0.9, uniforms)  # warm-up
        tracemalloc.start()
        try:
            sample(dist, 1.0, 0.9, uniforms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak

    @pytest.mark.parametrize("temperature,top_p", [
        (1.0, 0.9), (2.0, 1.0), (0.5, 0.05), (1e-7, 0.9), (0.0, 1.0),
    ])
    def test_ids_do_not_depend_on_the_block_size(self, monkeypatch, temperature, top_p):
        """300 rows of every logit kind, some columns -inf: blocks of 1, 7,
        32 and all rows give the same ids."""
        rng = np.random.default_rng(5)
        logits = np.concatenate([random_logits(rng, kind, 75, 40) for kind in LOGIT_KINDS])
        logits[rng.random(logits.shape) < 0.05] = -np.inf
        logits = logits[rng.permutation(len(logits))]
        uniforms = rng.random(len(logits)) if temperature >= ARGMAX_TEMPERATURE else None
        got = {}
        for block in (1, 7, 32, len(logits)):
            monkeypatch.setattr(model_module, "SAMPLE_BLOCK", block)
            got[block] = nucleus_sample(logits, temperature, top_p, uniforms)
        for block, ids in got.items():
            assert np.array_equal(ids, got[1]), block

    @pytest.mark.parametrize("n_uniforms", [0, 1, 255, 257, 300])
    def test_one_uniform_per_row(self, n_uniforms):
        """A block reads its rows' slice of the uniforms, so a count that is
        not one per row is an error, not a shorter or broadcast slice."""
        logits = np.zeros((256, 10))
        with pytest.raises(ValueError, match=f"^{n_uniforms} uniforms for 256 rows$"):
            nucleus_sample(logits, 1.0, 0.9, np.full(n_uniforms, 0.5))
        assert len(nucleus_sample(logits, 0.0, 0.9, np.full(n_uniforms, 0.5))) == 256

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_bad_row_in_a_later_block_raises_the_same_error(self, bad, temperature):
        messages = []
        for row in (0, 2 * SAMPLE_BLOCK + 5):  # the first block, then the third
            logits = np.zeros((300, 10))
            logits[row, 3] = bad
            with pytest.raises(ValueError) as err:
                nucleus_sample(logits, temperature, 0.9, np.full(300, 0.5))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def random_logits(rng: np.random.Generator, kind: str, rows: int, width: int) -> np.ndarray:
    """[rows, width] float64 logits; "integer" rows tie heavily, "flat" rows are all equal."""
    if kind == "integer":
        return rng.integers(-3, 4, size=(rows, width)).astype(float)
    if kind == "flat":
        return np.repeat(rng.normal(size=(rows, 1)), width, axis=1)
    logits = rng.normal(0.0, 3.0, size=(rows, width))
    if kind == "masked":
        logits[rng.random((rows, width)) < 0.3] = NEG_MASK
    return logits


TEMPERATURES = [0.0, 1e-7, 0.5, 1.0, 2.0, 1e6, 1e300, float("inf")]
TOP_PS = [0.05, 0.9, 1.0]
LOGIT_KINDS = ["normal", "integer", "flat", "masked"]


class TestSamplerMatchesLoop:
    """The batched sampler against the one-row-at-a-time loop in tests/oracles.py:
    equal ids and an equal generator state afterwards."""

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(0, 300),
           widths=st.tuples(*[st.integers(N_SPECIALS + 1, 1200)] * 3),
           kind=st.sampled_from(LOGIT_KINDS), temperature=st.sampled_from(TEMPERATURES),
           top_p=st.sampled_from(TOP_PS), seed=st.integers(0, 2**32 - 1))
    @example(rows=300, widths=(68, 772, 1156), kind="normal", temperature=1.0, top_p=0.9, seed=1)
    @example(rows=300, widths=(1200, 1200, 1200), kind="integer", temperature=2.0, top_p=1.0,
             seed=2)
    @example(rows=257, widths=(5, 6, 7), kind="flat", temperature=0.5, top_p=0.05, seed=3)
    @example(rows=300, widths=(900, 1200, 17), kind="masked", temperature=1e-7, top_p=0.9, seed=4)
    def test_sample(self, rows, widths, kind, temperature, top_p, seed):
        data_rng = np.random.default_rng(seed)
        vel, ioi, dur = (random_logits(data_rng, kind, rows, w) for w in widths)
        dist = {"velocity": vel, "ioi": ioi, "duration": dur}
        fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        uniforms = (fast.random((len(PREDICTED), rows)) if temperature >= ARGMAX_TEMPERATURE
                    else (None,) * len(PREDICTED))
        assert (sample(dist, temperature, top_p, uniforms)
                == loop_sample(dist, temperature, top_p, slow))
        assert fast.bit_generator.state == slow.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(width=st.integers(1, 1200), kind=st.sampled_from(LOGIT_KINDS),
           temperature=st.sampled_from(TEMPERATURES), top_p=st.sampled_from(TOP_PS),
           seed=st.integers(0, 2**32 - 1))
    def test_nucleus_sample_row(self, width, kind, temperature, top_p, seed):
        logits = random_logits(np.random.default_rng(seed), kind, 5, width)
        fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for row in logits:
            assert (nucleus_sample_row(row, temperature, top_p, fast)
                    == scalar_nucleus_sample_row(row, temperature, top_p, slow))
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("temperature,top_p", [
        (1.0, 0.0), (1.0, -0.5), (1.0, 1.5), (1.0, float("nan")), (-1.0, 0.9), (0.0, 2.0),
    ])
    def test_invalid_settings_raise_the_same_error(self, temperature, top_p):
        logits = np.random.default_rng(0).normal(size=(3, 10))
        dist = {"velocity": logits, "ioi": logits, "duration": logits}
        with pytest.raises(ValueError) as want:
            loop_sample(dist, temperature, top_p, np.random.default_rng(0))
        with pytest.raises(ValueError) as got:
            sample(dist, temperature, top_p, seed_uniforms(0, 3))
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            nucleus_sample_row(logits[0], temperature, top_p, np.random.default_rng(0))
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            predict_performance(small_model(), patterned_score(3), 0, temperature, top_p, 0)
        assert str(got.value) == str(want.value)

    def test_sample_leaves_dist_unchanged(self):
        dist = forward(small_model(), make_segment(n_real=40))
        dist["velocity"][:, :2] = [np.nan, np.inf]  # special ids: never read
        before = {feature: logits.copy() for feature, logits in dist.items()}
        for temperature in (0.0, 1.0):
            sample(dist, temperature, 0.9, seed_uniforms(0, SEGMENT_LEN))
            for feature, logits in before.items():
                assert np.array_equal(dist[feature], logits, equal_nan=True), feature

    def test_predict_performance_equals_loop_render(self):
        """predict_performance against tests/oracles.py's one-thread loop, which
        draws from default_rng(seed) through loop_sample segment by segment:
        equal MIDI bytes."""
        model = peaked_model()
        for n_notes in (0, 1, 255, 256, 257, 640, 1000):
            score = patterned_score(n_notes)
            for temperature, top_p in itertools.product((0.0, 1e-7, 1.0, 2.0), (0.05, 0.9, 1.0)):
                case = (n_notes, temperature, top_p)
                got = predict_performance(model, score, 2, temperature, top_p, 3)
                want = loop_render(model, score, 2, temperature, top_p, np.random.default_rng(3))
                assert write_smf(got) == write_smf(want), case

    @pytest.mark.parametrize("temperature", [0.0, 5e-7])
    def test_argmax_render_reads_no_uniform(self, temperature):
        """Below ARGMAX_TEMPERATURE the uniforms drawn from the seed are never
        read: every seed gives the same MIDI bytes."""
        model, score = peaked_model(), patterned_score(300)
        first, *rest = (write_smf(predict_performance(model, score, 0, temperature, 0.9, seed))
                        for seed in range(4))
        assert rest == [first] * 3


def peaked_model():
    """small_model with peaked, varied head biases, so samples differ by row."""
    model = small_model()
    rng = np.random.default_rng(8)
    for key in ("head_vel_b", "head_ioi_b", "head_dur_b"):
        model.params[key] = rng.normal(0.0, 3.0, size=model.params[key].shape)
    return model


def patterned_score(n_notes: int) -> NoteSequence:
    notes = [NoteEvent(i * 48, 40 + (i * 7) % 36, 30 + (i * 11) % 60, 60) for i in range(n_notes)]
    return NoteSequence(ppq=96, notes=tuple(notes))


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_two_thread_render_equals_one_thread_oracle(monkeypatch, temperature):
    """predict_performance runs its segments on two threads; with a thread
    switch forced every microsecond, the MIDI bytes equal a run with every
    segment on the calling thread, and no thread outlives the call."""
    model = peaked_model()
    score = patterned_score(1000)  # 4 segments, 2 per thread
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = threading.active_count()
        got = write_smf(predict_performance(model, score, 1, temperature, 0.9, 6))
        assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(model_module, "split_work", one_thread_split_work)
    assert got == write_smf(predict_performance(model, score, 1, temperature, 0.9, 6))


@pytest.mark.parametrize("bad", ["head_bias", "worker_segment_only"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_render_error_on_the_worker_leaves_no_thread(bad):
    """A NaN in the logits makes the worker's segment raise ValueError, and
    no thread outlives the call. A NaN head bias reaches every segment;
    a NaN embedding of a pitch only segment 1 holds reaches the worker's
    segment alone."""
    model = peaked_model()
    score = patterned_score(300)  # segment 0 on the calling thread, segment 1 on the worker
    if bad == "head_bias":
        model.params["head_dur_b"][N_SPECIALS + 7] = np.nan
    else:
        score = replace(score, notes=score.notes[:-1] + (replace(score.notes[-1], pitch=100),))
        model.params["emb_pitch"][N_SPECIALS + 100 - PITCH_MIN] = np.nan
    threads = threading.active_count()
    with pytest.raises(ValueError, match="NaN"):
        predict_performance(model, score, 0, 1.0, 0.9, 0)
    assert threading.active_count() == threads


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
        # the settings are checked before the score is read, so no segment need reach them
        for bad in ({"temperature": -1.0}, {"top_p": 2.0}, {"temperature": float("nan")}):
            with pytest.raises(ValueError, match="temperature must be|top_p must be"):
                predict_performance(model, NoteSequence(ppq=96), 0, **bad)

    def test_empty_score_gets_the_maps_of_a_one_note_score(self):
        """Both renders carry the 4/4 default of a score with no signature event."""
        model = small_model()
        tempi = (TempoEvent(0, 600000),)
        empty, one = (predict_performance(model, NoteSequence(480, notes, tempi), 0, seed=0)
                      for notes in ((), (NoteEvent(0, 480, 60, 60),)))
        assert empty.time_signatures == one.time_signatures == (TimeSignatureEvent(0, 4, 2),)
        assert empty.tempi == one.tempi == tempi


def edit_header(blob: bytes, edit) -> bytes:
    """Checkpoint bytes with edit applied to the JSON header, the config."""
    start = len(MAGIC) + 8
    (length,) = struct.unpack_from("<Q", blob, len(MAGIC))
    text = json.dumps(edit(json.loads(blob[start:start + length]))).encode()
    return MAGIC + struct.pack("<Q", len(text)) + text + blob[start + length:]


def test_forward_batch_takes_at_most_a_segment():
    model = init_model(toy_config())
    for T in (1, 8, SEGMENT_LEN):
        ids = np.full((1, T, 6), 4, dtype=np.int64)
        logits, _ = forward_batch(model, ids, np.ones((1, T), dtype=bool), np.zeros(1, int))
        assert logits["velocity"].shape == (1, T, 68)
    ids = np.full((1, SEGMENT_LEN + 1, 6), 4, dtype=np.int64)
    with pytest.raises(ValueError, match="sequence length 257"):
        forward_batch(model, ids, np.ones((1, SEGMENT_LEN + 1), dtype=bool), np.zeros(1, int))


@pytest.mark.parametrize("d_model", [5, 2])
def test_d_model_is_even_and_at_least_4(d_model):
    """Sinusoidal positions fill d_model in pairs; embeddings are d_model // 4 wide."""
    with pytest.raises(ValueError, match="d_model"):
        M2MConfig(d_model=d_model, n_heads=1)


def test_n_performers_is_bounded():
    assert M2MConfig(n_performers=MAX_PERFORMERS).n_performers == MAX_PERFORMERS
    with pytest.raises(ValueError, match="n_performers"):
        M2MConfig(n_performers=MAX_PERFORMERS + 1)


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
        assert np.array_equal(a["velocity"], b["velocity"])

    @pytest.mark.parametrize("edit", [
        lambda blob: blob[:-LAST_TENSOR_BYTES],
        lambda blob: edit_header(blob, lambda c: {**c, "d_ff": 2 * c["d_ff"]}),
        lambda blob: edit_header(blob, lambda c: {**c, "n_layers": c["n_layers"] - 1}),
        lambda blob: blob + blob[-LAST_TENSOR_BYTES:],
        lambda blob: blob[:-4],
        lambda blob: blob + struct.pack("<f", 0.5),
        lambda blob: blob[:blob.index(b"}") + 1],  # the config, no tensor bytes
    ], ids=["missing", "extra-rows", "extra-name", "repeated", "one-float-short",
            "one-float-over", "none"])
    def test_tensors_must_match_the_config(self, edit):
        """The config fixes every tensor's size; the bytes must hold exactly those."""
        blob = edit(save_checkpoint(small_model()))
        with pytest.raises(ValueError, match="tensor"):
            load_checkpoint(blob)

    @pytest.mark.parametrize("key, value", [
        ("max_seq_len", SEGMENT_LEN), ("d_embed", 8), ("vocab", {}),
    ], ids=["max_seq_len", "d_embed", "vocab"])
    def test_v1_config_keys_rejected(self, key, value):
        blob = edit_header(save_checkpoint(small_model()), lambda c: {**c, key: value})
        with pytest.raises(ValueError, match=key):
            load_checkpoint(blob)

    def test_header_with_config_and_no_tensors_rejected(self):
        header = json.dumps({}).encode()
        with pytest.raises(ValueError, match="runs past the end"):
            load_checkpoint(MAGIC + struct.pack("<Q", len(header)) + header)

    def test_claimed_layers_cost_nothing_before_they_are_checked(self):
        # 10**9 layers would be 16 * 10**9 tensors; the bytes hold none
        header = json.dumps({"n_layers": 10**9}).encode()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="runs past the end"):
                load_checkpoint(MAGIC + struct.pack("<Q", len(header)) + header)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_non_finite_tensor_rejected(self):
        model = small_model()
        model.params["proj_b"][3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(save_checkpoint(model))

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
