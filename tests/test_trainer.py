import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import one_thread_split_work, softmax_cross_entropy
from s2a import trainer
from s2a.model import M2MConfig, backward_batch, forward_batch, init_model, prepare_batch
from s2a.tokenizer import PAD, PREDICTED, SEGMENT_LEN, TokenSegment
from s2a.trainer import (
    FEATURE_COLUMN,
    TaskWeights,
    TrainConfig,
    TrainingDivergedError,
    cross_entropy,
    gradnorm_step,
    token_accuracy,
    train,
)


def tiny_model(seed=0):
    return init_model(M2MConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                                dropout=0.0, n_performers=2, seed=seed))


def build_segment(vel, ioi, dur, performer_id=0):
    n = len(vel)
    ids = np.full((SEGMENT_LEN, 6), PAD, dtype=np.int64)
    ids[:n] = [(4 + i % 88, vel[i], dur[i], ioi[i], 4 + i % 384, 4) for i in range(n)]
    return TokenSegment(ids, n, performer_id)


def toy_dataset(lengths=(32, 32), seed=1):
    """One (score, performance) pair per length, performers alternating 0, 1."""
    rng = np.random.default_rng(seed)
    data = []
    for s, n_notes in enumerate(lengths):
        vel_s = [34] * n_notes
        ioi_s = [4 + int(v) for v in rng.integers(0, 40, n_notes)]
        dur_s = [4 + int(v) for v in rng.integers(0, 90, n_notes)]
        score = build_segment(vel_s, ioi_s, dur_s, performer_id=s % 2)
        vel_p = [4 + int(v) for v in rng.integers(20, 50, n_notes)]
        ioi_p = [max(4, v + int(d)) for v, d in zip(ioi_s, rng.integers(-2, 3, n_notes))]
        dur_p = [max(4, v + int(d)) for v, d in zip(dur_s, rng.integers(-4, 5, n_notes))]
        perf = build_segment(vel_p, ioi_p, dur_p, performer_id=s % 2)
        data.append((score, perf))
    return data


def segment_ce(logits, targets):
    """cross_entropy of one [256, V] segment whose first len(targets) positions are real."""
    ids = np.zeros(256, dtype=np.int64)
    ids[:len(targets)] = targets
    nonpad = np.arange(256) < len(targets)
    loss, _ = cross_entropy(logits[None], ids[None], nonpad[None])
    return loss


class TestFeatureLoss:
    def test_certain_prediction_zero_loss(self):
        vel = np.zeros((256, 68))
        ioi = np.zeros((256, 772))
        dur = np.zeros((256, 1156))
        vel[0, 10] = vel[1, 11] = 1000.0
        ioi[0, 4] = ioi[1, 8] = 1000.0
        dur[0, 20] = dur[1, 30] = 1000.0
        losses = [segment_ce(vel, [10, 11]), segment_ce(ioi, [4, 8]), segment_ce(dur, [20, 30])]
        assert all(l < 1e-12 for l in losses)

    def test_uniform_logits_log_vocab(self):
        l_vel = segment_ce(np.zeros((256, 68)), [10, 11, 12])
        l_ioi = segment_ce(np.zeros((256, 772)), [4, 4, 4])
        l_dur = segment_ce(np.zeros((256, 1156)), [20, 20, 20])
        assert l_vel == pytest.approx(math.log(68), abs=1e-12)
        assert l_ioi == pytest.approx(math.log(772), abs=1e-12)
        assert l_dur == pytest.approx(math.log(1156), abs=1e-12)

    def test_two_position_hand_case(self):
        vel = np.zeros((256, 68))
        vel[0, 10] = 2.0
        vel[1, 4] = 1.0
        l_vel = segment_ce(vel, [10, 11])
        # position 0: -log(e^2 / (67 + e^2)); position 1: -log(1 / (66 + e + 1))
        expected = 0.5 * (
            -(2.0 - math.log(67 + math.exp(2.0)))
            - (0.0 - math.log(66 + math.exp(1.0) + 1.0))
        )
        assert l_vel == pytest.approx(expected, abs=1e-9)

    def test_pad_positions_excluded(self):
        # identical real content, different logits at the PAD positions
        vel = np.zeros((256, 68))
        vel[:, 10] = 3.0
        noisy = vel.copy()
        noisy[2:] = np.random.default_rng(0).normal(size=(254, 68))
        assert segment_ce(noisy, [10, 11]) == segment_ce(vel, [10, 11])
        # duplicating the batch leaves the mean unchanged (via cross_entropy)
        logits = np.stack([vel, vel])
        targets = np.full((2, 256), 10)
        nonpad = np.zeros((2, 256), dtype=bool)
        nonpad[:, :2] = True
        dup, _ = cross_entropy(logits, targets, nonpad)
        single, _ = cross_entropy(logits[:1], targets[:1], nonpad[:1])
        assert dup == pytest.approx(single, abs=1e-15)

    @pytest.mark.parametrize("vocab", [68, 772, 1156])
    def test_equals_two_pass_softmax(self, vocab):
        rng = np.random.default_rng(vocab)
        logits = rng.normal(0.0, 3.0, size=(4, 256, vocab))
        targets = rng.integers(0, vocab, size=(4, 256))
        nonpad = rng.random((4, 256)) < 0.8
        want_loss, want_grad = softmax_cross_entropy(logits, targets, nonpad)
        loss, grad = cross_entropy(logits, targets, nonpad)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)

    def test_all_pad_errors(self):
        logits = np.zeros((1, 256, 68))
        targets = np.zeros((1, 256), dtype=np.int64)
        nonpad = np.zeros((1, 256), dtype=bool)
        with pytest.raises(ValueError):
            cross_entropy(logits, targets, nonpad)


class TestGradNorm:
    def test_symmetric_fixed_point(self):
        weights = TaskWeights(alpha=1.5)
        for _ in range(10):
            weights = gradnorm_step(weights, (2.0, 2.0, 2.0), (1.0, 1.0, 1.0), lr=0.1)
            assert weights.as_tuple() == pytest.approx((1.0, 1.0, 1.0), abs=1e-6)

    def test_sum_to_three_always(self):
        rng = np.random.default_rng(4)
        weights = TaskWeights(alpha=1.0)
        for _ in range(500):
            losses = tuple(float(v) for v in rng.uniform(0.1, 5.0, 3))
            norms = tuple(float(v) for v in rng.uniform(0.01, 3.0, 3))
            weights = gradnorm_step(weights, losses, norms, lr=0.05)
            assert sum(weights.as_tuple()) == pytest.approx(3.0, abs=1e-9)
            assert all(w > 0 for w in weights.as_tuple())

    def test_two_step_hand_trajectory(self):
        lr = 0.1
        weights = TaskWeights(alpha=1.0)
        weights = gradnorm_step(weights, (2.0, 1.0, 1.0), (3.0, 1.0, 2.0), lr=lr)
        # ratios all 1 at step 0 -> targets = meanG = 2; signs (+,-,0);
        # raw grads G/w = (3,1,2) -> (0.7, 1.1, 1.0), renormalized to sum 3
        s = 0.7 + 1.1 + 1.0
        expected1 = (0.7 * 3 / s, 1.1 * 3 / s, 1.0 * 3 / s)
        assert weights.as_tuple() == pytest.approx(expected1, abs=1e-12)

        w1 = expected1
        weights = gradnorm_step(weights, (1.0, 1.0, 0.5), (1.5, 1.5, 1.5), lr=lr)
        # ratios (0.5, 1, 0.5); mean 2/3; rates (0.75, 1.5, 0.75);
        # targets 1.5*rates = (1.125, 2.25, 1.125); signs (+,-,+)
        raw = tuple(1.5 / w for w in w1)
        updated = (w1[0] - lr * raw[0], w1[1] + lr * raw[1], w1[2] - lr * raw[2])
        total = sum(updated)
        expected2 = tuple(w * 3 / total for w in updated)
        assert weights.as_tuple() == pytest.approx(expected2, abs=1e-12)

    def test_zero_initial_loss_errors(self):
        with pytest.raises(ValueError):
            gradnorm_step(TaskWeights(), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), lr=0.025)

    def test_initial_losses_recorded_once(self):
        weights = gradnorm_step(TaskWeights(), (2.0, 1.0, 1.0), (1.0, 1.0, 1.0), lr=0.025)
        assert weights.initial_losses == (2.0, 1.0, 1.0)
        weights2 = gradnorm_step(weights, (0.5, 0.6, 0.7), (1.0, 1.0, 1.0), lr=0.025)
        assert weights2.initial_losses == (2.0, 1.0, 1.0)


@pytest.mark.parametrize("field, value", [
    ("warmup_steps", 40.0), ("max_epochs", True), ("batch_size", 2.5), ("seed", "0"),
    ("learning_rate", True), ("alpha", None), ("gradnorm_lr", "0.025"),
    ("early_stop_loss", False), ("early_stop_loss", "0.5"),
])
def test_config_field_types_checked(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, sign", [
    ("learning_rate", 1), ("alpha", 1), ("gradnorm_lr", 1), ("early_stop_loss", 1),
    ("early_stop_loss", -1),
], ids=["learning_rate", "alpha", "gradnorm_lr", "early_stop_loss", "early_stop_loss_negative"])
def test_config_real_fields_within_the_float_range(field, sign):
    with pytest.raises(ValueError, match=f"{field} must be within the float range"):
        TrainConfig(**{field: sign * 10**400})


def test_config_takes_ints_for_real_fields():
    cfg = TrainConfig(learning_rate=1, alpha=0, gradnorm_lr=1, early_stop_loss=0)
    assert (cfg.learning_rate, cfg.alpha, cfg.early_stop_loss) == (1, 0, 0)


class TestTrain:
    def test_zero_epochs_returns_unchanged(self):
        model = tiny_model()
        before = {k: v.copy() for k, v in model.params.items()}
        trained, log = train(model, toy_dataset(), TrainConfig(max_epochs=0))
        assert log.records == []
        for key, value in trained.params.items():
            assert np.array_equal(value, before[key])

    def test_same_seed_bit_identical(self):
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=5, batch_size=2, seed=42)
        a, _ = train(tiny_model(), toy_dataset(), cfg)
        b, _ = train(tiny_model(), toy_dataset(), cfg)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_loss_decreases_over_first_100_steps(self):
        cfg = TrainConfig(learning_rate=2e-3, max_epochs=105, batch_size=2, seed=0)
        _, log = train(tiny_model(), toy_dataset(), cfg)
        first = np.mean([r.total for r in log.records[:5]])
        last = np.mean([r.total for r in log.records[100:105]])
        assert last < first

    def test_weights_logged_and_sum_to_three(self):
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=10, batch_size=2, seed=1)
        _, log = train(tiny_model(), toy_dataset(), cfg)
        for record in log.records:
            assert record.w_vel + record.w_ioi + record.w_dur == pytest.approx(3.0, abs=1e-9)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(tiny_model(), [], TrainConfig())

    def test_nan_aborts_with_step_index(self):
        model = tiny_model()
        model.params["proj_w"][0, 0] = float("nan")
        with pytest.raises(TrainingDivergedError) as err:
            train(model, toy_dataset(), TrainConfig(max_epochs=1))
        assert err.value.step == 0

    def test_log_csv_shape(self):
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=2, batch_size=2, seed=1)
        _, log = train(tiny_model(), toy_dataset(), cfg)
        lines = log.to_csv().splitlines()
        assert lines[0] == "step,lr,w_vel,w_ioi,w_dur,L_vel,L_ioi,L_dur,total"
        assert len(lines) == 1 + len(log.records)

    def test_warmup_ramps_linearly(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_steps=4, max_epochs=6,
                          batch_size=4, seed=2)
        _, log = train(tiny_model(), toy_dataset(), cfg)
        lrs = [r.lr for r in log.records[:6]]
        assert lrs == pytest.approx([2.5e-4, 5e-4, 7.5e-4, 1e-3, 1e-3, 1e-3])

    def test_token_accuracy_shape(self):
        model = tiny_model()
        acc = token_accuracy(model, toy_dataset())
        assert set(acc) == {"velocity", "ioi", "duration"}
        assert all(0.0 <= v <= 1.0 for v in acc.values())


def generator_at(state):
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def assert_close(got, want, rtol=1e-12):
    """Every element within rtol of the largest absolute value of want."""
    assert got.shape == want.shape
    bound = rtol * np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= bound


class TestTrimmedBatch:
    """train cuts each batch to its longest real row. The full-width step it
    replaces runs here on the same batch at all SEGMENT_LEN rows."""

    @staticmethod
    def trimmed_step(monkeypatch, n_layers, lengths):
        """One train step over one segment per length (one batch); returns what
        forward_batch and backward_batch got and gave, and the step's record."""
        seen = {"task_grads": {}}

        def traced_forward(model, ids, nonpad, performer, train_rng):
            seen["inputs"] = (ids, nonpad, performer)
            seen["state_before"] = train_rng.bit_generator.state
            logits, seen["cache"] = forward_batch(model, ids, nonpad, performer, train_rng)
            seen["logits"] = dict(logits)  # train pops each task's logits
            seen["state_after"] = train_rng.bit_generator.state
            return logits, seen["cache"]

        def traced_backward(model, cache, dlogits):
            (feature,) = dlogits  # the tasks may run in any order, on two threads
            seen["task_grads"][feature] = backward_batch(model, cache, dlogits)
            return seen["task_grads"][feature]

        monkeypatch.setattr(trainer, "forward_batch", traced_forward)
        monkeypatch.setattr(trainer, "backward_batch", traced_backward)
        _, log = train(TestTrimmedBatch.model(n_layers), toy_dataset(lengths),
                       TrainConfig(max_epochs=1, batch_size=len(lengths), seed=3))
        record = log.records[0]
        seen["losses"] = [record.loss_vel, record.loss_ioi, record.loss_dur]
        seen["task_grads"] = [seen["task_grads"][feature] for feature in PREDICTED]
        return seen

    @staticmethod
    def model(n_layers):
        return init_model(M2MConfig(n_layers=n_layers, d_model=16, n_heads=2, d_ff=32,
                                    dropout=0.1, n_performers=2))

    @staticmethod
    def full_width_step(n_layers, lengths, order, performer, state):
        """forward_batch, cross_entropy and one backward_batch per task on the
        segments in batch order at all SEGMENT_LEN rows, from fresh weights
        and a dropout generator in the given state. The masks are also drawn
        as rng.random(x.shape) for each dropout site in forward order."""
        dataset = toy_dataset(lengths)
        ids, nonpad, _ = prepare_batch([dataset[i][0] for i in order])
        targets = np.stack([dataset[i][1].ids for i in order])
        model = TestTrimmedBatch.model(n_layers)
        draws = generator_at(state)
        shape = (len(order), SEGMENT_LEN, model.config.d_model)
        masks = [(draws.random(shape) >= 0.1) / 0.9 for _ in range(1 + 2 * n_layers)]
        rng = generator_at(state)
        logits, cache = forward_batch(model, ids, nonpad, performer, rng)
        assert rng.bit_generator.state == draws.bit_generator.state
        losses, task_grads = [], []
        for feature in PREDICTED:
            t = targets[:, :, FEATURE_COLUMN[feature]]
            loss, dlog = cross_entropy(logits[feature], t, nonpad)
            losses.append(loss)
            task_grads.append(backward_batch(model, cache, {feature: dlog}))
        return {"ids": ids, "nonpad": nonpad, "masks": masks, "logits": logits,
                "cache": cache, "losses": losses, "task_grads": task_grads,
                "state_after": rng.bit_generator.state}

    @staticmethod
    def cached_masks(cache):
        return [cache["drop_in"]] + [lc[key] for lc in cache["layers"]
                                     for key in ("drop_attn", "drop_ff")]

    def both_steps(self, monkeypatch, n_layers, lengths):
        trimmed = self.trimmed_step(monkeypatch, n_layers, lengths)
        ids, nonpad, performer = trimmed["inputs"]
        width = max(lengths)
        assert ids.shape[1] == nonpad.shape[1] == width
        order = [lengths.index(n) for n in nonpad.sum(axis=1)]
        full = self.full_width_step(n_layers, lengths, order, performer,
                                    trimmed["state_before"])
        assert np.array_equal(full["ids"][:, :width], ids)
        assert np.array_equal(full["nonpad"][:, :width], nonpad)
        assert not full["nonpad"][:, width:].any()
        # the dropout masks and the generator match the full-width draws bit for bit
        masks = self.cached_masks(trimmed["cache"])
        assert len(masks) == len(full["masks"]) == 1 + 2 * n_layers
        for mask, want, got_full in zip(masks, full["masks"], self.cached_masks(full["cache"])):
            assert np.array_equal(mask, want[:, :width])
            assert np.array_equal(got_full, want)
        assert trimmed["state_after"] == full["state_after"]
        return trimmed, full

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_trimmed_step_matches_full_width(self, monkeypatch, n_layers):
        lengths = (1, 57, 200, 255)
        trimmed, full = self.both_steps(monkeypatch, n_layers, lengths)
        nonpad = trimmed["inputs"][1]
        for feature in PREDICTED:
            assert_close(trimmed["logits"][feature][nonpad], full["logits"][feature][full["nonpad"]])
        assert trimmed["losses"] == pytest.approx(full["losses"], rel=1e-12, abs=0.0)
        for got, want in zip(trimmed["task_grads"], full["task_grads"], strict=True):
            for key in want:
                assert_close(got[key], want[key])

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_full_segment_batch_is_bit_identical(self, monkeypatch, n_layers):
        trimmed, full = self.both_steps(monkeypatch, n_layers, (1, 57, 200, 256))
        for feature in PREDICTED:
            assert np.array_equal(trimmed["logits"][feature], full["logits"][feature])
        assert trimmed["losses"] == full["losses"]
        for got, want in zip(trimmed["task_grads"], full["task_grads"], strict=True):
            for key in want:
                assert np.array_equal(got[key], want[key])

    def test_batch_without_real_rows_errors(self):
        empty = TokenSegment(np.full((SEGMENT_LEN, 6), PAD, dtype=np.int64), 0, 0)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="no non-pad positions to average over"):
            train(tiny_model(), [(empty, empty)] * 4, TrainConfig(max_epochs=1, batch_size=4))
        assert threading.active_count() == threads

    def test_epoch_peak_memory(self):
        # the benchmark's train config over four 200-note segments: the traced
        # peak is 84.1 MiB over all 256 rows and 65.5 MiB cut to 200 rows
        model = init_model(M2MConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256,
                                     dropout=0.1, n_performers=2))
        dataset = toy_dataset((200,) * 4)
        tracemalloc.start()
        try:
            train(model, dataset, TrainConfig(max_epochs=1, batch_size=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 75 * 2**20


@pytest.mark.parametrize("n_layers", [0, 2])
def test_two_thread_tasks_equal_one_thread_oracle(monkeypatch, n_layers):
    """train runs the three tasks' cross-entropy and backward pass on two
    threads; with a thread switch forced every microsecond, the weights and
    the log equal a run with every task on the calling thread, bit for bit,
    and no thread outlives the call."""
    dataset = toy_dataset((1, 57, 200, 255, 30, 256))
    cfg = TrainConfig(learning_rate=1e-3, warmup_steps=2, max_epochs=3, batch_size=4, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = threading.active_count()
        model, log = train(TestTrimmedBatch.model(n_layers), dataset, cfg)
        assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(trainer, "split_work", one_thread_split_work)
    want_model, want_log = train(TestTrimmedBatch.model(n_layers), dataset, cfg)
    assert len(log.records) == 6
    assert log.to_csv() == want_log.to_csv()
    for key, value in want_model.params.items():
        assert np.array_equal(model.params[key], value), key
