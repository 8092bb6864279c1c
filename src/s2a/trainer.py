"""Multi-task training loop.

Per-feature cross-entropy losses are balanced with GradNorm: task weights
move to equalize the gradient norms each weighted loss induces on the shared
input projection, corrected by each task's inverse training rate, and are
renormalized to sum to 3 after every update. Optimization is Adam with a
linear warm-up; all shuffling and dropout derive from one seed, so a run is
bit-reproducible. Each batch is cut to its longest real row: PAD keys get
zero attention weight and PAD rows zero loss, so the cut changes only float
rounding. The three tasks' cross-entropy and backward passes share the
forward cache and write their own gradients, so they run on the calling
thread and one worker thread with the same bytes as on one thread.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .model import M2MModel, backward_batch, forward_batch, prepare_batch
from .parallel import split_work
from .tokenizer import FEATURE_NAMES, PREDICTED, TokenSegment

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_FLOOR = 1e-4
WEIGHT_SUM = 3.0

FEATURE_COLUMN = {feature: FEATURE_NAMES.index(feature) for feature in PREDICTED}


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass(frozen=True)
class TaskWeights:
    w_vel: float = 1.0
    w_ioi: float = 1.0
    w_dur: float = 1.0
    initial_losses: tuple[float, float, float] | None = None
    alpha: float = 1.5

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_vel, self.w_ioi, self.w_dur)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    warmup_steps: int = 40
    max_epochs: int = 10
    batch_size: int = 4
    alpha: float = 1.5
    seed: int = 0
    gradnorm_lr: float = 0.025
    early_stop_loss: float | None = None  # stop once total weighted loss dips below

    def __post_init__(self):
        for name in ("warmup_steps", "max_epochs", "batch_size", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("learning_rate", "alpha", "gradnorm_lr", "early_stop_loss"):
            value = getattr(self, name)
            if value is None and name == "early_stop_loss":  # no early stop
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                float(value)
            except OverflowError:  # an int past the float range
                raise ValueError(f"{name} must be within the float range") from None
        if not all(0 < v < math.inf for v in (self.learning_rate, self.warmup_steps,
                                              self.batch_size, self.gradnorm_lr)):
            raise ValueError("learning_rate, warmup_steps, batch_size, gradnorm_lr must be "
                             "finite and > 0")
        if not (self.max_epochs >= 0 and self.seed >= 0 and 0 <= self.alpha < math.inf):
            raise ValueError("max_epochs, seed and alpha must be >= 0, alpha finite")


@dataclass
class StepRecord:
    step: int
    lr: float
    w_vel: float
    w_ioi: float
    w_dur: float
    loss_vel: float
    loss_ioi: float
    loss_dur: float
    total: float


@dataclass
class TrainingLog:
    records: list[StepRecord]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "lr", "w_vel", "w_ioi", "w_dur",
                         "L_vel", "L_ioi", "L_dur", "total"])
        for r in self.records:
            writer.writerow([r.step, repr(r.lr), repr(r.w_vel), repr(r.w_ioi), repr(r.w_dur),
                             repr(r.loss_vel), repr(r.loss_ioi), repr(r.loss_dur), repr(r.total)])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Losses

def cross_entropy(logits: np.ndarray, targets: np.ndarray, nonpad: np.ndarray):
    """(mean CE over non-pad positions, d(loss)/d(logits))."""
    n = int(nonpad.sum())
    if n == 0:
        raise ValueError("no non-pad positions to average over")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    exp = np.exp(shifted, out=shifted)
    total = exp.sum(axis=-1, keepdims=True)
    nll = (np.log(total[..., 0]) - picked) * nonpad
    loss = float(nll.sum() / n)
    grad = np.divide(exp, total, out=exp)  # softmax(logits), in place
    np.put_along_axis(
        grad, targets[..., None],
        np.take_along_axis(grad, targets[..., None], axis=-1) - 1.0, axis=-1,
    )
    grad *= nonpad[..., None] / n
    return loss, grad


# ---------------------------------------------------------------------------
# GradNorm

def gradnorm_step(
    weights: TaskWeights,
    losses: tuple[float, float, float],
    shared_grad_norms: tuple[float, float, float],
    lr: float,
) -> TaskWeights:
    """One subgradient step on the GradNorm objective.

    shared_grad_norms are G_k = ||grad of (w_k * L_k) w.r.t. the shared
    input projection||. Targets are mean(G) * r_k^alpha with r_k the
    normalized inverse training rate; targets are treated as constants. The
    updated weights are floored at a small positive value and renormalized
    to sum to 3.
    """
    if weights.initial_losses is None:
        if any(l == 0.0 for l in losses):
            raise ValueError("initial loss of zero; cannot form inverse training rates")
        weights = replace(weights, initial_losses=tuple(losses))

    ratios = [l / l0 for l, l0 in zip(losses, weights.initial_losses)]
    mean_ratio = sum(ratios) / 3.0
    inverse_rates = [r / mean_ratio for r in ratios]
    mean_g = sum(shared_grad_norms) / 3.0
    targets = [mean_g * r ** weights.alpha for r in inverse_rates]

    new = []
    for w, g, t in zip(weights.as_tuple(), shared_grad_norms, targets):
        sign = 0.0 if g == t else math.copysign(1.0, g - t)
        raw_norm = g / w  # dG/dw since G scales linearly with w
        new.append(max(WEIGHT_FLOOR, w - lr * sign * raw_norm))
    total = sum(new)
    new = [w * WEIGHT_SUM / total for w in new]
    return replace(weights, w_vel=new[0], w_ioi=new[1], w_dur=new[2])


# ---------------------------------------------------------------------------
# Training loop

def train(
    model: M2MModel,
    dataset: list[tuple[TokenSegment, TokenSegment]],
    cfg: TrainConfig,
) -> tuple[M2MModel, TrainingLog]:
    """Train in place on aligned (score segment, performance segment) pairs.

    Each step runs one backward pass per task; the task gradients give both
    the GradNorm norms at the input projection and, reweighted by the
    updated task weights, the Adam update. The tasks run on two threads:
    velocity then ioi on this one and duration, the slowest, on a worker,
    which is joined before GradNorm and Adam run. Each task's logits are
    dropped once its cross-entropy has given their gradient. The learning
    rate ramps linearly over warmup_steps and stays constant after. Each step
    runs on its batch cut to the longest real row in it, and to at least one
    row, so a batch with no real row still fails in cross_entropy.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    seed_seq = np.random.SeedSequence(cfg.seed)
    shuffle_ss, dropout_ss = seed_seq.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    score_ids, score_nonpad, performers = prepare_batch([s for s, _ in dataset])
    n_real = score_nonpad.sum(axis=1)
    target_ids = np.stack([perf.ids for _, perf in dataset])

    weights = TaskWeights(alpha=cfg.alpha)
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    param_keys = sorted(model.params)
    records: list[StepRecord] = []
    step = 0
    stop = False

    for _ in range(cfg.max_epochs):
        if stop:
            break
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            width = max(1, int(n_real[batch].max()))
            ids = score_ids[batch, :width]
            nonpad = score_nonpad[batch, :width]
            perf_ids = performers[batch]
            targets = target_ids[batch, :width]

            logits, cache = forward_batch(model, ids, nonpad, perf_ids, train_rng=dropout_rng)

            losses, task_grads = [0.0] * 3, [None] * 3

            def task(k):
                feature = PREDICTED[k]
                t = targets[:, :, FEATURE_COLUMN[feature]]
                losses[k], dlog = cross_entropy(logits.pop(feature), t, nonpad)
                task_grads[k] = backward_batch(model, cache, {feature: dlog})

            split_work(task, [0, 2, 1])  # velocity, ioi here; duration, the slowest, on the worker
            if not all(math.isfinite(l) for l in losses):
                raise TrainingDivergedError(step)

            norms = tuple(
                w * math.sqrt(
                    float(np.sum(g["proj_w"] ** 2)) + float(np.sum(g["proj_b"] ** 2))
                )
                for w, g in zip(weights.as_tuple(), task_grads)
            )
            weights = gradnorm_step(weights, tuple(losses), norms, lr=cfg.gradnorm_lr)

            lr = cfg.learning_rate * min(1.0, (step + 1) / cfg.warmup_steps)
            w_now = weights.as_tuple()
            step_t = step + 1
            bc1 = 1.0 - ADAM_BETA1 ** step_t
            bc2 = 1.0 - ADAM_BETA2 ** step_t
            for key in param_keys:
                g = sum(w * tg[key] for w, tg in zip(w_now, task_grads))
                adam_m[key] = ADAM_BETA1 * adam_m[key] + (1 - ADAM_BETA1) * g
                adam_v[key] = ADAM_BETA2 * adam_v[key] + (1 - ADAM_BETA2) * g * g
                model.params[key] -= lr * (adam_m[key] / bc1) / (
                    np.sqrt(adam_v[key] / bc2) + ADAM_EPS
                )

            total = sum(w * l for w, l in zip(w_now, losses))
            records.append(
                StepRecord(step, lr, w_now[0], w_now[1], w_now[2],
                           losses[0], losses[1], losses[2], total)
            )
            step += 1
            if cfg.early_stop_loss is not None and total < cfg.early_stop_loss:
                stop = True
                break

    model.check_finite()
    return model, TrainingLog(records)


# ---------------------------------------------------------------------------
# Training-set diagnostics

def greedy_predictions(
    model: M2MModel, dataset: list[tuple[TokenSegment, TokenSegment]]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-feature (argmax prediction, target) ids over all non-pad slots."""
    ids, nonpad, performers = prepare_batch([s for s, _ in dataset])
    target_ids = np.stack([perf.ids for _, perf in dataset])
    logits, _ = forward_batch(model, ids, nonpad, performers)
    out = {}
    for feature in PREDICTED:
        pred = np.argmax(logits[feature], axis=-1)
        out[feature] = (pred[nonpad], target_ids[:, :, FEATURE_COLUMN[feature]][nonpad])
    return out


def token_accuracy(model: M2MModel, dataset) -> dict[str, float]:
    return {
        feature: float(np.mean(pred == target))
        for feature, (pred, target) in greedy_predictions(model, dataset).items()
    }
