"""Central finite-difference gradient verification for the encoder.

The loss is the task-weighted sum of the three per-feature cross-entropies.
Analytic gradients come from one backward pass; numeric ones from central
differences at a deterministic sample of coordinates per parameter group
(all coordinates for small groups, used-plus-spare embedding rows for the
big tables). Relative error is compared per group over the sampled vector.
Every forward pass is a training pass, since only a training pass keeps
the cache that backward_batch reads. With a dropout seed, each draws its
masks from a fresh generator of that seed, so each evaluation of the loss
sees the same masks. Without one the config must have dropout 0, so the
pass draws no mask and the check is a plain gradient check.
"""

from __future__ import annotations

import numpy as np

from s2a.model import FEATURE_NAMES, M2MModel, PREDICTED, backward_batch, forward_batch
from s2a.trainer import cross_entropy

TASK_WEIGHTS = {"velocity": 1.0, "ioi": 0.7, "duration": 1.3}
FD_STEP = 1e-5
MAX_COORDS = 200


def randomize_parameters(model: M2MModel, rng) -> None:
    """Move every parameter to a generic point.

    At the tiny init scale the attention is near-uniform and Q/K gradients
    sit below float64 finite-difference resolution; a 0.3-scale draw gives
    every group a healthy gradient to compare against.
    """
    for name, value in model.params.items():
        if name.endswith("_g"):
            model.params[name] = 1.0 + 0.2 * rng.standard_normal(value.shape)
        else:
            model.params[name] = 0.3 * rng.standard_normal(value.shape)


def random_inputs(config, rng, batch=2, T=8):
    ids = np.zeros((batch, T, 6), dtype=np.int64)
    for k, name in enumerate(FEATURE_NAMES):
        ids[:, :, k] = rng.integers(4, config.vocab.size(name), size=(batch, T))
    nonpad = np.ones((batch, T), dtype=bool)
    if batch > 1 and T > 2:
        nonpad[-1, T - 2:] = False  # exercise PAD masking in the check
        ids[-1, T - 2:, :] = 0
    performer = rng.integers(0, config.n_performers, size=batch)
    targets = {
        f: rng.integers(4, config.vocab.size(f), size=(batch, T)) for f in PREDICTED
    }
    return ids, nonpad, performer, targets


def _forward(model: M2MModel, ids, nonpad, performer, dropout_seed):
    """A training pass, which keeps the cache; without a dropout seed the
    config must have dropout 0, so the generator draws nothing."""
    if dropout_seed is None:
        assert model.config.dropout == 0, "a check without a dropout seed needs dropout 0"
    return forward_batch(model, ids, nonpad, performer, np.random.default_rng(dropout_seed))


def weighted_loss(model: M2MModel, ids, nonpad, performer, targets,
                  dropout_seed: int | None = None) -> float:
    logits, _ = _forward(model, ids, nonpad, performer, dropout_seed)
    total = 0.0
    for feature in PREDICTED:
        loss, _ = cross_entropy(logits[feature], targets[feature], nonpad)
        total += TASK_WEIGHTS[feature] * loss
    return total


def analytic_gradients(model: M2MModel, ids, nonpad, performer, targets,
                       dropout_seed: int | None = None):
    logits, cache = _forward(model, ids, nonpad, performer, dropout_seed)
    dlogits = {}
    for feature in PREDICTED:
        _, grad = cross_entropy(logits[feature], targets[feature], nonpad)
        dlogits[feature] = TASK_WEIGHTS[feature] * grad
    return backward_batch(model, cache, dlogits)


def sample_coords(name: str, shape, ids, rng) -> list[tuple]:
    """Deterministic coordinate sample; embedding groups always include the
    rows that actually occur in the input plus two spares."""
    size = int(np.prod(shape))
    if name.startswith("emb_"):
        feature = name[4:]
        column = FEATURE_NAMES.index(feature)
        rows = sorted(set(ids[:, :, column].reshape(-1).tolist()))
        spare = [r for r in range(shape[0]) if r not in rows][:2]
        coords = [(r, c) for r in rows + spare for c in range(shape[1])]
        if len(coords) > MAX_COORDS:
            pick = rng.choice(len(coords), size=MAX_COORDS, replace=False)
            coords = [coords[i] for i in sorted(pick)]
        return coords
    if size <= MAX_COORDS:
        return [np.unravel_index(i, shape) for i in range(size)]
    flat = rng.choice(size, size=MAX_COORDS, replace=False)
    return [np.unravel_index(i, shape) for i in sorted(flat)]


def group_relative_errors(
    model: M2MModel, seed: int = 0, dropout_seed: int | None = None
) -> dict[str, float]:
    """Relative FD-vs-analytic error per parameter group; dropout at the
    config's rate with a dropout seed, and a config of dropout 0 without one."""
    rng = np.random.default_rng(seed)
    randomize_parameters(model, rng)
    ids, nonpad, performer, targets = random_inputs(model.config, rng)
    grads = analytic_gradients(model, ids, nonpad, performer, targets, dropout_seed)

    errors = {}
    for name in sorted(model.params):
        tensor = model.params[name]
        coords = sample_coords(name, tensor.shape, ids, rng)
        numeric = np.zeros(len(coords))
        analytic = np.array([grads[name][c] for c in coords])
        for n, c in enumerate(coords):
            original = tensor[c]
            tensor[c] = original + FD_STEP
            up = weighted_loss(model, ids, nonpad, performer, targets, dropout_seed)
            tensor[c] = original - FD_STEP
            down = weighted_loss(model, ids, nonpad, performer, targets, dropout_seed)
            tensor[c] = original
            numeric[n] = (up - down) / (2 * FD_STEP)
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-12)
        errors[name] = float(np.linalg.norm(numeric - analytic) / denom)
    return errors
