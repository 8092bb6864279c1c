"""Transformer-encoder performance model.

Six per-feature embeddings are concatenated, projected to the model width,
combined with sinusoidal positions, and run through a bidirectional post-norm
encoder whose attention masks PAD keys. Attention has query, value and output
biases but no key bias: one added to every key shifts all of a query's
scores by the same q.b, which softmax ignores. A performer embedding of the
model width is summed with the final hidden state at every row, PAD rows
included: no output keeps a PAD row's logits, and the loss gives them no
gradient. Three linear heads emit categorical logits over the velocity, IOI,
and duration vocabularies. `forward` takes one segment's [256, 6] id array and
returns {feature: logits [256, V]}, the per-segment slice of what
`forward_batch` returns for a batch. A `forward_batch` given a generator
is a training pass: dropout fires and it returns the cache that
`backward_batch` reads. Without one it is an inference pass, which keeps
no cache and drops each layer's activations once the layer is done.

Everything is numpy float64 with hand-written backpropagation: gradients are
exact enough to verify against central finite differences, and all
randomness flows through explicit generators, so training and decoding are
bit-reproducible. Attention and its backward run one (batch item, head)
slice at a time, in place on the cached [T, T] weights, with the bits of the
whole-array expressions.

`sample` and `nucleus_sample` draw nothing: they read the uniforms they are
given. `nucleus_sample` samples its rows SAMPLE_BLOCK at a time, so no
temporary is larger than one block. `predict_performance` runs a score's
segments, each one `forward` and one `sample`, on two threads
(s2a.parallel). The calling thread draws every uniform they take from its
seed before the split, in the order a loop over the segments would, so the
ids are those of one thread.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .midi_io import NoteSequence, resample_grid
from .parallel import split_work
from .tokenizer import (
    FEATURE_NAMES,
    N_SPECIALS,
    PREDICTED,
    SEGMENT_LEN,
    VOCAB,
    TokenSegment,
    VocabSpec,
    detokenize,
    segment as segment_tokens,
    tokenize,
)

HEAD_KEYS = {"velocity": "head_vel", "ioi": "head_ioi", "duration": "head_dur"}

ARGMAX_TEMPERATURE = 1e-6
# rows nucleus_sample takes at a time: over duration's 1,152 value columns a
# block's float temporaries take 295 KB each, where a whole segment's took 2.4 MB
SAMPLE_BLOCK = 32
NEG_MASK = -1e30
LN_EPS = 1e-5
# perf_emb has a row per performer id: far above ATEPP's 49 pianists, and at
# d_model 64 the rows take 5 MB, so a corpus keeps its own ids
MAX_PERFORMERS = 10_000


def is_real(value) -> bool:
    """Whether value is a real number; a bool, which JSON and Python both
    accept as one, is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class M2MConfig:
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    dropout: float = 0.1
    n_performers: int = 4
    seed: int = 0

    def __post_init__(self):
        # a checkpoint header is JSON, where 2.0, true and NaN are numbers too
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "n_performers", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not is_real(self.dropout):
            raise ValueError(f"dropout must be a real number, got {self.dropout!r}")
        # sinusoidal positions fill d_model in sine/cosine pairs, and the six
        # feature embeddings are d_model // 4 wide
        if self.d_model < 4 or self.d_model % 2:
            raise ValueError(f"d_model must be even and >= 4, got {self.d_model}")
        if min(self.n_heads, self.d_ff) < 1:
            raise ValueError("n_heads and d_ff must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 1 <= self.n_performers <= MAX_PERFORMERS:
            raise ValueError(f"n_performers must be in 1..{MAX_PERFORMERS}, got {self.n_performers}")
        if min(self.n_layers, self.seed) < 0:
            raise ValueError("n_layers and seed must be >= 0")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_embed(self) -> int:
        return self.d_model // 4

    @property
    def vocab(self) -> VocabSpec:
        return VOCAB


@dataclass
class M2MModel:
    config: M2MConfig
    params: dict[str, np.ndarray]
    pos_encoding: np.ndarray  # [SEGMENT_LEN, d_model], fixed

    def check_finite(self) -> None:
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise FloatingPointError(f"non-finite values in parameter {name}")


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    dim = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2 * dim / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def parameter_shapes(config: M2MConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter the config asks for, in init order,
    one at a time: a reader can stop at the first one it lacks."""
    d, d_ff = config.d_model, config.d_ff
    for name in FEATURE_NAMES:
        yield f"emb_{name}", (config.vocab.size(name), config.d_embed)
    yield "proj_w", (6 * config.d_embed, d)
    yield "proj_b", (d,)
    for layer in range(config.n_layers):
        pre = f"l{layer}."
        for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"):
            yield pre + name, (d, d) if name[0] == "w" else (d,)
        yield pre + "ln1_g", (d,)
        yield pre + "ln1_b", (d,)
        yield pre + "ff_w1", (d, d_ff)
        yield pre + "ff_b1", (d_ff,)
        yield pre + "ff_w2", (d_ff, d)
        yield pre + "ff_b2", (d,)
        yield pre + "ln2_g", (d,)
        yield pre + "ln2_b", (d,)
    yield "perf_emb", (config.n_performers, d)
    for feature in PREDICTED:
        key = HEAD_KEYS[feature]
        yield key + "_w", (d, config.vocab.size(feature))
        yield key + "_b", (config.vocab.size(feature),)


def init_model(config: M2MConfig) -> M2MModel:
    """Seeded Gaussian init (scale 0.02) of every matrix, zero biases,
    identity layer norms."""
    rng = np.random.default_rng(config.seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config):
        if len(shape) == 2:
            p[name] = rng.normal(0.0, 0.02, size=shape)
        elif name.endswith("_g"):
            p[name] = np.ones(shape)
        else:
            p[name] = np.zeros(shape)
    return M2MModel(config, p, sinusoidal_positions(SEGMENT_LEN, config.d_model))


# ---------------------------------------------------------------------------
# Numeric primitives

def _softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written over x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _layernorm_forward(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _layernorm_backward(grads, g, b, dout, cache):
    """Add the gamma and beta gradients to grads[g] and grads[b]; return d(loss)/dx."""
    xhat, inv, gamma = cache
    grads[g] += (dout * xhat).sum(axis=tuple(range(dout.ndim - 1)))
    grads[b] += dout.sum(axis=tuple(range(dout.ndim - 1)))
    dxhat = dout * gamma
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _attention(q, k, v, key_mask, scale):
    """Masked scaled dot-product attention over [B, H, T, d_head] heads; returns
    (attn [B, H, T, T], ctx [B, H, T, d_head]).

    One (batch item, head) slice at a time: its scores are computed, scaled,
    masked and normalised in place in attn, so the [T, T] block stays in
    cache. Each step is the whole-array step on that slice, so the bits are
    those of softmax(q @ k^T * scale + key_mask) @ v.
    """
    B, H, T, _ = q.shape
    attn = np.empty((B, H, T, T))
    ctx = np.empty(v.shape)
    for b, h in np.ndindex(B, H):
        a = np.matmul(q[b, h], k[b, h].T, out=attn[b, h])
        a *= scale
        a += key_mask[b, 0]
        np.matmul(_softmax_in_place(a), v[b, h], out=ctx[b, h])
    return attn, ctx


def _attention_backward(attn, q, k, v, dctx, scale):
    """(dq, dk, dv) of _attention given d(loss)/d(ctx), one slice at a time:
    d(scores) = a * (d(a) - sum(d(a) * a)) in one reused [T, T] array, with the
    float operations of the whole-array expression."""
    dq, dk, dv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
    dscores = np.empty(attn.shape[2:])
    scratch = np.empty(attn.shape[2:])
    for b, h in np.ndindex(attn.shape[:2]):
        a = attn[b, h]
        np.matmul(dctx[b, h], v[b, h].T, out=dscores)  # d(attn), then d(scores) in place
        np.matmul(a.T, dctx[b, h], out=dv[b, h])
        dscores -= np.multiply(dscores, a, out=scratch).sum(axis=-1, keepdims=True)
        dscores *= a
        np.matmul(dscores, k[b, h], out=dq[b, h])
        np.matmul(dscores.T, q[b, h], out=dk[b, h])
    dq *= scale
    dk *= scale
    return dq, dk, dv


def _dropout(x, rng, rate):
    """Scale x [B, T, D] in place by an inverted-dropout mask and return it; None
    at rate 0.

    The uniforms are drawn for whole SEGMENT_LEN-row segments and cut to T rows,
    so a batch cut short gets the first T rows of the full-width mask and
    leaves rng in the full-width state.
    """
    if rate == 0.0:
        return None
    B, T, D = x.shape
    mask = (rng.random((B, SEGMENT_LEN, D))[:, :T] >= rate) / (1.0 - rate)
    x *= mask
    return mask


def _linear_backward(grads, w, b, x, dy, weight):
    """Backward of y = x @ weight + bias: add x^T dy to grads[w] and, unless b is
    None (no bias), the summed dy to grads[b]; return d(loss)/dx, shaped like x."""
    flat = dy.reshape(-1, dy.shape[-1])
    grads[w] += x.reshape(-1, x.shape[-1]).T @ flat
    if b is not None:
        grads[b] += flat.sum(axis=0)
    return (flat @ weight.T).reshape(x.shape)


# ---------------------------------------------------------------------------
# Forward / backward over batched id arrays

def prepare_batch(segments: list[TokenSegment]):
    """Stack segments into (ids [B,T,6], nonpad [B,T], performer [B])."""
    ids = np.stack([seg.ids for seg in segments])
    nonpad = np.arange(SEGMENT_LEN) < np.array([[seg.n_real] for seg in segments])
    performer = np.array([seg.performer_id for seg in segments], dtype=np.int64)
    return ids, nonpad, performer


def validate_inputs(ids: np.ndarray, performer: np.ndarray, config: M2MConfig) -> None:
    for k, name in enumerate(FEATURE_NAMES):
        size = config.vocab.size(name)
        worst = int(ids[:, :, k].max(initial=0))
        if worst >= size:
            raise ValueError(f"{name} token id {worst} >= vocabulary size {size}")
    if ids.min(initial=0) < 0:
        raise ValueError("negative token id")
    if performer.size and (performer.min() < 0 or performer.max() >= config.n_performers):
        raise ValueError(
            f"performer id outside 0..{config.n_performers - 1}: {performer.tolist()}"
        )


def forward_batch(
    model: M2MModel,
    ids: np.ndarray,
    nonpad: np.ndarray,
    performer: np.ndarray,
    train_rng: np.random.Generator | None = None,
):
    """Run the encoder; returns ({feature: logits [B,T,V]}, cache).

    With train_rng the pass trains: dropout fires at the config's rate and
    cache holds what backward_batch reads. Without it the pass is inference:
    deterministic, cache is None, and each layer's activations are dropped
    once the layer is done. Each dropout mask is drawn for whole
    SEGMENT_LEN-row segments and cut to T rows, so a batch cut short gets
    the first T rows of its full-width masks.
    """
    cfg = model.config
    p = model.params
    B, T, _ = ids.shape
    if not 1 <= T <= SEGMENT_LEN:
        raise ValueError(f"sequence length {T} outside 1..{SEGMENT_LEN}")
    validate_inputs(ids, performer, cfg)
    rate = cfg.dropout if train_rng is not None else 0.0

    embeds = [p[f"emb_{name}"][ids[:, :, k]] for k, name in enumerate(FEATURE_NAMES)]
    concat = np.concatenate(embeds, axis=-1)  # [B,T,6*d_e]
    h = concat @ p["proj_w"] + p["proj_b"]
    h += model.pos_encoding[None, :T]
    drop_in = _dropout(h, train_rng, rate)

    # additive attention mask: PAD keys excluded everywhere
    key_mask = np.where(nonpad[:, None, None, :], 0.0, NEG_MASK)  # [B,1,1,T]
    scale = 1.0 / np.sqrt(cfg.d_head)

    layers = []
    for layer in range(cfg.n_layers):
        pre = f"l{layer}."
        x_in = h
        q = _split_heads(x_in @ p[pre + "wq"] + p[pre + "bq"], cfg.n_heads)
        k = _split_heads(x_in @ p[pre + "wk"], cfg.n_heads)
        v = _split_heads(x_in @ p[pre + "wv"] + p[pre + "bv"], cfg.n_heads)
        attn, ctx = _attention(q, k, v, key_mask, scale)
        ctx = _merge_heads(ctx)
        out = ctx @ p[pre + "wo"] + p[pre + "bo"]
        drop_attn = _dropout(out, train_rng, rate)
        h, ln1 = _layernorm_forward(x_in + out, p[pre + "ln1_g"], p[pre + "ln1_b"])

        ff_in = h
        act = ff_in @ p[pre + "ff_w1"] + p[pre + "ff_b1"]
        np.maximum(act, 0.0, out=act)
        ff_out = act @ p[pre + "ff_w2"] + p[pre + "ff_b2"]
        drop_ff = _dropout(ff_out, train_rng, rate)
        h, ln2 = _layernorm_forward(ff_in + ff_out, p[pre + "ln2_g"], p[pre + "ln2_b"])
        if train_rng is not None:
            layers.append({"x_in": x_in, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
                           "drop_attn": drop_attn, "ln1": ln1, "ff_in": ff_in, "act": act,
                           "drop_ff": drop_ff, "ln2": ln2})
        # nothing of the layer outlives it but what the cache holds
        del x_in, q, k, v, attn, ctx, out, ln1, ff_in, act, ff_out, ln2

    h = h + p["perf_emb"][performer][:, None, :]

    logits = {}
    for feature in PREDICTED:
        key = HEAD_KEYS[feature]
        logits[feature] = h @ p[key + "_w"]
        logits[feature] += p[key + "_b"]
    if train_rng is None:
        return logits, None
    return logits, {"ids": ids, "performer": performer, "concat": concat, "drop_in": drop_in,
                    "layers": layers, "encoded": h}


def backward_batch(
    model: M2MModel, cache: dict, dlogits: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(logits) per head.

    Heads absent from dlogits contribute nothing, and a dropout mask of None
    (rate 0) is skipped. Each linear layer and layer norm adds its gradients
    through one helper. Attention's backward runs one (batch item, head)
    slice at a time, in place in one [T, T] array, with the same bits as on
    the whole [B, H, T, T] arrays. Returns a dict with the same keys as
    model.params.
    """
    cfg = model.config
    p = model.params
    grads = {name: np.zeros_like(value) for name, value in p.items()}

    h = cache["encoded"]
    dh = np.zeros_like(h)
    for feature, dlog in dlogits.items():
        key = HEAD_KEYS[feature]
        dh += _linear_backward(grads, key + "_w", key + "_b", h, dlog, p[key + "_w"])

    np.add.at(grads["perf_emb"], cache["performer"], dh.sum(axis=1))

    scale = 1.0 / np.sqrt(cfg.d_head)
    for layer in reversed(range(cfg.n_layers)):
        pre = f"l{layer}."
        lc = cache["layers"][layer]

        dsum = _layernorm_backward(grads, pre + "ln2_g", pre + "ln2_b", dh, lc["ln2"])
        dff_out = dsum if lc["drop_ff"] is None else dsum * lc["drop_ff"]
        w1, w2 = pre + "ff_w1", pre + "ff_w2"
        dact = _linear_backward(grads, w2, pre + "ff_b2", lc["act"], dff_out, p[w2])
        dpre = dact * (lc["act"] > 0.0)  # act > 0 exactly where its pre-activation is
        dh = dsum + _linear_backward(grads, w1, pre + "ff_b1", lc["ff_in"], dpre, p[w1])

        dsum = _layernorm_backward(grads, pre + "ln1_g", pre + "ln1_b", dh, lc["ln1"])
        dout = dsum if lc["drop_attn"] is None else dsum * lc["drop_attn"]
        dctx = _linear_backward(grads, pre + "wo", pre + "bo", lc["ctx"], dout, p[pre + "wo"])
        dq, dk, dv = _attention_backward(lc["attn"], lc["q"], lc["k"], lc["v"],
                                         _split_heads(dctx, cfg.n_heads), scale)

        dh = dsum  # residual branch
        for w, b, dval in ((pre + "wq", pre + "bq", dq), (pre + "wk", None, dk),
                           (pre + "wv", pre + "bv", dv)):
            dh = dh + _linear_backward(grads, w, b, lc["x_in"], _merge_heads(dval), p[w])

    if cache["drop_in"] is not None:
        dh *= cache["drop_in"]
    dconcat = _linear_backward(grads, "proj_w", "proj_b", cache["concat"], dh, p["proj_w"])

    ids = cache["ids"]
    for idx, name in enumerate(FEATURE_NAMES):
        sl = dconcat[:, :, idx * cfg.d_embed:(idx + 1) * cfg.d_embed]
        np.add.at(grads[f"emb_{name}"], ids[:, :, idx].reshape(-1), sl.reshape(-1, cfg.d_embed))
    return grads


def forward(model: M2MModel, seg: TokenSegment) -> dict[str, np.ndarray]:
    """Per-note categorical logits {feature: [256, V]} for one segment (inference)."""
    logits, _ = forward_batch(model, *prepare_batch([seg]))
    return {feature: value[0] for feature, value in logits.items()}


# ---------------------------------------------------------------------------
# Decoding

def check_sampling(temperature: float, top_p: float) -> None:
    """ValueError unless top_p is a real number in (0, 1] and temperature one
    >= 0 (+inf included, NaN not); a bool is not a real number here."""
    if not (is_real(top_p) and 0.0 < top_p <= 1.0):
        raise ValueError("top_p must be in (0, 1]")
    if not (is_real(temperature) and temperature >= 0.0):
        raise ValueError("temperature must be >= 0")


def nucleus_sample(
    logits: np.ndarray,
    temperature: float,
    top_p: float,
    uniforms: np.ndarray | None,
) -> np.ndarray:
    """Temperature + nucleus sampling of every row of [rows, V] logits.

    The nucleus of a row is the smallest prefix of its probability-sorted
    tokens (ties broken by lower id) whose cumulative mass reaches top_p.
    The row takes the first token whose cumulative mass exceeds r times the
    nucleus mass, where r is its entry of the [rows] uniforms. Temperatures
    below 1e-6 short-circuit to argmax and read no uniform, so uniforms may
    be None there; at +inf every token is equally likely. ValueError for a
    bad top_p or temperature, for V = 0, for other than one uniform per row
    when sampling, or for a row whose logits hold NaN or +inf, or whose
    logits / temperature do at 1e-6 and above; logits is left unchanged.

    Rows are sampled SAMPLE_BLOCK at a time, so no temporary is larger than
    one block of [SAMPLE_BLOCK, V]. Every step works row by row, so the ids
    are those of one pass over all rows.
    """
    check_sampling(temperature, top_p)
    if temperature >= ARGMAX_TEMPERATURE and len(uniforms) != len(logits):
        raise ValueError(f"{len(uniforms)} uniforms for {len(logits)} rows")
    return np.concatenate([
        _nucleus_sample_block(logits[start:start + SAMPLE_BLOCK], temperature, top_p,
                              None if uniforms is None else uniforms[start:start + SAMPLE_BLOCK])
        for start in range(0, max(len(logits), 1), SAMPLE_BLOCK)])


def _nucleus_sample_block(logits, temperature, top_p, uniforms):
    """nucleus_sample of one block of rows, its settings already checked."""
    if temperature < ARGMAX_TEMPERATURE:
        if not (logits < np.inf).all():  # NaN or +inf, where argmax would pick either
            raise ValueError("logits / temperature must not be NaN or +inf")
        return np.argmax(logits, axis=-1)
    probs = _softmax_in_place(logits / temperature)
    # The sorted values fix the cumsum, the cut and the picked position; any
    # order of tied values gives the same ones, so the values alone are sorted.
    sorted_probs = np.negative(probs)
    sorted_probs.sort(axis=-1)
    np.negative(sorted_probs, out=sorted_probs)
    cumulative = np.cumsum(sorted_probs, axis=-1)
    if np.isnan(cumulative[:, -1]).any():
        raise ValueError("logits / temperature must not be NaN or +inf")
    cut = np.minimum((cumulative < top_p).sum(axis=-1), probs.shape[-1] - 1)
    rows = np.arange(len(probs))
    pick = np.minimum((cumulative <= (uniforms * cumulative[rows, cut])[:, None]).sum(axis=-1),
                      cut)
    # Probability-sorted order puts equal values in id order, so the picked
    # position holds the rank-th id with that value, where rank is the
    # position's offset into its run of equal values.
    value = sorted_probs[rows, pick]
    rank = pick - (sorted_probs > value[:, None]).sum(axis=-1)
    hit_row, hit_id = np.nonzero(probs == value[:, None])
    return hit_id[np.searchsorted(hit_row, rows) + rank]


def nucleus_sample_row(
    logits: np.ndarray,
    temperature: float,
    top_p: float,
    rng: np.random.Generator,
) -> int:
    """Temperature + nucleus sampling of one row, its uniform drawn from rng."""
    check_sampling(temperature, top_p)
    r = rng.random(1) if temperature >= ARGMAX_TEMPERATURE else None
    return int(nucleus_sample(np.asarray(logits)[None, :], temperature, top_p, r)[0])


def sample(
    dist: dict[str, np.ndarray],
    temperature: float,
    top_p: float,
    uniforms: Sequence[np.ndarray | None],
) -> np.ndarray:
    """Draw token ids at every position of forward's {feature: logits [T, V]},
    leaving dist unchanged: an int64 [3, T] array whose rows follow PREDICTED.

    uniforms holds each feature's [T] uniforms for nucleus_sample, in
    PREDICTED order. Only the value columns, ids N_SPECIALS.., are sampled,
    so the special ids 0..3 are never drawn; a head with no value column
    (V <= N_SPECIALS) is a ValueError that names it.
    """
    for feature in PREDICTED:
        if dist[feature].shape[-1] <= N_SPECIALS:
            raise ValueError(f"{feature} logits are {dist[feature].shape[-1]} wide: no value "
                             f"column past the {N_SPECIALS} special ids")
    return N_SPECIALS + np.stack([
        nucleus_sample(dist[feature][:, N_SPECIALS:], temperature, top_p, r)
        for feature, r in zip(PREDICTED, uniforms)])


def predict_performance(
    model: M2MModel,
    score: NoteSequence,
    performer_id: int,
    temperature: float = 1.0,
    top_p: float = 0.9,
    seed: int = 0,
) -> NoteSequence:
    """Render an expressive performance of a score.

    The score is resampled to the 96-tick grid, tokenized with the constant
    score velocity, windowed into 256-note segments, and decoded with
    temperature/nucleus sampling. Pitches come verbatim from the score;
    velocity, IOI, and duration come only from the model. The score's tempo
    map is carried over so the result plays back at the notated tempo.

    The segments run on two threads (s2a.parallel.split_work), each its
    forward and sample into its columns of one [3, n_notes] id array. The
    calling thread first draws every uniform they take from default_rng(seed)
    in the order a loop over them would, so the ids are those of one thread.
    ValueError for settings check_sampling rejects, a score with no notes
    included, for a seed not an int (nor a bool) >= 0, and for a performer_id
    not an int (nor a bool) in 0..n_performers - 1.
    """
    check_sampling(temperature, top_p)
    if not (type(seed) is int and seed >= 0):
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    if not (type(performer_id) is int and 0 <= performer_id < model.config.n_performers):
        raise ValueError(f"performer id outside 0..{model.config.n_performers - 1}: {performer_id}")
    grid = resample_grid(score)
    tokens = tokenize(grid, is_score=True)
    segments = segment_tokens(tokens, performer_id)
    draws = np.random.default_rng(seed).random((len(segments), len(PREDICTED), SEGMENT_LEN))
    ids = np.empty((len(PREDICTED), len(tokens)), dtype=np.int64)

    def render_segment(k: int) -> None:
        seg = segments[k]
        start = k * SEGMENT_LEN
        ids[:, start:start + seg.n_real] = sample(forward(model, seg), temperature, top_p,
                                                  draws[k])[:, :seg.n_real]

    split_work(render_segment, list(range(len(segments))))
    pitches = [t.pitch_tok for t in tokens]
    performance = detokenize(pitches, *ids, grid.effective_time_signatures())
    return replace(performance, tempi=grid.tempi)
