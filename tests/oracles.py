"""Slow reference implementations the fast code in s2a is tested against."""

from __future__ import annotations

import numpy as np

from s2a.align import DEFAULT_GAP_PENALTY, AlignmentMap
from s2a.midi_io import NoteSequence
from s2a.model import (
    ARGMAX_TEMPERATURE,
    NEG_MASK,
    N_SPECIALS,
    PREDICTED,
    OutputDistributions,
    softmax,
)
from s2a.synth import (
    ATTACK_SECONDS,
    DECAY_SECONDS_AT_C4,
    HARMONIC_ROLLOFF,
    N_HARMONICS,
    PEAK_LEVEL,
    RELEASE_SECONDS,
    Waveform,
    _note_times,
    midi_pitch_hz,
)


def scalar_dtw_path_cost(x: list[float], y: list[float]) -> tuple[float, int]:
    """Row-by-row DTW with the (cost, path length) tie-break, one cell at a time."""
    n, m = len(x), len(y)
    INF = float("inf")
    cost = np.full((n + 1, m + 1), INF)
    length = np.zeros((n + 1, m + 1), dtype=int)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        xi = x[i - 1]
        for j in range(1, m + 1):
            local = abs(xi - y[j - 1])
            best_c, best_l = cost[i - 1, j - 1], length[i - 1, j - 1]
            if (cost[i - 1, j], length[i - 1, j]) < (best_c, best_l):
                best_c, best_l = cost[i - 1, j], length[i - 1, j]
            if (cost[i, j - 1], length[i, j - 1]) < (best_c, best_l):
                best_c, best_l = cost[i, j - 1], length[i, j - 1]
            cost[i, j] = local + best_c
            length[i, j] = 1 + best_l
    return float(cost[n, m]), int(length[n, m])


def brute_force_align(
    score: NoteSequence, perf: NoteSequence, gap_penalty: float = DEFAULT_GAP_PENALTY
) -> tuple[tuple[float, float], list[tuple[tuple[int, int], ...]]]:
    """Exhaustive optimum over all monotone pitch-preserving matchings.

    Returns the best (score, onset_cost) under the same lexicographic
    objective as align_notes, together with every matching achieving it.
    Exponential; only for short sequences.
    """
    s_notes, p_notes = score.notes, perf.notes
    s_beats = [note.onset_ticks / score.ppq for note in s_notes]
    p_beats = [note.onset_ticks / perf.ppq for note in p_notes]
    n, m = len(s_notes), len(p_notes)

    def matchings(i: int, j: int):
        if i == n or j == m:
            gaps = (n - i) + (m - j)
            yield ((-gap_penalty * gaps, 0.0), ())
            return
        for (b, c), pairs in matchings(i + 1, j):
            yield ((b - gap_penalty, c), pairs)
        for (b, c), pairs in matchings(i, j + 1):
            yield ((b - gap_penalty, c), pairs)
        if s_notes[i].pitch == p_notes[j].pitch:
            d = abs(s_beats[i] - p_beats[j])
            for (b, c), pairs in matchings(i + 1, j + 1):
                yield ((b + 1.0, c + d), ((i, j),) + pairs)

    best_key = None
    optima: set[tuple[tuple[int, int], ...]] = set()
    for (b, c), pairs in matchings(0, 0):
        key = (b, -c)
        if best_key is None or key > best_key:
            best_key = key
            optima = {pairs}
        elif key == best_key:
            optima.add(pairs)
    assert best_key is not None
    return (best_key[0], -best_key[1]), sorted(optima)


def alignment_objective(
    score: NoteSequence,
    perf: NoteSequence,
    alignment: AlignmentMap,
    gap_penalty: float = DEFAULT_GAP_PENALTY,
) -> tuple[float, float]:
    """(score, onset_cost) achieved by a given alignment."""
    total = len(alignment.unmatched_score) + len(alignment.unmatched_perf)
    onset_cost = sum(
        abs(score.notes[i].onset_ticks / score.ppq - perf.notes[j].onset_ticks / perf.ppq)
        for i, j in alignment.pairs
    )
    return (len(alignment.pairs) - gap_penalty * total, onset_cost)


def scalar_render_audio(seq: NoteSequence, sample_rate: int) -> Waveform:
    """Additive synthesis one note at a time, every partial computed per note."""
    times = _note_times(seq)
    if not times:
        return Waveform(np.zeros(0), sample_rate)
    total = max(off for _, off, _, _ in times) + RELEASE_SECONDS
    out = np.zeros(int(np.ceil(total * sample_rate)) + 1)
    nyquist = sample_rate / 2
    for onset, offset, pitch, velocity in times:
        start = int(round(onset * sample_rate))
        held = max(offset - onset, 1.0 / sample_rate)
        n_samples = int(round((held + RELEASE_SECONDS) * sample_rate))
        t = np.arange(n_samples) / sample_rate
        f0 = midi_pitch_hz(pitch)
        tone = np.zeros(n_samples)
        amp = velocity / 127.0
        for h in range(1, N_HARMONICS + 1):
            if h * f0 >= nyquist:
                break
            tone += amp * h ** (-HARMONIC_ROLLOFF) * np.sin(2 * np.pi * h * f0 * t)
        tau = DECAY_SECONDS_AT_C4 * 2.0 ** ((60 - pitch) / 24)
        env = np.exp(-t / tau)
        env *= np.minimum(t / ATTACK_SECONDS, 1.0)
        env *= np.clip((held + RELEASE_SECONDS - t) / RELEASE_SECONDS, 0.0, 1.0)
        out[start:start + n_samples] += tone * env
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= PEAK_LEVEL / peak
    return Waveform(out, sample_rate)


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray, nonpad: np.ndarray):
    """(mean CE over non-pad positions, d(loss)/d(logits)), with the
    exponentials taken once for the loss and again inside softmax."""
    n = int(nonpad.sum())
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    picked = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    loss = float(((logz - picked) * nonpad).sum() / n)
    grad = softmax(logits)
    np.put_along_axis(
        grad, targets[..., None],
        np.take_along_axis(grad, targets[..., None], axis=-1) - 1.0, axis=-1,
    )
    grad *= nonpad[..., None] / n
    return loss, grad


def scalar_nucleus_sample_row(
    logits: np.ndarray, temperature: float, top_p: float, rng: np.random.Generator
) -> int:
    """Temperature + nucleus sampling of one row with its own stable sort."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    if temperature < ARGMAX_TEMPERATURE:
        return int(np.argmax(logits))
    probs = softmax(logits / temperature)
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    cut = int(np.searchsorted(cumulative, top_p, side="left"))
    cut = min(cut, len(order) - 1)
    nucleus = order[:cut + 1]
    weights = probs[nucleus]
    weights = weights / weights.sum()
    r = rng.random()
    pick = int(np.searchsorted(np.cumsum(weights), r, side="right"))
    return int(nucleus[min(pick, len(nucleus) - 1)])


def loop_sample(
    dist: OutputDistributions, temperature: float, top_p: float, rng: np.random.Generator
) -> tuple[list[int], list[int], list[int]]:
    """model.sample one row at a time: specials masked, features in order."""
    out = []
    for feature in PREDICTED:
        logits = dist.logits(feature).copy()
        logits[:, :N_SPECIALS] = NEG_MASK
        out.append([scalar_nucleus_sample_row(row, temperature, top_p, rng) for row in logits])
    return out[0], out[1], out[2]
