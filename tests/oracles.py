"""Slow reference implementations the fast code in s2a is tested against."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from s2a.align import AlignmentMap
from s2a.midi_io import (
    TICKS_PER_BEAT,
    NoteEvent,
    NoteSequence,
    TimeSignatureEvent,
    resample_grid,
    ticks_to_seconds,
)
from s2a.model import (
    ARGMAX_TEMPERATURE,
    N_SPECIALS,
    PREDICTED,
    M2MModel,
    forward,
)
from s2a.synth import (
    ATTACK_SECONDS,
    DECAY_SECONDS_AT_C4,
    FRAME_LEN,
    HARMONIC_ROLLOFF,
    HOP,
    N_HARMONICS,
    PEAK_LEVEL,
    RELEASE_SECONDS,
    Waveform,
    midi_filterbank,
    midi_pitch_hz,
)
from s2a.tokenizer import (
    PAD,
    PITCH_MAX,
    PITCH_MIN,
    SCORE_VELOCITY,
    SEGMENT_LEN,
    VOCAB,
    TokenTuple,
    detokenize,
    segment,
    tokenize,
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


def _onset_distance(score: NoteSequence, perf: NoteSequence, i: int, j: int) -> Fraction:
    return abs(Fraction(score.notes[i].onset_ticks, score.ppq)
               - Fraction(perf.notes[j].onset_ticks, perf.ppq))


def brute_force_align(
    score: NoteSequence, perf: NoteSequence
) -> tuple[tuple[int, Fraction], list[tuple[tuple[int, int], ...]]]:
    """Exhaustive optimum over all monotone pitch-preserving matchings.

    Returns the best (matches, onset_cost) under the objective of
    align_notes (most matches, then least onset cost), computed exactly in
    Fractions, together with every matching achieving it. Exponential; only
    for short sequences.
    """
    n, m = len(score.notes), len(perf.notes)

    def matchings(i: int, j: int):
        """Each matching of score[i:] to perf[j:] once: note i unmatched, or
        paired with a later performance note of its pitch."""
        if i == n:
            yield ()
            return
        yield from matchings(i + 1, j)
        for k in range(j, m):
            if score.notes[i].pitch == perf.notes[k].pitch:
                for pairs in matchings(i + 1, k + 1):
                    yield ((i, k),) + pairs

    by_key: dict[tuple[int, Fraction], set] = {}
    for pairs in matchings(0, 0):
        cost = sum((_onset_distance(score, perf, i, j) for i, j in pairs), Fraction(0))
        by_key.setdefault((-len(pairs), cost), set()).add(pairs)
    key = min(by_key)
    return (-key[0], key[1]), sorted(by_key[key])


def alignment_objective(
    score: NoteSequence, perf: NoteSequence, alignment: AlignmentMap
) -> tuple[int, Fraction]:
    """(matches, onset_cost) achieved by a given alignment, exactly."""
    cost = sum((_onset_distance(score, perf, i, j) for i, j in alignment.pairs), Fraction(0))
    return (len(alignment.pairs), cost)


def scalar_ticks_to_seconds(seq: NoteSequence, tick: int) -> float:
    """Piecewise-linear conversion of one tick, walking the tempo map from its start."""
    if tick < 0:
        raise ValueError("tick must be >= 0")
    tempi = seq.effective_tempi()
    seconds = 0.0
    for i, ev in enumerate(tempi):
        span_end = tempi[i + 1].tick if i + 1 < len(tempi) else tick
        span_end = min(span_end, tick)
        if span_end > ev.tick:
            seconds += (span_end - ev.tick) / seq.ppq * ev.microseconds_per_quarter / 1e6
        if span_end >= tick:
            break
    return seconds


def scalar_bar_and_position(seq: NoteSequence, onset: int) -> tuple[int, int]:
    """(bar index, ticks since bar start) of one onset, walking the meter map
    from its start."""
    sigs = seq.effective_time_signatures()
    bars_before = 0
    for i, sig in enumerate(sigs):
        bar_len = sig.numerator * seq.ppq * 4 // sig.denominator
        seg_start = sig.tick
        seg_end = sigs[i + 1].tick if i + 1 < len(sigs) else None
        if seg_end is not None and onset >= seg_end:
            # a partial bar before a signature change still counts as a bar
            bars_before += -(-(seg_end - seg_start) // bar_len)
            continue
        return bars_before + (onset - seg_start) // bar_len, (onset - seg_start) % bar_len
    raise AssertionError("unreachable: final segment is open-ended")


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def loop_tokenize(seq: NoteSequence, is_score: bool) -> list[TokenTuple]:
    """tokenizer.tokenize one note at a time, each bar looked up on its own."""
    if seq.ppq != TICKS_PER_BEAT:
        raise ValueError(
            f"sequence must be resampled to {TICKS_PER_BEAT} ticks per beat, got ppq={seq.ppq}"
        )
    out: list[TokenTuple] = []
    prev_onset: int | None = None
    for idx, note in enumerate(seq.notes):
        if not PITCH_MIN <= note.pitch <= PITCH_MAX:
            raise ValueError(
                f"note {idx}: pitch {note.pitch} outside piano range {PITCH_MIN}..{PITCH_MAX}"
            )
        velocity = SCORE_VELOCITY if is_score else note.velocity
        ioi = 0 if prev_onset is None else note.onset_ticks - prev_onset
        bar, position = scalar_bar_and_position(seq, note.onset_ticks)
        out.append(
            TokenTuple(
                pitch_tok=N_SPECIALS + (note.pitch - PITCH_MIN),
                velocity_tok=N_SPECIALS + velocity // 2,
                duration_tok=N_SPECIALS + _clamp(note.duration_ticks, 1, VOCAB.n_values("duration")) - 1,
                ioi_tok=N_SPECIALS + _clamp(ioi, 0, VOCAB.n_values("ioi") - 1),
                position_tok=N_SPECIALS + _clamp(position, 0, VOCAB.n_values("position") - 1),
                bar_tok=N_SPECIALS + _clamp(bar, 0, VOCAB.n_values("bar") - 1),
            )
        )
        prev_onset = note.onset_ticks
    return out


def loop_detokenize(
    pitch_toks: list[int],
    velocity_toks: list[int],
    ioi_toks: list[int],
    duration_toks: list[int],
    time_signatures: tuple[TimeSignatureEvent, ...] = (),
) -> NoteSequence:
    """tokenizer.detokenize one token and one note at a time."""
    lengths = {len(pitch_toks), len(velocity_toks), len(ioi_toks), len(duration_toks)}
    if len(lengths) != 1:
        raise ValueError("token lists must all share one length")
    for name, toks in (
        ("pitch", pitch_toks),
        ("velocity", velocity_toks),
        ("ioi", ioi_toks),
        ("duration", duration_toks),
    ):
        for pos, tok in enumerate(toks):
            if tok < N_SPECIALS:
                raise ValueError(f"special token {tok} in {name} stream at position {pos}")

    notes = []
    onset = 0
    for i in range(len(pitch_toks)):
        if i > 0:
            onset += ioi_toks[i] - N_SPECIALS
        velocity = _clamp((velocity_toks[i] - N_SPECIALS) * 2 + 1, 1, 127)
        notes.append(
            NoteEvent(
                onset_ticks=onset,
                duration_ticks=duration_toks[i] - N_SPECIALS + 1,
                pitch=pitch_toks[i] - N_SPECIALS + PITCH_MIN,
                velocity=velocity,
            )
        )
    return NoteSequence(ppq=TICKS_PER_BEAT, notes=tuple(notes), time_signatures=time_signatures)


def scalar_render_audio(seq: NoteSequence, sample_rate: int) -> Waveform:
    """Additive synthesis one note at a time, every partial computed per note."""
    times = [
        (
            scalar_ticks_to_seconds(seq, n.onset_ticks),
            scalar_ticks_to_seconds(seq, n.offset_ticks),
            n.pitch,
            n.velocity,
        )
        for n in seq.notes
    ]
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


def _render_pitch(pitch: int, members: list, sample_rate: int, mixed: np.ndarray) -> None:
    """Write tone * envelope of each (start, n_samples, at, held, velocity)
    note of one pitch into mixed[at:at + n_samples], with the pitch's own
    time axis and sines at its longest note."""
    n_max = max(n for _, n, _, _, _ in members)
    t = np.arange(n_max) / sample_rate
    f0 = midi_pitch_hz(pitch)
    sines = []
    for h in range(1, N_HARMONICS + 1):
        if h * f0 >= sample_rate / 2:
            break
        sines.append(np.sin(2 * np.pi * h * f0 * t))
    tau = DECAY_SECONDS_AT_C4 * 2.0 ** ((60 - pitch) / 24)
    decay = np.exp(-t / tau)
    attack_len = int(np.ceil(ATTACK_SECONDS * sample_rate)) + 1  # the factor is 1.0 after
    decay[:attack_len] *= np.minimum(t[:attack_len] / ATTACK_SECONDS, 1.0)
    scratch = np.empty(n_max)
    for _, n, at, held, velocity in members:
        amp = velocity / 127.0
        tone = mixed[at:at + n]
        tone.fill(0.0)
        for h, sine in enumerate(sines, start=1):
            tone += np.multiply(amp * h ** (-HARMONIC_ROLLOFF), sine[:n], out=scratch[:n])
        env = scratch[:n]
        env[:] = decay[:n]
        # the release factor is exactly 1.0 up to two samples before note-off
        lo = min(max(int(held * sample_rate) - 2, 0), n)
        env[lo:] *= np.clip((held + RELEASE_SECONDS - t[lo:n]) / RELEASE_SECONDS, 0.0, 1.0)
        tone *= env


def serial_render_audio(seq: NoteSequence, sample_rate: int) -> Waveform:
    """render_audio in one thread with no table shared between pitches: each
    pitch's tables one pitch after another, every note mixed over the whole
    output in note order, and the peak taken from np.abs of the mix."""
    if not seq.notes:
        return Waveform(np.zeros(0), sample_rate)
    onsets = ticks_to_seconds(seq, [n.onset_ticks for n in seq.notes]).tolist()
    offsets = ticks_to_seconds(seq, [n.offset_ticks for n in seq.notes]).tolist()
    out = np.zeros(int(np.ceil((max(offsets) + RELEASE_SECONDS) * sample_rate)) + 1)
    notes = []
    by_pitch: dict[int, list[tuple]] = {}
    at = 0
    for onset, offset, ev in zip(onsets, offsets, seq.notes):
        held = max(offset - onset, 1.0 / sample_rate)
        n_samples = int(round((held + RELEASE_SECONDS) * sample_rate))
        note = (int(round(onset * sample_rate)), n_samples, at, held, ev.velocity)
        notes.append(note)
        by_pitch.setdefault(ev.pitch, []).append(note)
        at += n_samples
    mixed = np.empty(at)
    for pitch, members in by_pitch.items():
        _render_pitch(pitch, members, sample_rate, mixed)
    for start, n_samples, at, _, _ in notes:
        out[start:start + n_samples] += mixed[at:at + n_samples]
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= PEAK_LEVEL / peak
    return Waveform(out, sample_rate)


def whole_array_spectrogram(w: Waveform) -> np.ndarray:
    """Every frame windowed, transformed and filtered in one array at once."""
    samples = w.samples
    if len(samples) < FRAME_LEN:
        samples = np.pad(samples, (0, FRAME_LEN - len(samples)))
    frames = np.lib.stride_tricks.sliding_window_view(samples, FRAME_LEN)[::HOP]
    hann = np.hanning(FRAME_LEN)
    bank = midi_filterbank(w.sample_rate)
    return np.log1p(np.abs(np.fft.rfft(frames * hann, axis=1)) @ bank.T)


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def whole_array_attention(q, k, v, key_mask, scale):
    """model._attention with every [B, H, T, T] step as a new whole array."""
    attn = softmax(q @ k.transpose(0, 1, 3, 2) * scale + key_mask)
    return attn, attn @ v


def whole_array_attention_backward(attn, q, k, v, dctx, scale):
    """model._attention_backward with d(scores) built from four whole arrays."""
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = dscores.transpose(0, 1, 3, 2) @ q * scale
    return dq, dk, dv


def one_thread_split_work(fn, items: list) -> None:
    """parallel.split_work with every item run in order on the calling thread."""
    for item in items:
        fn(item)


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
    """Temperature + nucleus sampling of one row with its own stable sort: the
    first token of the nucleus whose cumulative mass exceeds r times the
    nucleus mass."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    if temperature < ARGMAX_TEMPERATURE:
        return int(np.argmax(logits))
    probs = softmax(logits / temperature)
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    cut = min(int(np.searchsorted(cumulative, top_p, side="left")), len(order) - 1)
    pick = int(np.searchsorted(cumulative, rng.random() * cumulative[cut], side="right"))
    return int(order[min(pick, cut)])


def seed_uniforms(seed: int, rows: int) -> np.ndarray:
    """The [3, rows] uniforms for model.sample that np.random.default_rng(seed)
    gives, drawn as loop_sample draws them: feature by feature, rows in order."""
    return np.random.default_rng(seed).random((len(PREDICTED), rows))


def loop_sample(
    dist: dict[str, np.ndarray], temperature: float, top_p: float, rng: np.random.Generator
) -> tuple[list[int], list[int], list[int]]:
    """model.sample one row at a time over the value columns, features in order."""
    out = []
    for feature in PREDICTED:
        values = dist[feature][:, N_SPECIALS:]
        out.append([N_SPECIALS + scalar_nucleus_sample_row(row, temperature, top_p, rng)
                    for row in values])
    return out[0], out[1], out[2]


def loop_render(
    model: M2MModel, score: NoteSequence, performer_id: int, temperature: float,
    top_p: float, rng: np.random.Generator,
) -> NoteSequence:
    """model.predict_performance one segment after another on the calling
    thread: each segment's forward, then loop_sample drawing from rng."""
    grid = resample_grid(score)
    tokens = tokenize(grid, is_score=True)
    vel: list[int] = []
    ioi: list[int] = []
    dur: list[int] = []
    for seg in segment(tokens, performer_id):
        v, i, d = loop_sample(forward(model, seg), temperature, top_p, rng)
        vel.extend(v[:seg.n_real])
        ioi.extend(i[:seg.n_real])
        dur.extend(d[:seg.n_real])
    pitches = [t.pitch_tok for t in tokens]
    performance = detokenize(pitches, vel, ioi, dur, grid.effective_time_signatures())
    return replace(performance, tempi=grid.tempi)


def tuple_prepare_batch(
    tokens: list[TokenTuple], performer_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """model.prepare_batch(tokenizer.segment(tokens, performer_id)) one tuple at
    a time: each 256-note window is PAD-filled with PAD tuples, its ids are
    stacked tuple by tuple, and its mask is one bool per slot."""
    pad = TokenTuple(PAD, PAD, PAD, PAD, PAD, PAD)
    windows = [tokens[start:start + SEGMENT_LEN] for start in range(0, len(tokens), SEGMENT_LEN)]
    ids = np.zeros((len(windows), SEGMENT_LEN, 6), dtype=np.int64)
    nonpad = np.zeros((len(windows), SEGMENT_LEN), dtype=bool)
    performer = np.zeros(len(windows), dtype=np.int64)
    for i, window in enumerate(windows):
        n_real = len(window)
        ids[i] = [t.as_tuple() for t in window + [pad] * (SEGMENT_LEN - n_real)]
        nonpad[i] = (True,) * n_real + (False,) * (SEGMENT_LEN - n_real)
        performer[i] = performer_id
    return ids, nonpad, performer
