"""Deterministic MIDI-to-audio rendering and time-frequency features.

Additive synthesis stands in for a neural synthesizer: 8 harmonics per note
with a 1/h^1.3 rolloff, pitch-dependent exponential decay, linear attack and
release ramps, and peak normalization; a render may last at most one hour.
Each sine is computed once per distinct 2*pi*h*f0 in a pitch class.
The analysis side provides a 128-bin semitone-spaced (MIDI-scale)
spectrogram over 2048-sample Hann frames at a 512-sample hop, chromagrams,
and 9.6 s segmentation / cross-correlation stitching for audio produced in
fixed-length windows (render_audio has no window, so `s2a synth` uses none).

render_audio and midi_spectrogram share their independent work between the
calling thread and one worker thread, which ends before the call returns.
Each sample and each frame gets the same float operations in the same order
as in one thread, so the bytes are the same at any core count. Every array
as long as a note or a block of frames is allocated before the work is
split, one per thread, so memory use does not depend on how the two
threads interleave.
"""

from __future__ import annotations

import functools
import io
import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .midi_io import NoteSequence, ticks_to_seconds
from .parallel import split_work

DEFAULT_SAMPLE_RATE = 24000
N_HARMONICS = 8
HARMONIC_ROLLOFF = 1.3
DECAY_SECONDS_AT_C4 = 0.8
ATTACK_SECONDS = 0.005
RELEASE_SECONDS = 0.010
PEAK_LEVEL = 0.95
SEGMENT_SECONDS = 9.6
# Above this normalized correlation at the chosen lag, concat_crosscorr fades
# with equal gains: on near-identical material an equal-power fade swells the
# level by up to sqrt(2). At the fade's midpoint the power is off by rho for
# an equal-power fade and by (1 - rho) / 2 for an equal-gain one, which
# break even at rho = 1/3.
EQUAL_GAIN_CORRELATION = 1 / 3
MAX_AUDIO_SECONDS = 3600
# Above 2 * N_HARMONICS * 4,186 Hz, about 67 kHz, no partial of any key is
# lost to Nyquist; the rate field of a WAV header ends at 2**32 - 1.
MAX_SAMPLE_RATE = 192_000

FRAME_LEN = 2048
HOP = 512
SPECTROGRAM_BLOCK = 128


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class _Frames:
    """T x WIDTH float64 matrix of frame_rate frames per second; a subclass
    sets WIDTH."""

    frames: np.ndarray
    frame_rate: float

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.WIDTH:
            raise ValueError(f"{type(self).__name__.lower()} must be T x {self.WIDTH}, "
                             f"got {frames.shape}")
        object.__setattr__(self, "frames", frames)


class Spectrogram(_Frames):
    """T x 128 non-negative matrix, one bin per MIDI pitch."""

    WIDTH = 128


class Chromagram(_Frames):
    """T x 12 pitch-class matrix, rows L1-normalized where voiced."""

    WIDTH = 12


def midi_pitch_hz(pitch: float) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12)


def _plan_pitch_class(pitches: list, sample_rate: int) -> tuple[list, int, int]:
    """(plan, table rows, longest note) of one pitch class's (pitch, notes),
    lowest pitch first. The plan holds (pitch, notes, longest note, tables)
    per pitch, with one (row, key, length) per partial: length is 0 where an
    earlier pitch already left the table in its row.

    Octaves share partials: a sine table is computed once per distinct
    key 2*pi*h*f0, at the longest length any of its pitches needs, into a
    row that is free again after its last pitch.
    """
    keyed = []  # (pitch, notes, longest, keys)
    need, last = {}, {}  # per key: the longest user, the index of the last one
    for i, (pitch, members) in enumerate(pitches):
        n_max = max(n for _, n, _, _, _ in members)
        f0 = midi_pitch_hz(pitch)
        keys = [2 * np.pi * h * f0 for h in range(1, N_HARMONICS + 1) if h * f0 < sample_rate / 2]
        for key in keys:
            need[key] = max(need.get(key, 0), n_max)
            last[key] = i
        keyed.append((pitch, members, n_max, keys))
    plan, row, free, n_rows = [], {}, [], 0
    for i, (pitch, members, n_max, keys) in enumerate(keyed):
        tables = []
        for key in keys:
            length = 0
            if key not in row:
                if not free:
                    free.append(n_rows)
                    n_rows += 1
                row[key], length = free.pop(), need[key]
            tables.append((row[key], key, length))
        free.extend(row[key] for key in keys if last[key] == i)
        plan.append((pitch, members, n_max, tables))
    return plan, n_rows, max(n_max for _, _, n_max, _ in plan)


def _render_pitch_class(plan: list, work: np.ndarray, t: np.ndarray, sample_rate: int,
                        mixed: np.ndarray) -> None:
    """Write tone * envelope of each (start, n_samples, at, held, velocity)
    note of a _plan_pitch_class plan into mixed[at:at + n_samples].

    work holds the plan's sine tables in its first rows and the decay and a
    scratch row in its last two, so nothing as long as a note is allocated
    here. t is the time axis of the longest note.
    """
    decay_row, scratch = work[-2], work[-1]
    attack_len = int(np.ceil(ATTACK_SECONDS * sample_rate)) + 1  # the factor is 1.0 after
    for pitch, members, n_max, tables in plan:
        for row, key, length in tables:
            if length:
                sine = np.multiply(key, t[:length], out=work[row, :length])
                np.sin(sine, out=sine)
        sines = [work[row] for row, _, _ in tables]
        tau = DECAY_SECONDS_AT_C4 * 2.0 ** ((60 - pitch) / 24)
        t_pitch = t[:n_max]
        decay = np.negative(t_pitch, out=decay_row[:n_max])
        np.exp(np.divide(decay, tau, out=decay), out=decay)
        decay[:attack_len] *= np.minimum(t_pitch[:attack_len] / ATTACK_SECONDS, 1.0)
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


def check_sample_rate(sample_rate: int) -> None:
    """ValueError unless sample_rate is an int (not a bool) in 1..MAX_SAMPLE_RATE."""
    if not (type(sample_rate) is int and 0 < sample_rate <= MAX_SAMPLE_RATE):
        raise ValueError(f"sample_rate must be in 1..{MAX_SAMPLE_RATE}, got {sample_rate}")


def render_audio(seq: NoteSequence, sample_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Additive-synthesis rendering of a NoteSequence.

    Per note: harmonics 1..8 at amplitude (velocity/127) * h^-1.3, an
    exponential decay with time constant 0.8 * 2^((60-pitch)/24) seconds, a
    5 ms linear attack and a 10 ms release after note-off. Harmonics at or
    above Nyquist are dropped. The mix is peak-normalized to 0.95.

    The time axis is computed once per call. A sine depends only on the
    scalar 2*pi*h*f0 and the sample index, so it is computed once per
    distinct 2*pi*h*f0 in a pitch class (octaves share bit-equal ones) at
    its longest note; the decay is computed once per pitch. Both are sliced
    per note. Every sample gets the same float operations, in the same
    order, as a note-by-note loop would apply: the attack and release
    factors are exactly 1.0 outside the ranges they are applied over, and
    the notes are mixed into the output in their original order, on the
    calling thread. Pitch classes write disjoint slots of one buffer, so
    they run on two threads without changing a sample. Each thread's
    tables, decay and scratch rows share one array allocated before the
    split.
    ValueError for a sample_rate that is not an int in 1..MAX_SAMPLE_RATE, or
    for a last release that ends past MAX_AUDIO_SECONDS.
    """
    check_sample_rate(sample_rate)
    if not seq.notes:
        return Waveform(np.zeros(0), sample_rate)
    onsets = ticks_to_seconds(seq, [n.onset_ticks for n in seq.notes]).tolist()
    offsets = ticks_to_seconds(seq, [n.offset_ticks for n in seq.notes]).tolist()
    total = max(offsets) + RELEASE_SECONDS
    if total > MAX_AUDIO_SECONDS:
        raise ValueError(f"audio would last {total:.6g} s, past the {MAX_AUDIO_SECONDS} s limit")
    out = np.zeros(int(np.ceil(total * sample_rate)) + 1)
    notes = []  # (start, n_samples, at, held, velocity); at: offset into `mixed`
    by_pitch: dict[int, list[tuple]] = {}
    at = 0
    for onset, offset, ev in zip(onsets, offsets, seq.notes):
        held = max(offset - onset, 1.0 / sample_rate)
        n_samples = int(round((held + RELEASE_SECONDS) * sample_rate))
        note = (int(round(onset * sample_rate)), n_samples, at, held, ev.velocity)
        notes.append(note)
        by_pitch.setdefault(ev.pitch, []).append(note)
        at += n_samples
    mixed = np.empty(at)  # every note's tone * envelope, back to back
    t = np.arange(max(n for _, n, _, _, _ in notes)) / sample_rate
    by_class: dict[int, list[tuple]] = {}
    for pitch in sorted(by_pitch):
        by_class.setdefault(pitch % 12, []).append((pitch, by_pitch[pitch]))
    plans = [_plan_pitch_class(group, sample_rate) for group in by_class.values()]
    # split_work runs plans[::2] on this thread and plans[1::2] on its worker:
    # each side gets one work array, allocated here, sized for its largest plan
    works = [np.empty((max(rows for _, rows, _ in side) + 2, max(n for _, _, n in side)))
             for side in (plans[::2], plans[1::2]) if side]
    split_work(lambda item: _render_pitch_class(*item, t, sample_rate, mixed),
               [(plan, works[i % 2]) for i, (plan, _, _) in enumerate(plans)])
    for start, n_samples, at, _, _ in notes:
        end = min(start + n_samples, len(out))
        out[start:end] += mixed[at:at + end - start]
    peak = max(out.max(), -out.min())
    if peak > 0:
        out *= PEAK_LEVEL / peak
    return Waveform(out, sample_rate)


# ---------------------------------------------------------------------------
# Analysis

@functools.lru_cache(maxsize=8)
def midi_filterbank(sample_rate: int) -> np.ndarray:
    """[128, n_fft_bins] triangular filters, one per MIDI pitch.

    Each triangle peaks at its pitch's center frequency and reaches zero at
    the neighboring semitone centers, so any STFT bin feeds at most two
    adjacent filters. Filters centered at or above Nyquist stay all-zero.
    Built once per sample rate (the last 8 are kept) and read-only.
    """
    n_bins = FRAME_LEN // 2 + 1
    freqs = np.fft.rfftfreq(FRAME_LEN, d=1.0 / sample_rate)
    bank = np.zeros((128, n_bins))
    nyquist = sample_rate / 2
    for m in range(128):
        center = midi_pitch_hz(m)
        if center >= nyquist:
            continue
        lo = midi_pitch_hz(m - 1)
        hi = midi_pitch_hz(m + 1)
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    bank.flags.writeable = False
    return bank


def midi_spectrogram(w: Waveform) -> Spectrogram:
    """Magnitude STFT (FRAME_LEN Hann frames every HOP samples) through the
    semitone filterbank, log(1+x) compressed.

    Frames go through window, rFFT, magnitude, filterbank and log in blocks
    of SPECTROGRAM_BLOCK to 2 * SPECTROGRAM_BLOCK - 1 rows, or as one block
    when there are fewer. Blocks alternate between the calling thread and
    one worker, each with work arrays allocated before the split, so memory
    is two blocks plus the result at any length. No block is shorter: BLAS
    rounds a product of fewer than 8 rows differently from the same rows
    inside a taller one, and the output must not depend on where a block
    ends.
    """
    if len(w.samples) == 0:
        return Spectrogram(np.zeros((0, 128)), w.sample_rate / HOP)
    samples = w.samples
    if len(samples) < FRAME_LEN:
        samples = np.pad(samples, (0, FRAME_LEN - len(samples)))
    frames = np.lib.stride_tricks.sliding_window_view(samples, FRAME_LEN)[::HOP]
    window = np.hanning(FRAME_LEN)
    bank_t = midi_filterbank(w.sample_rate).T
    out = np.empty((len(frames), 128))
    n_blocks = max(1, len(frames) // SPECTROGRAM_BLOCK)
    blocks = list(zip(np.array_split(frames, n_blocks), np.array_split(out, n_blocks)))
    rows, n_bins = len(blocks[0][0]), FRAME_LEN // 2 + 1  # the first block is a longest one
    # split_work runs blocks[::2] on this thread and blocks[1::2] on its
    # worker: each side gets its own work arrays, allocated here
    works = [(np.empty((rows, FRAME_LEN)), np.empty((rows, n_bins), complex),
              np.empty((rows, n_bins))) for _ in blocks[:2]]

    def fill(item):
        (block, dest), (windowed, spectrum, magnitude) = item
        k = len(block)
        np.multiply(block, window, out=windowed[:k])
        np.fft.rfft(windowed[:k], axis=1, out=spectrum[:k])
        np.log1p(np.abs(spectrum[:k], out=magnitude[:k]) @ bank_t, out=dest)

    split_work(fill, [(block, works[i % 2]) for i, block in enumerate(blocks)])
    return Spectrogram(out, w.sample_rate / HOP)


def chromagram(s: Spectrogram) -> Chromagram:
    """Fold the 128 pitch bins into 12 pitch classes and L1-normalize frames."""
    chroma = np.zeros((s.frames.shape[0], 12))
    for c in range(12):
        chroma[:, c] = s.frames[:, c::12].sum(axis=1)
    totals = chroma.sum(axis=1, keepdims=True)
    voiced = totals[:, 0] > 0
    chroma[voiced] /= totals[voiced]
    return Chromagram(chroma, s.frame_rate)


# ---------------------------------------------------------------------------
# Segmentation and stitching

def _whole_samples(seconds: float, sample_rate: int) -> int:
    """seconds rounded to whole samples; ValueError for NaN or infinity."""
    try:
        return int(round(seconds * sample_rate))
    except (ValueError, OverflowError):
        raise ValueError(f"{seconds} s is no finite count of whole samples") from None


def segment_audio(
    w: Waveform, seg_seconds: float = SEGMENT_SECONDS, overlap_seconds: float = 0.0
) -> list[Waveform]:
    """Cut into seg_seconds windows whose consecutive members share
    overlap_seconds of material; the last window may be shorter, and an
    empty waveform gives one empty window. Both lengths are rounded to whole
    samples; ValueError unless they are finite and 0 <= overlap < window."""
    seg = _whole_samples(seg_seconds, w.sample_rate)
    overlap = _whole_samples(overlap_seconds, w.sample_rate)
    if not 0 <= overlap < seg:
        raise ValueError(f"need 0 <= overlap < segment length in whole samples, "
                         f"got {overlap} and {seg}")
    n = len(w.samples)
    return [Waveform(w.samples[start:start + seg].copy(), w.sample_rate)
            for start in range(0, max(n - overlap, 1), seg - overlap)]


@dataclass(frozen=True)
class StitchResult:
    waveform: Waveform
    lag: int  # samples; negative means b starts earlier than nominal
    fallback: bool  # True when inputs were too short for correlation


def concat_crosscorr(
    a: Waveform,
    b: Waveform,
    max_lag_seconds: float = 0.05,
    fade_seconds: float = 0.02,
    overlap_seconds: float | None = None,
) -> StitchResult:
    """Join two segments at the cross-correlation-optimal point.

    Every length is rounded to whole samples. The last overlap_seconds of `a`
    (default max_lag + fade, at least one fade) nominally coincide with the
    head of `b`. Of the lags in [-max_lag, +max_lag] that leave at least one
    fade of overlap, the one maximizing normalized cross-correlation between
    those windows is taken (ties: smallest |lag|, negative first), then a
    crossfade of fade_seconds is applied at the join: equal-gain when that
    correlation exceeds EQUAL_GAIN_CORRELATION, equal-power otherwise. An `a`
    shorter than the window or a `b` shorter than window + max_lag gets a
    plain faded butt-join at lag 0 (fallback). ValueError for a non-finite
    length, a negative fade or max lag, unequal sample rates, or a segment
    shorter than one fade.
    """
    if a.sample_rate != b.sample_rate:
        raise ValueError("sample rates must match")
    sr = a.sample_rate
    fade = _whole_samples(fade_seconds, sr)
    max_lag = _whole_samples(max_lag_seconds, sr)
    if fade < 0 or max_lag < 0:
        raise ValueError(f"fade and max lag must be >= 0 whole samples, got {fade} and {max_lag}")
    if len(a.samples) < fade or len(b.samples) < fade:
        raise ValueError("both segments must be at least one fade long")
    if overlap_seconds is None:
        overlap_seconds = max_lag_seconds + fade_seconds
    window = _whole_samples(overlap_seconds, sr)
    window = max(window, fade)

    if len(a.samples) < window or len(b.samples) < window + max_lag:
        joined = _crossfade_join(a.samples, b.samples, fade)
        return StitchResult(Waveform(joined, sr), 0, True)

    tail = a.samples[len(a.samples) - window:]  # [-window:] would be all of a at window 0
    best_lag = 0
    best_score = -np.inf
    # sorted() is stable, so of two lags of equal |lag| the negative comes first
    for lag in sorted(range(max(-max_lag, fade - window), max_lag + 1), key=abs):
        t0 = max(0, -lag)
        x = tail[t0:]
        y = b.samples[t0 + lag:window + lag]
        denom = np.sqrt(np.dot(x, x) * np.dot(y, y))
        score = float(np.dot(x, y) / denom) if denom > 0 else -1.0
        if score > best_score:
            best_score = score
            best_lag = lag

    join = window + best_lag  # b's sample that continues a's last one
    equal_gain = best_score > EQUAL_GAIN_CORRELATION
    joined = _crossfade_join(a.samples, b.samples[join - fade:], fade, equal_gain)
    return StitchResult(Waveform(joined, sr), best_lag, False)


def _crossfade_join(
    a: np.ndarray, b: np.ndarray, fade: int, equal_gain: bool = False
) -> np.ndarray:
    if fade == 0:
        return np.concatenate([a, b])
    ramp = (np.arange(fade) + 0.5) / fade
    if equal_gain:
        faded = a[-fade:] + ramp * (b[:fade] - a[-fade:])
    else:
        theta = ramp * (np.pi / 2)
        faded = a[-fade:] * np.cos(theta) + b[:fade] * np.sin(theta)
    return np.concatenate([a[:-fade], faded, b[fade:]])


def stitch_segments(
    segments: list[Waveform],
    max_lag_seconds: float = 0.05,
    fade_seconds: float = 0.02,
    overlap_seconds: float | None = None,
) -> Waveform:
    """Fold concat_crosscorr over a segment list in order."""
    if not segments:
        raise ValueError("no segments to stitch")
    out = segments[0]
    for nxt in segments[1:]:
        out = concat_crosscorr(out, nxt, max_lag_seconds, fade_seconds, overlap_seconds).waveform
    return out


# ---------------------------------------------------------------------------
# File I/O

def write_wav(w: Waveform) -> bytes:
    """16-bit PCM mono RIFF bytes."""
    pcm = np.clip(w.samples, -1.0, 1.0)
    pcm *= 32767.0
    ints = np.round(pcm, out=pcm).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(w.sample_rate)
        wf.writeframes(ints.tobytes())
    return buf.getvalue()


def read_wav(data: bytes) -> Waveform:
    with wave.open(io.BytesIO(data), "rb") as wf:
        if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
            raise ValueError("only 16-bit mono WAV is supported")
        raw = wf.readframes(wf.getnframes())
        rate = wf.getframerate()
    ints = np.frombuffer(raw, dtype="<i2")
    return Waveform(ints.astype(np.float64) / 32767.0, rate)


def save_matrix(frames: np.ndarray, frame_rate: float, kind: str, path_base: str) -> None:
    """Raw float32 matrix with a JSON sidecar describing shape and rate."""
    Path(path_base + ".f32").write_bytes(np.ascontiguousarray(frames, dtype="<f4").tobytes())
    Path(path_base + ".json").write_text(
        json.dumps({"kind": kind, "shape": list(frames.shape), "frame_rate": frame_rate})
    )


def load_matrix(path_base: str) -> tuple[np.ndarray, float, str]:
    """(frames, frame_rate, kind) from a save_matrix pair."""
    meta = json.loads(Path(path_base + ".json").read_text())
    raw = np.frombuffer(Path(path_base + ".f32").read_bytes(), dtype="<f4")
    frames = raw.reshape(tuple(meta["shape"])).astype(np.float64)
    return frames, float(meta["frame_rate"]), str(meta["kind"])
