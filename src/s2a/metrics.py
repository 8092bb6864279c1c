"""Objective evaluation of rendered performances.

Per-feature metrics over matched note pairs (token-id space): smoothed KL
divergence of value histograms, Pearson correlation, and a dynamic time
warping distance averaged over the warping path and normalized by the
feature's vocabulary size. Audio-side metrics are plain mean square errors
over chromagram and MIDI-spectrogram cells of both sides as the synthesizer
renders them. Aggregation reports means with normal-approximation 95%
confidence intervals.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .align import AlignmentMap
from .midi_io import TICKS_PER_BEAT, NoteSequence
from .synth import Chromagram, Spectrogram, chromagram, midi_spectrogram, render_audio
from .tokenizer import N_SPECIALS, PREDICTED, SEGMENT_LEN, VOCAB, tokenize

KLD_EPSILON = 1e-6


class ConstantSequenceError(ValueError):
    """Raised when correlation is undefined because a sequence is constant."""


@dataclass(frozen=True)
class FeatureSeq:
    """A velocity/ioi/duration value sequence in token-id space."""

    values: tuple[int, ...]
    feature: str
    vocab_size: int

    def __post_init__(self):
        if self.feature not in PREDICTED:
            raise ValueError(f"unknown feature {self.feature!r}")
        for v in self.values:
            if not N_SPECIALS <= v < self.vocab_size:
                raise ValueError(f"value {v} outside token range of {self.feature}")


@dataclass(frozen=True)
class Aggregate:
    mean: float
    ci95: float | None  # half-width; None when n < 2
    n: int
    n_missing: int = 0


ITEM_COLUMNS = (
    "item",
    "velocity_kld", "velocity_correlation", "velocity_dtwd",
    "ioi_kld", "ioi_correlation", "ioi_dtwd",
    "duration_kld", "duration_correlation", "duration_dtwd",
    "chroma_mse", "spectrogram_mse",
)


@dataclass
class MetricReport:
    """Aggregates at two granularities plus per-item metric rows, in the
    order report.json lists them."""

    performance_wise: dict[str, dict[str, Aggregate]]
    segment_wise: dict[str, dict[str, Aggregate]]
    chroma_mse: Aggregate
    spectrogram_mse: Aggregate
    items: list[dict]

    def to_json(self) -> str:
        """Strict JSON: a NaN field (the mean over no values) is written as null."""
        def no_nan(fields):
            return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in fields}

        return json.dumps(asdict(self, dict_factory=no_nan), indent=2, allow_nan=False)

    def to_csv(self) -> str:
        """One row per evaluated item; missing metrics are left blank."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ITEM_COLUMNS)
        for row in self.items:
            writer.writerow(
                [row["item"]]
                + [
                    "" if row.get(col) is None else repr(row[col])
                    for col in ITEM_COLUMNS[1:]
                ]
            )
        return buf.getvalue()

    def summary_table(self) -> str:
        """Text summary shaped like the usual feature-by-metric table."""

        def cell(agg):
            if agg.n == 0:
                return "-"
            if agg.ci95 is None:
                return f"{agg.mean:.3f}"
            return f"{agg.mean:.3f} +/- {agg.ci95:.3f}"

        def row(name, cells):
            # Two spaces before every column keep a cell wider than 16
            # characters apart from its neighbour.
            return f"{name:<22}" + "".join(f"  {c:>16}" for c in cells)

        metrics = ("kld", "correlation", "dtwd")
        lines = [row("Feature", ["KLD (perf)", "Corr (perf)", "DTWD (perf)",
                                 "KLD (seg)", "Corr (seg)", "DTWD (seg)"])]
        names = {"velocity": "Velocity", "ioi": "Inter-Onset Interval", "duration": "Duration"}
        for feat in PREDICTED:
            p = self.performance_wise[feat]
            s = self.segment_wise[feat]
            lines.append(row(names[feat], [cell(p[m]) for m in metrics]
                             + [cell(s[m]) for m in metrics]))
        lines.append("")
        lines.append(row("Chroma MSE", [cell(self.chroma_mse)]))
        lines.append(row("Spectrogram MSE", [cell(self.spectrogram_mse)]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Core metrics

def _check_compatible(pred: FeatureSeq, target: FeatureSeq) -> None:
    if pred.feature != target.feature or pred.vocab_size != target.vocab_size:
        raise ValueError("sequences must share feature and vocabulary")


def kld(pred: FeatureSeq, target: FeatureSeq) -> float:
    """Smoothed KL divergence KL(target || pred) between value-token histograms.

    It measures how surprising the prediction's distribution is with the
    target as reference; swap the arguments for the other direction. Both
    histograms get 1e-6 added to every bin and are renormalized, so disjoint
    supports stay finite.
    """
    _check_compatible(pred, target)
    if not pred.values or not target.values:
        raise ValueError("cannot compute KLD of an empty sequence")
    n_bins = pred.vocab_size - N_SPECIALS
    p = np.bincount([v - N_SPECIALS for v in pred.values], minlength=n_bins).astype(float)
    q = np.bincount([v - N_SPECIALS for v in target.values], minlength=n_bins).astype(float)
    p /= p.sum()
    q /= q.sum()
    p = (p + KLD_EPSILON) / (1.0 + n_bins * KLD_EPSILON)
    q = (q + KLD_EPSILON) / (1.0 + n_bins * KLD_EPSILON)
    return float(np.sum(q * np.log(q / p)))


def pearson(pred: FeatureSeq, target: FeatureSeq) -> float:
    """Sample Pearson correlation of the paired value sequences."""
    _check_compatible(pred, target)
    if len(pred.values) != len(target.values):
        raise ValueError("sequences must have equal length")
    if len(pred.values) < 2:
        raise ValueError("need at least 2 points for correlation")
    x = np.asarray(pred.values, dtype=float)
    y = np.asarray(target.values, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise ConstantSequenceError("undefined correlation for a constant sequence")
    return float(np.dot(dx, dy) / math.sqrt(sx * sy))


def dtwd(pred: FeatureSeq, target: FeatureSeq) -> float:
    """Vocabulary-normalized dynamic time warping distance.

    Classic DTW with |a-b| local cost and steps {(1,0),(0,1),(1,1)}. The
    optimal total cost is divided by the warping path length (ties between
    equal-cost paths resolve to the shortest) and then by the vocabulary
    size. evaluate_m2m gets the same value for all three features of a
    window from one dtw_path_costs call.
    """
    _check_compatible(pred, target)
    if not pred.values or not target.values:
        raise ValueError("cannot compute DTWD of an empty sequence")
    cost, length = dtw_path_cost([float(v) for v in pred.values],
                                 [float(v) for v in target.values])
    return cost / length / pred.vocab_size


def dtw_path_cost(x: list[float], y: list[float]) -> tuple[float, int]:
    """(total cost, path length) of the optimal warping path: dtw_path_costs
    of one row."""
    return dtw_path_costs([x], [y])[0]


def dtw_path_costs(xs, ys) -> list[tuple[float, int]]:
    """(total cost, path length) of the optimal warping path of each row pair
    of xs [F, n] and ys [F, m].

    Minimizes total |a-b| cost; among equal-cost paths, minimizes the number
    of aligned pairs, which makes the value unique. Cells are filled one
    anti-diagonal (i + j = d) at a time, each diagonal of every row in one
    set of array ops. Every cell gets the same local + predecessor sum as a
    row-by-row fill would give it, so each result is bit-identical to one.
    """
    xs = np.asarray(xs, dtype=float)
    ys_rev = np.asarray(ys, dtype=float)[:, ::-1]
    (f, n), m = xs.shape, ys_rev.shape[1]
    # Ring of three diagonals indexed by row i: diagonal d lives in slot d % 3.
    # Cells off the table stay inf; only row 0 (j = d) needs resetting on reuse.
    cost = np.full((3, f, n + 1), np.inf)
    length = np.zeros((3, f, n + 1), dtype=np.int64)
    cost[0, :, 0] = 0.0
    too_long = n + m  # longer than any warping path
    for d in range(1, n + m + 1):
        c0, c1, c2 = cost[d % 3], cost[(d - 1) % 3], cost[(d - 2) % 3]
        l0, l1, l2 = length[d % 3], length[(d - 1) % 3], length[(d - 2) % 3]
        c0[:, 0] = np.inf
        lo, hi = max(1, d - m), min(n, d - 1)
        # predecessors of cells (i, d - i), i in lo..hi: diagonal, up, left
        cd, ld = c2[:, lo - 1:hi], l2[:, lo - 1:hi]
        cu, lu = c1[:, lo - 1:hi], l1[:, lo - 1:hi]
        cl, ll = c1[:, lo:hi + 1], l1[:, lo:hi + 1]
        best = np.minimum(np.minimum(cd, cu), cl)
        shortest = np.minimum(
            np.minimum(np.where(cd == best, ld, too_long), np.where(cu == best, lu, too_long)),
            np.where(cl == best, ll, too_long),
        )
        c0[:, lo:hi + 1] = best + np.abs(xs[:, lo - 1:hi] - ys_rev[:, m - d + lo:m - d + hi + 1])
        l0[:, lo:hi + 1] = shortest + 1
    end = (n + m) % 3
    return list(zip(cost[end, :, n].tolist(), length[end, :, n].tolist()))


def chroma_mse(a: Chromagram, b: Chromagram) -> float:
    return _matrix_mse(a, b)


def spectrogram_mse(a: Spectrogram, b: Spectrogram) -> float:
    return _matrix_mse(a, b)


def _matrix_mse(a: Chromagram | Spectrogram, b: Chromagram | Spectrogram) -> float:
    what = f"{type(a).__name__.lower()}s"
    if a.frame_rate != b.frame_rate:
        raise ValueError(f"{what} must share a frame rate")
    fa, fb = a.frames, b.frames
    n = min(len(fa), len(fb))
    if n == 0:
        raise ValueError(f"no overlapping frames between {what}")
    if len(fa) != len(fb):
        warnings.warn(f"{what} lengths differ ({len(fa)} vs {len(fb)}); truncating to {n}")
    diff = fa[:n] - fb[:n]
    return float(np.mean(diff * diff))


def aggregate(values: list[float]) -> Aggregate:
    """Mean and 1.96 * standard-error 95% CI half-width (n >= 2); the mean is
    NaN when there are no values."""
    n = len(values)
    if n == 0:
        return Aggregate(mean=float("nan"), ci95=None, n=0)
    mean = float(np.mean(values))
    if n < 2:
        return Aggregate(mean=mean, ci95=None, n=n)
    sd = float(np.std(values, ddof=1))
    return Aggregate(mean=mean, ci95=1.96 * sd / math.sqrt(n), n=n)


# ---------------------------------------------------------------------------
# Performance-level evaluation

def matched_feature_sequences(
    pred: NoteSequence, target: NoteSequence, alignment: AlignmentMap
) -> dict[str, tuple[FeatureSeq, FeatureSeq]]:
    """Per-feature (predicted, target) token sequences over matched pairs.

    Both sequences must already be on the 96-tick grid (resample_grid) so
    that alignment indices refer to the order being tokenized. IOIs are
    measured between consecutive matched notes on each side.
    """
    for name, seq in (("pred", pred), ("target", target)):
        if seq.ppq != TICKS_PER_BEAT:
            raise ValueError(f"{name} must be on the 96-tick grid; apply resample_grid first")
    pred_toks = tokenize(pred.subset(i for i, _ in alignment.pairs), is_score=False)
    targ_toks = tokenize(target.subset(j for _, j in alignment.pairs), is_score=False)
    out = {}
    for feature in PREDICTED:
        attr = f"{feature}_tok"
        size = VOCAB.size(feature)
        out[feature] = (
            FeatureSeq(tuple(getattr(t, attr) for t in pred_toks), feature, size),
            FeatureSeq(tuple(getattr(t, attr) for t in targ_toks), feature, size),
        )
    return out


def evaluate_m2m(
    pairs: list[tuple[NoteSequence, NoteSequence, AlignmentMap]],
    labels: list[str],
) -> MetricReport:
    """The report over (predicted, target, alignment) triples: every
    ITEM_COLUMNS column of each item, and their aggregates.

    Feature metrics: performance-wise values use each piece's full matched
    sequence; segment-wise values use consecutive 256-note windows of it
    (final partial window included). Constant sequences make correlation
    undefined and are counted as missing rather than zero. Audio metrics:
    chroma and spectrogram MSE between both sides rendered by render_audio.
    labels names the items, one per pair; ValueError if the counts differ.
    An item that cannot be scored (a side without notes, a matched pitch off
    the piano) raises ValueError naming the item, and the warning that its
    audio lengths differ starts with its label.
    """
    if len(labels) != len(pairs):
        raise ValueError(f"{len(labels)} labels for {len(pairs)} pairs")
    windows = {f: ([], []) for f in PREDICTED}  # (kld, dtwd, correlation) per window
    items = []
    for label, (pred, target, alignment) in zip(labels, pairs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                row = _item_row(pred, target, alignment, windows)
            except ValueError as err:
                raise ValueError(f"{label}: {err}") from err
        for warning in caught:
            warnings.warn(f"{label}: {warning.message}", warning.category, stacklevel=2)
        items.append({"item": label, **row})
    return MetricReport(
        performance_wise={f: _aggregate_row(perf) for f, (perf, _) in windows.items()},
        segment_wise={f: _aggregate_row(seg) for f, (_, seg) in windows.items()},
        chroma_mse=aggregate([row["chroma_mse"] for row in items]),
        spectrogram_mse=aggregate([row["spectrogram_mse"] for row in items]),
        items=items,
    )


def _item_row(pred, target, alignment, windows) -> dict:
    """One item's metric columns; its windows are appended to windows."""
    row = {}
    if alignment.pairs:
        whole = matched_feature_sequences(pred, target, alignment)
        n = len(alignment.pairs)
        metrics = _window_metrics(whole)
        segments = [metrics] if n <= SEGMENT_LEN else [
            _window_metrics({f: (_segment(p, start), _segment(q, start))
                             for f, (p, q) in whole.items()})
            for start in range(0, n, SEGMENT_LEN)
        ]
        for feature in PREDICTED:
            row[f"{feature}_kld"], row[f"{feature}_dtwd"], row[f"{feature}_correlation"] = (
                metrics[feature])
            perf, seg = windows[feature]
            perf.append(metrics[feature])
            seg.extend(window[feature] for window in segments)
    spec_p, spec_t = (midi_spectrogram(render_audio(seq)) for seq in (pred, target))
    row["chroma_mse"] = chroma_mse(chromagram(spec_p), chromagram(spec_t))
    row["spectrogram_mse"] = spectrogram_mse(spec_p, spec_t)
    return row


def _window_metrics(
    window: dict[str, tuple[FeatureSeq, FeatureSeq]]
) -> dict[str, tuple[float, float, float | None]]:
    """(kld, dtwd, correlation) of each feature's (pred, target) pair of one
    window; correlation None when undefined. The features' sequences have
    equal lengths, so their DTWs run as one wavefront; each value is the one
    dtwd gives."""
    pairs = window.values()
    paths = dtw_path_costs([p.values for p, _ in pairs], [q.values for _, q in pairs])
    out = {}
    for (feature, (p, q)), (cost, length) in zip(window.items(), paths):
        try:
            correlation = pearson(p, q)
        except ValueError:
            correlation = None
        out[feature] = (kld(p, q), cost / length / p.vocab_size, correlation)
    return out


def _segment(s: FeatureSeq, start: int) -> FeatureSeq:
    """The SEGMENT_LEN-value window of s from start."""
    return FeatureSeq(s.values[start:start + SEGMENT_LEN], s.feature, s.vocab_size)


def _aggregate_row(windows: list[tuple[float, float, float | None]]) -> dict[str, Aggregate]:
    """kld, correlation and dtwd aggregates; undefined correlations count as missing."""
    correlations = [c for _, _, c in windows if c is not None]
    return {
        "kld": aggregate([k for k, _, _ in windows]),
        "correlation": replace(aggregate(correlations),
                               n_missing=len(windows) - len(correlations)),
        "dtwd": aggregate([d for _, d, _ in windows]),
    }
