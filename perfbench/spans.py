"""Spans and counters recorded around the public functions of each s2a layer.

Nothing inside ``src/`` is edited. A traced op rebinds every name under
which an s2a module looks a layer function up (``s2a.trainer.backward_batch``,
``s2a.cli.render_audio``, ...) to a wrapper that records a span, runs the
original, and lets a per-function hook count what the call did. The
originals are put back when the op ends, so untraced ops run unpatched code.

A span holds its name, start, end, the index of its parent span and the op
it belongs to. A layer's self time is its span minus the part of it that
child spans cover.
"""

from __future__ import annotations

import functools
import io
import sys
import time
import wave
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (layer module, function); the span name is "<layer>.<function>".
TRACED = (
    ("cli", "main"),
    ("midi_io", "parse_smf"),
    ("midi_io", "resample_grid"),
    ("midi_io", "write_smf"),
    ("align", "align_notes"),
    ("tokenizer", "tokenize"),
    ("tokenizer", "detokenize"),
    ("checkpoint", "load_checkpoint"),
    ("model", "forward"),
    ("model", "forward_batch"),
    ("model", "backward_batch"),
    ("model", "sample"),
    ("model", "nucleus_sample_row"),
    ("trainer", "train"),
    ("trainer", "cross_entropy"),
    ("trainer", "gradnorm_step"),
    ("synth", "render_audio"),
    ("synth", "midi_spectrogram"),
    ("synth", "chromagram"),
    ("synth", "segment_audio"),
    ("synth", "stitch_segments"),
    ("synth", "concat_crosscorr"),
    ("synth", "write_wav"),
    ("synth", "save_matrix"),
    ("metrics", "evaluate_m2m"),
    ("metrics", "dtwd"),
    ("metrics", "kld"),
    ("metrics", "pearson"),
    ("metrics", "spectrogram_mse"),
)

# Per-layer metrics, in report order: (name, unit, kind). A kind names how
# the value is derived: "s"/"self_s"/"calls" from spans, a counter name for
# counts, or a "ratio:<numerator>/<denominator>" of two counters. Every value
# is per traced op.
LAYER_METRICS = (
    ("model.backward_batch.s_per_op", "s", "s"),
    ("model.backward_batch.calls_per_op", "count", "calls"),
    ("model.forward_batch.s_per_op", "s", "s"),
    ("model.forward_batch.calls_per_op", "count", "calls"),
    ("trainer.cross_entropy.s_per_op", "s", "s"),
    ("trainer.gradnorm_step.s_per_op", "s", "s"),
    ("trainer.train.self_s_per_op", "s", "self_s"),
    ("model.forward.s_per_op", "s", "s"),
    ("model.forward.calls_per_op", "count", "calls"),
    ("model.sample.s_per_op", "s", "s"),
    ("model.nucleus_sample_row.calls_per_op", "count", "calls"),
    ("model.sample.kept_row_ratio", "ratio", "ratio:sample_rows_kept/sample_rows_drawn"),
    ("checkpoint.load_checkpoint.s_per_op", "s", "s"),
    ("tokenizer.tokenize.s_per_op", "s", "s"),
    ("tokenizer.detokenize.s_per_op", "s", "s"),
    ("midi_io.write_smf.s_per_op", "s", "s"),
    ("synth.segment_audio.segments_per_op", "count", "segments"),
    ("synth.stitch_segments.s_per_op", "s", "s"),
    ("synth.concat_crosscorr.s_per_op", "s", "s"),
    ("synth.concat_crosscorr.calls_per_op", "count", "calls"),
    ("synth.concat_crosscorr.fallbacks_per_op", "count", "stitch_fallbacks"),
    ("synth.write_wav.s_per_op", "s", "s"),
    ("synth.full_scale_samples_per_op", "count", "full_scale_samples"),
    ("synth.save_matrix.s_per_op", "s", "s"),
    ("synth.render_audio.s_per_op", "s", "s"),
    ("synth.render_audio.calls_per_op", "count", "calls"),
    ("synth.midi_spectrogram.s_per_op", "s", "s"),
    ("synth.chromagram.s_per_op", "s", "s"),
    ("metrics.dtwd.s_per_op", "s", "s"),
    ("metrics.dtwd.calls_per_op", "count", "calls"),
    ("metrics.dtwd.distinct_input_ratio", "ratio", "ratio:dtwd_distinct_inputs/dtwd_calls"),
    ("align.align_notes.s_per_op", "s", "s"),
    ("align.align_notes.coverage", "ratio", "ratio:aligned_pairs/aligned_target_notes"),
    ("metrics.evaluate_m2m.self_s_per_op", "s", "self_s"),
    ("metrics.kld.s_per_op", "s", "s"),
    ("metrics.pearson.s_per_op", "s", "s"),
    ("metrics.spectrogram_mse.s_per_op", "s", "s"),
    ("midi_io.parse_smf.s_per_op", "s", "s"),
    ("midi_io.resample_grid.s_per_op", "s", "s"),
    ("cli.main.self_s_per_op", "s", "self_s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int


@dataclass
class Tracer:
    """Spans and counters of the traced ops of one run."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    n_ops: int = 0
    _stack: list[int] = field(default_factory=list)
    _op: int = -1
    _written_wavs: list[bytes] = field(default_factory=list)  # counted after the op
    _dtwd_inputs: set = field(default_factory=set)
    _rows_of_dist: dict[int, int] = field(default_factory=dict)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: every layer function is rebound for its duration."""
        self._op = op_id
        rebound = install(self)
        try:
            yield
        finally:
            restore(rebound)
            # decoding a WAV costs milliseconds, so it waits until the op is over
            for data in self._written_wavs:
                self.count("full_scale_samples", full_scale_samples(data))
            self.count("dtwd_distinct_inputs", len(self._dtwd_inputs))
            self._written_wavs.clear()
            self._dtwd_inputs.clear()
            self._rows_of_dist.clear()
            self.n_ops += 1

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self._op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__traced_original__ = fn
        return traced

    def metrics(self, scale_of_op: dict[int, float] | None = None) -> dict[str, dict]:
        """Every LAYER_METRICS entry as {"value", "unit"}, per traced op.

        Span times are multiplied by their op's scale (see hostspeed.py).
        """
        scale_of_op = scale_of_op or {}
        n_ops = max(self.n_ops, 1)
        total: dict[str, float] = {}
        self_total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            factor = scale_of_op.get(span.op, 1.0)
            total[span.name] = total.get(span.name, 0.0) + (span.end - span.start) * factor
            self_total[span.name] = self_total.get(span.name, 0.0) + own * factor
            calls[span.name] = calls.get(span.name, 0) + 1
        out = {}
        for metric, unit, kind in LAYER_METRICS:
            fn_name = metric.rsplit(".", 1)[0]
            if kind == "s":
                value = total.get(fn_name, 0.0) / n_ops
            elif kind == "self_s":
                value = self_total.get(fn_name, 0.0) / n_ops
            elif kind == "calls":
                value = calls.get(fn_name, 0) / n_ops
            elif kind.startswith("ratio:"):
                num, den = kind[len("ratio:"):].split("/")
                den_value = self.counters.get(den, 0)
                value = self.counters.get(num, 0) / den_value if den_value else 0.0
            else:
                value = self.counters.get(kind, 0) / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


# ---------------------------------------------------------------------------
# Rebinding

def _s2a_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "s2a" or name.startswith("s2a."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every module global that refers to a TRACED function.

    Returns (module, attribute, original) triples for restore().
    """
    modules = _s2a_modules()
    rebound = []
    for layer, fn_name in TRACED:
        original = getattr(sys.modules[f"s2a.{layer}"], fn_name)
        wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, original))
    return rebound


def restore(rebound: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(rebound):
        setattr(module, attr, original)


def patched_names() -> list[str]:
    """Module globals that currently hold a tracing wrapper (empty when clean)."""
    return [f"{m.__name__}.{attr}" for m in _s2a_modules()
            for attr, value in vars(m).items() if hasattr(value, "__traced_original__")]


# ---------------------------------------------------------------------------
# Counting hooks: (tracer, positional args, result) -> None

def _on_segment_audio(tracer, args, result):
    tracer.count("segments", len(result))


def _on_concat_crosscorr(tracer, args, result):
    tracer.count("stitch_fallbacks", int(result.fallback))


def full_scale_samples(wav: bytes) -> int:
    """Samples at 16-bit full scale (|x| >= 32767) in a WAV file's bytes."""
    with wave.open(io.BytesIO(wav), "rb") as wf:
        pcm = np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")
    return int(np.count_nonzero(np.abs(pcm.astype(np.int32)) >= 32767))


def _on_write_wav(tracer, args, result):
    tracer._written_wavs.append(result)


def _on_forward(tracer, args, result):
    tracer._rows_of_dist[id(result)] = args[1].n_real


def _on_sample(tracer, args, result):
    n_real = tracer._rows_of_dist.pop(id(args[0]), None)
    drawn = sum(len(rows) for rows in result)
    tracer.count("sample_rows_drawn", drawn)
    tracer.count("sample_rows_kept", drawn if n_real is None else n_real * len(result))


def _on_dtwd(tracer, args, result):
    pred, target = args[0], args[1]
    tracer.count("dtwd_calls")
    tracer._dtwd_inputs.add((pred.feature, pred.values, target.values))


def _on_align_notes(tracer, args, result):
    tracer.count("aligned_pairs", len(result.pairs))
    tracer.count("aligned_target_notes", len(args[1].notes))


HOOKS = {
    "synth.segment_audio": _on_segment_audio,
    "synth.concat_crosscorr": _on_concat_crosscorr,
    "synth.write_wav": _on_write_wav,
    "model.forward": _on_forward,
    "model.sample": _on_sample,
    "metrics.dtwd": _on_dtwd,
    "align.align_notes": _on_align_notes,
}
