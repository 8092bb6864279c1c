import sys

import pytest

import spans
import workloads  # noqa: F401  (imports every s2a module the ops use)


def span(name, start, end, parent):
    return spans.Span(name, start, end, parent, op=0)


def test_self_time_subtracts_nested_children_once():
    recorded = [
        span("cli.main", 0.0, 10.0, None),        # 0
        span("synth.render_audio", 1.0, 4.0, 0),  # 1
        span("synth.midi_spectrogram", 5.0, 9.0, 0),  # 2
        span("synth.chromagram", 6.0, 7.0, 2),    # 3: a grandchild of 0
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    recorded = [span("a", 0.0, 10.0, None), span("b", 1.0, 5.0, 0), span("c", 3.0, 6.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(5.0)


def test_layer_metrics_are_per_traced_op():
    tracer = spans.Tracer(n_ops=2)
    tracer.spans = [span("trainer.train", 0.0, 3.0, None),
                    span("model.backward_batch", 0.5, 1.5, 0),
                    span("trainer.train", 4.0, 7.0, None),
                    span("model.backward_batch", 4.5, 5.5, 2)]
    tracer.counters = {"dtwd_distinct_inputs": 3, "dtwd_calls": 9}
    metrics = tracer.metrics({0: 1.0})  # op 0's spans are not rescaled
    assert metrics["trainer.train.self_s_per_op"]["value"] == pytest.approx(2.0)
    assert metrics["model.backward_batch.s_per_op"]["value"] == pytest.approx(1.0)
    assert metrics["model.backward_batch.calls_per_op"]["value"] == 1.0
    assert metrics["metrics.dtwd.distinct_input_ratio"]["value"] == pytest.approx(1 / 3)
    assert metrics["align.align_notes.coverage"]["value"] == 0.0
    assert tracer.metrics({0: 0.5})["model.backward_batch.s_per_op"]["value"] == pytest.approx(0.5)


def s2a_globals():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "s2a" or name.startswith("s2a.")
            for attr, value in vars(module).items()}


def test_a_traced_op_rebinds_names_and_restores_every_one():
    before = s2a_globals()
    tracer = spans.Tracer()
    with tracer.op(0):
        inside = spans.patched_names()
        assert "s2a.trainer.backward_batch" in inside
        assert "s2a.model.sample" in inside
        assert "s2a.metrics.dtwd" in inside
        assert "s2a.cli.render_audio" in inside
        assert len(inside) >= len(spans.TRACED)
    assert spans.patched_names() == []
    after = s2a_globals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_happens_when_the_op_raises():
    with pytest.raises(RuntimeError):
        with spans.Tracer().op(0):
            raise RuntimeError("op failed")
    assert spans.patched_names() == []


def test_full_scale_samples_counts_clipped_pcm():
    from s2a.synth import Waveform, write_wav

    wav = write_wav(Waveform([1.0, -1.0, 0.5, 2.0, -0.999], 24000))
    assert spans.full_scale_samples(wav) == 3
