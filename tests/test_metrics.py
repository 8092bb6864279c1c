import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scalar_dtw_path_cost
from s2a.align import AlignmentMap, align_notes
from s2a.metrics import (
    PREDICTED,
    Aggregate,
    ConstantSequenceError,
    FeatureSeq,
    MetricReport,
    aggregate,
    chroma_mse,
    dtw_path_cost,
    dtw_path_costs,
    dtwd,
    evaluate_m2m,
    kld,
    matched_feature_sequences,
    pearson,
    spectrogram_mse,
)
from s2a import metrics
from s2a.tokenizer import SEGMENT_LEN, VOCAB
from s2a.midi_io import NoteEvent, NoteSequence
from s2a.synth import Chromagram, Spectrogram, chromagram, midi_spectrogram, render_audio


def fseq(values, feature="velocity", vocab_size=68):
    return FeatureSeq(tuple(values), feature, vocab_size)


class TestKld:
    def test_identical_histograms_near_zero(self):
        a = fseq([10, 11, 12, 10])
        assert kld(a, a) < 1e-9

    def test_hand_value_ln2(self):
        # two-bin case: P = (1/2, 1/2), Q = (1, 0) -> KL(Q||P) = ln 2
        pred = fseq([4, 5], vocab_size=6)
        target = fseq([4, 4], vocab_size=6)
        assert kld(pred, target) == pytest.approx(math.log(2), abs=1e-4)

    def test_disjoint_supports_finite(self):
        value = kld(fseq([10, 10]), fseq([40, 40]))
        assert np.isfinite(value)
        assert value > 1.0

    def test_nonnegative_property(self):
        rng = random.Random(4)
        for _ in range(100):
            a = fseq([rng.randrange(4, 68) for _ in range(rng.randrange(1, 30))])
            b = fseq([rng.randrange(4, 68) for _ in range(rng.randrange(1, 30))])
            assert kld(a, b) >= 0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            kld(fseq([]), fseq([10]))

    def test_asymmetric(self):
        pred = fseq([10, 10, 10, 10])
        target = fseq([10, 10, 11, 11])
        assert kld(pred, target) != kld(target, pred)


class TestPearson:
    def test_identity_is_one(self):
        a = fseq([10, 12, 14])
        assert pearson(a, a) == pytest.approx(1.0)

    def test_anticorrelation(self):
        x = fseq([10, 12, 14])
        y = fseq([14, 12, 10])
        assert pearson(x, y) == pytest.approx(-1.0)

    def test_hand_pairs(self):
        x = fseq([5, 6, 7])
        y = fseq([6, 8, 9])
        assert pearson(x, y) == pytest.approx(0.9819, abs=1e-4)

    def test_matches_two_pass_formula(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randrange(2, 40)
            xs = [rng.randrange(4, 68) for _ in range(n)]
            ys = [rng.randrange(4, 68) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            mx = sum(xs) / n
            my = sum(ys) / n
            num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
            den = math.sqrt(sum((a - mx) ** 2 for a in xs) * sum((b - my) ** 2 for b in ys))
            assert pearson(fseq(xs), fseq(ys)) == pytest.approx(num / den, abs=1e-9)

    def test_constant_errors(self):
        with pytest.raises(ConstantSequenceError):
            pearson(fseq([10, 10, 10]), fseq([10, 12, 14]))

    def test_affine_invariance(self):
        x = fseq([10, 20, 15, 30])
        y = fseq([12, 25, 14, 31])
        r = pearson(x, y)
        x2 = fseq([2 * v - 10 for v in x.values], vocab_size=68)
        assert pearson(x2, y) == pytest.approx(r, abs=1e-12)


def brute_force_dtw(x, y):
    """Enumerate every monotone warping path; lexicographic (cost, length)."""
    n, m = len(x), len(y)
    best = None

    def walk(i, j, cost, length):
        nonlocal best
        cost += abs(x[i] - y[j])
        length += 1
        if i == n - 1 and j == m - 1:
            key = (cost, length)
            if best is None or key < best:
                best = key
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost, length)
        if i + 1 < n:
            walk(i + 1, j, cost, length)
        if j + 1 < m:
            walk(i, j + 1, cost, length)

    walk(0, 0, 0.0, 0)
    return best


class TestDtwd:
    def test_identity_zero(self):
        a = fseq([10, 12, 14, 10])
        assert dtwd(a, a) == 0.0

    def test_constant_shift(self):
        x = [10, 14, 12, 18, 11]
        c = 3
        a = fseq(x)
        b = fseq([v + c for v in x])
        assert dtwd(a, b) == pytest.approx(c / 68)

    def test_matches_brute_force_all_short_pairs(self):
        alphabet = [4, 5, 6, 7, 8]
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randrange(1, 7)
            m = rng.randrange(1, 7)
            x = [rng.choice(alphabet) for _ in range(n)]
            y = [rng.choice(alphabet) for _ in range(m)]
            cost, length = dtw_path_cost([float(v) for v in x], [float(v) for v in y])
            assert (cost, length) == brute_force_dtw(x, y)

    def test_symmetry(self):
        rng = random.Random(13)
        for _ in range(50):
            x = fseq([rng.randrange(4, 68) for _ in range(rng.randrange(1, 10))])
            y = fseq([rng.randrange(4, 68) for _ in range(rng.randrange(1, 10))])
            assert dtwd(x, y) == pytest.approx(dtwd(y, x), abs=1e-12)


@st.composite
def dtw_inputs(draw):
    """Two token sequences of lengths 1..300; small alphabets make ties common."""
    alphabet = draw(st.sampled_from([(4, 5), (4, 5, 6), tuple(range(4, 68))]))
    x, y = (
        draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))
        for size in (draw(st.integers(1, 300)), draw(st.integers(1, 300)))
    )
    return [float(v) for v in x], [float(v) for v in y]


class TestWavefrontDtw:
    @settings(max_examples=60, deadline=None)
    @given(dtw_inputs())
    def test_equals_scalar_oracle(self, xy):
        x, y = xy
        assert dtw_path_cost(x, y) == scalar_dtw_path_cost(x, y)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 300), (300, 1), (300, 300), (2, 299), (257, 40)])
    def test_extreme_lengths_equal_oracle(self, n, m):
        rng = random.Random(n * 1000 + m)
        x = [float(rng.choice((4, 5))) for _ in range(n)]
        y = [float(rng.choice((4, 5, 6))) for _ in range(m)]
        assert dtw_path_cost(x, y) == scalar_dtw_path_cost(x, y)

    def test_empty_inputs_equal_oracle(self):
        for x, y in (([], []), ([], [4.0]), ([4.0, 5.0], [])):
            assert dtw_path_cost(x, y) == scalar_dtw_path_cost(x, y)

    def test_non_integer_costs_bit_identical(self):
        rng = random.Random(14)
        x = [rng.random() for _ in range(90)]
        y = [rng.random() for _ in range(70)]
        assert dtw_path_cost(x, y) == scalar_dtw_path_cost(x, y)


@st.composite
def dtw_batches(draw):
    """F row pairs of lengths n and m (1..40 each, n != m allowed) over one
    alphabet, so equal-cost paths are common."""
    alphabet = draw(st.sampled_from([(4, 5), (4, 5, 6), tuple(range(4, 68))]))
    n_rows, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 40))

    def rows(size):
        return [[float(v) for v in draw(st.lists(st.sampled_from(alphabet),
                                                  min_size=size, max_size=size))]
                for _ in range(n_rows)]

    return rows(n), rows(m)


class TestBatchedDtw:
    @settings(max_examples=80, deadline=None)
    @given(dtw_batches())
    def test_every_row_equals_scalar_oracle(self, batch):
        xs, ys = batch
        assert dtw_path_costs(xs, ys) == [scalar_dtw_path_cost(x, y) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("window, message", [
    (lambda f: (FeatureSeq((), f, VOCAB.size(f)), FeatureSeq((), f, VOCAB.size(f))),
     "item_0000: cannot compute KLD of an empty sequence"),
    (lambda f: (FeatureSeq((4, 5), f, VOCAB.size(f)), FeatureSeq((4, 5), f, VOCAB.size(f) + 1)),
     "item_0000: sequences must share feature and vocabulary"),
], ids=["empty-window", "mismatched-vocabulary"])
def test_window_errors_keep_their_item_label_and_message(monkeypatch, window, message):
    piece = make_piece(random.Random(16), 10)
    monkeypatch.setattr(metrics, "matched_feature_sequences",
                        lambda *_: {f: window(f) for f in PREDICTED})
    with pytest.raises(ValueError) as err:
        evaluate_m2m([(piece, piece, align_notes(piece, piece))], labels=["item_0000"])
    assert str(err.value) == message


class TestMse:
    def test_identical_zero(self):
        c = Chromagram(np.full((4, 12), 1.0 / 12), 10.0)
        assert chroma_mse(c, c) == 0.0

    def test_zero_vs_one(self):
        a = Chromagram(np.zeros((3, 12)), 10.0)
        b = Chromagram(np.ones((3, 12)), 10.0)
        # unnormalized frames are legal inputs for the MSE itself
        assert chroma_mse(a, b) == 1.0

    def test_hand_two_by_two(self):
        a = np.zeros((2, 128))
        b = np.zeros((2, 128))
        a[0, 0], a[1, 1] = 0.0, 1.0
        a[0, 1], a[1, 0] = 1.0, 0.0
        b[:2, :2] = 1.0
        sa = Spectrogram(a, 10.0)
        sb = Spectrogram(b, 10.0)
        # differing cells: four of them at squared error 1 -> 2/(2*128)
        expected = ((1 - 0) ** 2 * 2) / (2 * 128)
        assert spectrogram_mse(sa, sb) == pytest.approx(expected)

    def test_truncates_with_warning(self):
        a = Chromagram(np.zeros((4, 12)), 10.0)
        b = Chromagram(np.zeros((2, 12)), 10.0)
        with pytest.warns(UserWarning):
            assert chroma_mse(a, b) == 0.0

    def test_frame_rate_mismatch(self):
        a = Chromagram(np.zeros((2, 12)), 10.0)
        b = Chromagram(np.zeros((2, 12)), 20.0)
        with pytest.raises(ValueError):
            chroma_mse(a, b)

    def test_zero_overlap_errors(self):
        a = Chromagram(np.zeros((0, 12)), 10.0)
        b = Chromagram(np.zeros((2, 12)), 10.0)
        with pytest.raises(ValueError):
            chroma_mse(a, b)


class TestAggregate:
    def test_equal_values_zero_width(self):
        agg = aggregate([2.0, 2.0, 2.0])
        assert agg.mean == 2.0
        assert agg.ci95 == 0.0

    def test_zero_two(self):
        agg = aggregate([0.0, 2.0])
        assert agg.mean == 1.0
        assert agg.ci95 == pytest.approx(1.96)

    def test_single_value_no_ci(self):
        agg = aggregate([5.0])
        assert agg.mean == 5.0
        assert agg.ci95 is None

    def test_no_values_nan_mean(self):
        agg = aggregate([])
        assert math.isnan(agg.mean)
        assert (agg.ci95, agg.n, agg.n_missing) == (None, 0, 0)


def grid_seq(notes):
    return NoteSequence(ppq=96, notes=tuple(notes))


def make_piece(rng, n):
    notes = []
    onset = 0
    for i in range(n):
        if i > 0:
            onset += rng.choice([0, 24, 48, 96])
        notes.append(
            NoteEvent(onset, rng.randrange(12, 200), rng.randrange(30, 100),
                      rng.randrange(20, 110))
        )
    return grid_seq(notes)


class TestEvaluateM2M:
    def test_perfect_prediction(self):
        rng = random.Random(5)
        pieces = [make_piece(rng, 40) for _ in range(3)]
        triples = []
        for piece in pieces:
            amap = align_notes(piece, piece)
            triples.append((piece, piece, amap))
        report = evaluate_m2m(triples, labels=["a", "b", "c"])
        for feat in ("velocity", "ioi", "duration"):
            row = report.performance_wise[feat]
            assert row["kld"].mean < 1e-9
            assert row["dtwd"].mean == 0.0
            assert row["correlation"].mean == pytest.approx(1.0)

    def test_segment_count_at_least_performance_count(self):
        rng = random.Random(6)
        piece = make_piece(rng, 600)
        amap = align_notes(piece, piece)
        report = evaluate_m2m([(piece, piece, amap)], labels=["x"])
        perf_n = report.performance_wise["velocity"]["kld"].n
        seg_n = report.segment_wise["velocity"]["kld"].n
        assert perf_n == 1
        assert seg_n == 3  # 256 + 256 + 88
        assert seg_n >= perf_n

    def test_constant_sequences_counted_missing(self):
        notes = [NoteEvent(i * 96, 96, 60, 61) for i in range(10)]
        piece = grid_seq(notes)
        amap = align_notes(piece, piece)
        report = evaluate_m2m([(piece, piece, amap)], labels=["x"])
        vel_row = report.performance_wise["velocity"]
        assert vel_row["correlation"].n == 0
        assert vel_row["correlation"].n_missing == 1
        # KLD and DTWD still report
        assert vel_row["kld"].n == 1

    @pytest.mark.parametrize("n_pairs,labels", [(3, ["only"]), (1, ["a", "b", "c"]), (2, [])])
    def test_labels_and_pairs_must_match(self, monkeypatch, n_pairs, labels):
        """A label per pair, checked before any item is scored."""
        piece = make_piece(random.Random(4), 10)

        def never_scored(*_):
            raise AssertionError("an item was scored")

        monkeypatch.setattr(metrics, "_item_row", never_scored)
        with pytest.raises(ValueError, match=f"^{len(labels)} labels for {n_pairs} pairs$"):
            evaluate_m2m([(piece, piece, align_notes(piece, piece))] * n_pairs, labels)

    def test_truncation_warning_names_its_item(self):
        short = grid_seq([NoteEvent(0, 96, 60, 80)])
        long = grid_seq([NoteEvent(0, 960, 60, 80)])
        with pytest.warns(UserWarning) as caught:
            evaluate_m2m([(short, short, align_notes(short, short)),
                          (short, long, align_notes(short, long))], labels=["same", "longer"])
        assert [str(w.message).split(": ")[0] for w in caught] == ["longer", "longer"]


def direct_window_metrics(p, q):
    try:
        correlation = pearson(p, q)
    except ValueError:
        correlation = None
    return kld(p, q), dtwd(p, q), correlation


def test_report_equals_direct_computation_of_every_window():
    # one item of 1 window and one of 3: the whole-sequence result may only
    # stand in for the segment-wise value when the sequence is one window
    rng = random.Random(9)
    triples = []
    for n in (200, 600):
        pairs = tuple((i, i) for i in range(n))
        triples.append((make_piece(rng, n), make_piece(rng, n), AlignmentMap(pairs, (), ())))
    report = evaluate_m2m(triples, labels=["short", "long"])
    for feature in PREDICTED:
        perf, seg = [], []
        for row, (pred, target, amap) in zip(report.items, triples):
            p, q = matched_feature_sequences(pred, target, amap)[feature]
            whole = direct_window_metrics(p, q)
            assert tuple(row[f"{feature}_{m}"] for m in ("kld", "dtwd", "correlation")) == whole
            perf.append(whole)
            for start in range(0, len(p.values), SEGMENT_LEN):
                seg.append(direct_window_metrics(
                    FeatureSeq(p.values[start:start + SEGMENT_LEN], feature, p.vocab_size),
                    FeatureSeq(q.values[start:start + SEGMENT_LEN], feature, q.vocab_size),
                ))
        assert len(seg) == 1 + 3
        for k, metric in enumerate(("kld", "dtwd", "correlation")):
            assert report.performance_wise[feature][metric] == aggregate([v[k] for v in perf])
            assert report.segment_wise[feature][metric] == aggregate([v[k] for v in seg])
    chroma, spec = [], []
    for row, (pred, target, _) in zip(report.items, triples):
        spec_p, spec_t = (midi_spectrogram(render_audio(seq)) for seq in (pred, target))
        spec.append(spectrogram_mse(spec_p, spec_t))
        chroma.append(chroma_mse(chromagram(spec_p), chromagram(spec_t)))
        assert (row["chroma_mse"], row["spectrogram_mse"]) == (chroma[-1], spec[-1])
    assert report.chroma_mse == aggregate(chroma)
    assert report.spectrogram_mse == aggregate(spec)


def test_matched_feature_sequences_requires_grid():
    seq = NoteSequence(ppq=480, notes=(NoteEvent(0, 96, 60, 60),))
    amap = AlignmentMap(pairs=((0, 0),), unmatched_score=(), unmatched_perf=())
    with pytest.raises(ValueError, match="96"):
        matched_feature_sequences(seq, seq, amap)


def test_report_serialization_round_trips_structurally():
    rng = random.Random(7)
    pieces = [make_piece(rng, 50) for _ in range(3)]
    triples = [(p, p, align_notes(p, p)) for p in pieces]
    report = evaluate_m2m(triples, labels=["a", "b", "c"])
    text = report.to_json()
    assert '"performance_wise"' in text
    csv_lines = report.to_csv().splitlines()
    assert csv_lines[0].startswith("item,")
    assert len(csv_lines) == 1 + 3  # one row per item
    table = report.summary_table()
    assert "Inter-Onset Interval" in table


def test_summary_table_splits_back_into_its_cells():
    """Cells of 16 or more characters stay apart from their neighbours."""
    aggs = [Aggregate(12.139, 0.024, 5), Aggregate(-0.061, 0.002, 5), Aggregate(0.254, 0.003, 5),
            Aggregate(1234.5678, 12.3456, 5), Aggregate(1.5, None, 1), Aggregate(math.nan, None, 0)]
    cells = ["12.139 +/- 0.024", "-0.061 +/- 0.002", "0.254 +/- 0.003",
             "1234.568 +/- 12.346", "1.500", "-"]
    metrics = ("kld", "correlation", "dtwd")
    report = MetricReport(
        performance_wise={f: dict(zip(metrics, aggs[:3])) for f in PREDICTED},
        segment_wise={f: dict(zip(metrics, aggs[3:])) for f in PREDICTED},
        chroma_mse=aggs[3], spectrogram_mse=aggs[0], items=[],
    )
    rows = [re.split(r" {2,}", line) for line in report.summary_table().splitlines()]
    assert rows == [
        ["Feature", "KLD (perf)", "Corr (perf)", "DTWD (perf)", "KLD (seg)", "Corr (seg)",
         "DTWD (seg)"],
        ["Velocity", *cells],
        ["Inter-Onset Interval", *cells],
        ["Duration", *cells],
        [""],
        ["Chroma MSE", cells[3]],
        ["Spectrogram MSE", cells[0]],
    ]


def test_report_json_key_order():
    rng = random.Random(8)
    pieces = [make_piece(rng, 20) for _ in range(2)]
    report = evaluate_m2m([(p, p, align_notes(p, p)) for p in pieces], labels=["a", "b"])
    doc = json.loads(report.to_json())
    assert list(doc) == ["performance_wise", "segment_wise", "chroma_mse", "spectrogram_mse",
                         "items"]
    assert list(doc["chroma_mse"]) == ["mean", "ci95", "n", "n_missing"]
