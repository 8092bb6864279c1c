"""The four closed-loop workloads, one per CLI stage that does real work.

Constructing a workload is its set-up: it writes every input from the seed
under its own directory, so the program only ever sees generated files.
``run(i)`` is the timed op; ``check(i)`` then inspects what the op left
behind, untimed. Op ``i`` uses input ``i % cycle``, so every run replays the
same op sequence.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from s2a import cli, corpus, trainer
from s2a.align import AlignmentMap
from s2a.checkpoint import save_checkpoint
from s2a.midi_io import parse_smf, resample_grid, write_smf
from s2a.model import HEAD_KEYS, PREDICTED, M2MConfig, M2MModel, init_model
from s2a.tokenizer import tokenize

CORPUS_PIECES = 8
CORPUS_NOTES = 200
CORPUS_PERFORMERS = 2
TRAIN_SEGMENTS = 8
RENDER_NOTES = 640
RENDER_SCORES = 4
# Pseudo-count added to every value token before taking log frequencies for
# the render checkpoint's head biases; keeps unseen values finite.
PRIOR_PSEUDO_COUNT = 0.5


@dataclass
class OpResult:
    work: float  # in the workload's unit of work
    sha256: dict[str, str] = field(default_factory=dict)  # output file -> digest
    values: dict[str, float] = field(default_factory=dict)  # compared to the reference
    problems: list[str] = field(default_factory=list)  # any entry fails the op


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_corpus(root: Path, seed: int) -> tuple[Path, dict]:
    """The default demo corpus (what `s2a demo-data` writes) for this seed."""
    spec = corpus.SyntheticCorpusSpec(
        n_pieces=CORPUS_PIECES, notes_per_piece=CORPUS_NOTES,
        n_performers=CORPUS_PERFORMERS, seed=seed,
    )
    out = root / "corpus"
    return out, corpus.generate_corpus(spec, out)


def read_grid(path: Path):
    return resample_grid(parse_smf(path.read_bytes()))


def run_cli(argv: list[str]) -> None:
    """One in-process `s2a` invocation; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # evaluate warns on each length mismatch
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"s2a {argv[0]} exited with {code}")


class Train:
    """One `s2a.trainer.train` epoch over 8 aligned segments: 2 steps of
    B=4 at the `s2a train` defaults, from the same seeded weights each op."""

    name = "train"
    work_unit = "segments"
    cycle = 1

    def __init__(self, root: Path, seed: int):
        corpus_dir, manifest = make_corpus(root, seed)
        dataset = []
        for item in manifest["items"]:
            if item["split"] != "train":
                continue
            amap = AlignmentMap.from_json((corpus_dir / item["alignment"]).read_text())
            dataset.extend(corpus.build_training_pairs(
                read_grid(corpus_dir / item["score"]),
                read_grid(corpus_dir / item["performance"]),
                amap, item["performer_id"],
            ))
        self.dataset = dataset[:TRAIN_SEGMENTS]
        model_cfg = M2MConfig(n_layers=2, d_model=64, n_heads=4, d_ff=256, dropout=0.1,
                              n_performers=manifest["n_performers"], seed=seed)
        self.train_cfg = trainer.TrainConfig(
            learning_rate=2e-5, warmup_steps=40, max_epochs=1, batch_size=4,
            alpha=1.5, seed=seed, gradnorm_lr=0.025,
        )
        self.initial = init_model(model_cfg)
        self.first_log: str | None = None
        self.last = None

    def run(self, i: int) -> None:
        model = M2MModel(self.initial.config,
                         {k: v.copy() for k, v in self.initial.params.items()},
                         self.initial.pos_encoding)
        self.last = trainer.train(model, self.dataset, self.train_cfg)

    def check(self, i: int) -> OpResult:
        model, log = self.last
        csv_text = log.to_csv()
        result = OpResult(
            work=len(self.dataset),
            sha256={"model.ckpt": sha256(save_checkpoint(model)),
                    "model.log.csv": sha256(csv_text.encode())},
        )
        for r in log.records:
            for key in ("loss_vel", "loss_ioi", "loss_dur", "total"):
                value = getattr(r, key)
                result.values[f"step{r.step}.{key}"] = value
                if not math.isfinite(value):
                    result.problems.append(f"non-finite {key} at step {r.step}")
        if self.first_log is None:
            self.first_log = csv_text
        elif csv_text != self.first_log:
            result.problems.append("training log differs from the first op's")
        return result


class Render:
    """One `s2a render` of a 640-note score (3 segments: 256, 256, 128 notes)
    with a log-frequency prior checkpoint, temperature 1.0, top-p 0.9."""

    name = "render"
    work_unit = "notes"
    cycle = RENDER_SCORES

    def __init__(self, root: Path, seed: int):
        corpus_dir, manifest = make_corpus(root, seed)
        work = root / "render"
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, RENDER_NOTES])
        self.scores = []
        for k in range(RENDER_SCORES):
            path = work / f"score_{k}.mid"
            path.write_bytes(write_smf(corpus.generate_score(rng, RENDER_NOTES)))
            self.scores.append(path)
        self.checkpoint = work / "prior.ckpt"
        self.checkpoint.write_bytes(save_checkpoint(prior_model(corpus_dir, manifest, seed)))
        self.out = work / "out.mid"

    def run(self, i: int) -> None:
        run_cli(["render", "--score", str(self.scores[i % self.cycle]),
                 "--checkpoint", str(self.checkpoint), "--performer-id", str(i % 2),
                 "--out", str(self.out), "--temperature", "1.0", "--top-p", "0.9",
                 "--seed", str(i % self.cycle)])

    def check(self, i: int) -> OpResult:
        data = self.out.read_bytes()
        score = read_grid(self.scores[i % self.cycle])
        result = OpResult(work=len(score.notes), sha256={"out.mid": sha256(data)})
        try:
            perf = parse_smf(data)
        except ValueError as err:
            result.problems.append(f"rendered MIDI does not parse: {err}")
            return result
        if len(perf.notes) != len(score.notes):
            result.problems.append(f"{len(perf.notes)} notes rendered, score has {len(score.notes)}")
        elif not same_pitch_sequence(perf.notes, [n.pitch for n in score.notes]):
            result.problems.append("rendered pitch sequence differs from the score's")
        return result


def same_pitch_sequence(rendered, score_pitches: list[int]) -> bool:
    """Whether rendered notes carry the score's pitches in score order.

    A NoteSequence sorts notes by (onset, pitch), so wherever the rendering
    gives several notes one onset they read in pitch order: each such group
    is compared with the same stretch of the score as a sorted run.
    """
    start = 0
    while start < len(rendered):
        end = start
        while end < len(rendered) and rendered[end].onset_ticks == rendered[start].onset_ticks:
            end += 1
        if [n.pitch for n in rendered[start:end]] != sorted(score_pitches[start:end]):
            return False
        start = end
    return len(rendered) == len(score_pitches)


def prior_model(corpus_dir: Path, manifest: dict, seed: int) -> M2MModel:
    """Seeded init weights with each head's bias set to the log frequency of
    its token values over the corpus performances; no training."""
    model = init_model(M2MConfig(n_performers=manifest["n_performers"], seed=seed))
    tokens = []
    for item in manifest["items"]:
        tokens.extend(t.as_tuple() for t in
                      tokenize(read_grid(corpus_dir / item["performance"]), is_score=False))
    ids = np.array(tokens, dtype=np.int64)
    for feature in PREDICTED:
        size = model.config.vocab.size(feature)
        counts = np.bincount(ids[:, trainer.FEATURE_COLUMN[feature]], minlength=size)
        freq = (counts + PRIOR_PSEUDO_COUNT) / (counts.sum() + PRIOR_PSEUDO_COUNT * size)
        model.params[HEAD_KEYS[feature] + "_b"] = np.log(freq)
    return model


class Synth:
    """One `s2a synth --dump-features` of a reference performance (70-81 s of
    audio, segmented at 9.6 s and stitched back)."""

    name = "synth"
    work_unit = "audio_s"
    cycle = CORPUS_PIECES * CORPUS_PERFORMERS

    def __init__(self, root: Path, seed: int):
        corpus_dir, manifest = make_corpus(root, seed)
        self.performances = [corpus_dir / item["performance"] for item in manifest["items"]]
        work = root / "synth"
        work.mkdir(parents=True, exist_ok=True)
        self.out = work / "out.wav"
        self.base = work / "out"

    def run(self, i: int) -> None:
        run_cli(["synth", "--in", str(self.performances[i % self.cycle]),
                 "--out", str(self.out), "--dump-features"])

    def check(self, i: int) -> OpResult:
        files = [self.out] + [Path(f"{self.base}.{kind}.{ext}")
                              for kind in ("spec", "chroma") for ext in ("f32", "json")]
        result = OpResult(work=0.0, sha256={p.name: sha256(p.read_bytes()) for p in files})
        with wave.open(str(self.out), "rb") as wf:
            shape = (wf.getnchannels(), wf.getsampwidth(), wf.getframerate())
            if shape != (1, 2, 24000):
                result.problems.append(f"WAV is (channels, bytes, rate) {shape}, not (1, 2, 24000)")
            result.work = wf.getnframes() / wf.getframerate()
        for kind, columns in (("spec", 128), ("chroma", 12)):
            meta = json.loads(Path(f"{self.base}.{kind}.json").read_text())
            n_bytes = Path(f"{self.base}.{kind}.f32").stat().st_size
            rows = meta["shape"][0]
            if meta["shape"][1:] != [columns] or n_bytes != rows * columns * 4:
                result.problems.append(f"{kind} sidecar is {meta['shape']} over {n_bytes} bytes, "
                                       f"not T x {columns}")
        return result


class Evaluate:
    """One `s2a evaluate` over a one-item directory pair: performer 1's
    performance of a piece against performer 0's, aligned by `align_notes`."""

    name = "evaluate"
    work_unit = "notes"
    cycle = CORPUS_PIECES

    def __init__(self, root: Path, seed: int):
        corpus_dir, manifest = make_corpus(root, seed)
        work = root / "evaluate"
        self.pairs = []
        by_key = {(it["piece"], it["performer_id"]): it for it in manifest["items"]}
        for piece in range(CORPUS_PIECES):
            dirs = []
            for side, performer in (("pred", 1), ("target", 0)):
                d = work / f"{side}_{piece}"
                d.mkdir(parents=True, exist_ok=True)
                src = corpus_dir / by_key[(piece, performer)]["performance"]
                (d / f"piece_{piece:03d}.mid").write_bytes(src.read_bytes())
                dirs.append(d)
            self.pairs.append(tuple(dirs))
        self.out = work / "report"

    def run(self, i: int) -> None:
        pred, target = self.pairs[i % self.cycle]
        run_cli(["evaluate", "--pred", str(pred), "--target", str(target),
                 "--out-dir", str(self.out)])

    def check(self, i: int) -> OpResult:
        _, target = self.pairs[i % self.cycle]
        n_notes = sum(len(parse_smf(p.read_bytes()).notes) for p in target.glob("*.mid"))
        names = ("report.json", "report.csv", "summary.txt")
        result = OpResult(work=n_notes,
                          sha256={n: sha256((self.out / n).read_bytes()) for n in names})
        result.values = flatten(json.loads((self.out / "report.json").read_text()))
        return result


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON value keyed by their dotted path."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {prefix: float(obj)}
    else:
        return {}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


WORKLOADS = {w.name: w for w in (Train, Render, Synth, Evaluate)}
