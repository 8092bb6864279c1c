"""Pipeline command line: demo-data, tokenize, align, train, render, synth,
evaluate.

Every subcommand is a pure function of its inputs and seeds: rerunning with
the same arguments produces byte-identical outputs. A setting is its flag,
else its `--config` value, else the default of the library code that takes
it and checks its range. Exit codes: 0 success, 1 usage error (a bad flag or
setting), 2 data error, 3 empty evaluation. A data error is a ValueError from
any layer, which is what each documents for bad input, an OSError such as an
unreadable input or an unwritable output, or a MemoryError such as a model
too large to allocate; `main` alone maps all three to exit 2.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .align import AlignmentMap, align_notes
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import evaluate_m2m
from .midi_io import SMFParseError, parse_smf, resample_grid, write_smf
from .model import M2MConfig, check_sampling, init_model, predict_performance
from .synth import (check_sample_rate, chromagram, midi_spectrogram, render_audio, save_matrix,
                    write_wav)
from .tokenizer import dump_tokens, tokenize
from .trainer import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EMPTY = 3

CONFIG_VERSION = 1

# Config section: (the library code that takes its keys, {key: JSON type}).
# A key is also the dest of the flag that sets it.
INT, NUM, NUM_OR_NULL = "integer", "number", "number or null"
SETTINGS = {
    "model": (M2MConfig, dict(n_layers=INT, d_model=INT, n_heads=INT, d_ff=INT, dropout=NUM,
                              seed=INT)),
    "train": (TrainConfig, dict(learning_rate=NUM, warmup_steps=INT, max_epochs=INT,
                                batch_size=INT, alpha=NUM, seed=INT, gradnorm_lr=NUM,
                                early_stop_loss=NUM_OR_NULL)),
    "sampling": (predict_performance, dict(temperature=NUM, top_p=NUM, seed=INT)),
    "synth": (render_audio, dict(sample_rate=INT)),
    "demo_data": (corpus_mod.SyntheticCorpusSpec, dict(pieces=INT, notes=INT, performers=INT,
                                                       seed=INT)),
}
KEYWORDS = {"pieces": "n_pieces", "notes": "notes_per_piece", "performers": "n_performers"}

log = logging.getLogger("s2a")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise UsageError(message)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as err:
        raise ValueError(f"cannot read {path}: {err!r}") from err


def load_config_file(path: str | None) -> dict:
    """The --config document, with its values checked against SETTINGS."""
    if path is None:
        return {}
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} is not a JSON object")
    version = doc.pop("version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version!r}")
    for section, values in doc.items():
        if not (section in SETTINGS and isinstance(values, dict)):
            raise UsageError(f"config: {section!r} is not one of the objects {', '.join(SETTINGS)}")
        for key, value in values.items():
            kind = SETTINGS[section][1].get(key)
            if kind is None:
                raise UsageError(f"config: unknown key {section}.{key}")
            values[key] = _json_value(value, kind, f"config: {section}.{key}")
    return doc


def _json_value(value, kind: str, where: str):
    """value as the JSON type kind, a number as a float; UsageError if it is not one."""
    if value is None and kind == NUM_OR_NULL:
        return None
    if (isinstance(value, bool) or not isinstance(value, int if kind == INT else (int, float))
            or not abs(value) <= sys.float_info.max):  # JSON numbers are finite
        raise UsageError(f"{where} must be a JSON {kind}, got {value!r}")
    return value if kind == INT else float(value)


def resolve(args, config: dict, section: str) -> dict:
    """A section's settings as keyword arguments of the code that takes them."""
    owner, keys = SETTINGS[section]
    defaults = inspect.signature(owner).parameters
    kwargs = {}
    for key in keys:
        keyword = KEYWORDS.get(key, key)
        value = getattr(args, key, None)
        if value is None:
            value = config.get(section, {}).get(key, defaults[keyword].default)
        kwargs[keyword] = value
    return kwargs


def _usage(check, *args, **kwargs):
    """check(*args, **kwargs), with its ValueError as a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from err


def read_midi(path: str | Path):
    try:
        return parse_smf(Path(path).read_bytes())
    except SMFParseError as err:
        raise ValueError(f"{path}: {err}") from err


def read_grid(path: str | Path):
    """The MIDI file at path on the tokenizer grid."""
    return resample_grid(read_midi(path))


def read_alignment(path: str | Path, score, perf) -> AlignmentMap:
    """The alignment JSON at path, checked to hold each note of both once."""
    try:
        amap = AlignmentMap.from_json(Path(path).read_text())
        amap.check_covers(len(score.notes), len(perf.notes))
    except ValueError as err:
        raise ValueError(f"bad alignment {path}: {err!r}") from err
    return amap


# ---------------------------------------------------------------------------
# Subcommands

def cmd_demo_data(args, config) -> int:
    spec = _usage(corpus_mod.SyntheticCorpusSpec, **resolve(args, config, "demo_data"))
    manifest = corpus_mod.generate_corpus(spec, args.out)
    log.info("wrote %d items under %s", len(manifest["items"]), args.out)
    print(f"demo-data: {len(manifest['items'])} performances in {args.out}")
    return EXIT_OK


def cmd_tokenize(args, config) -> int:
    text = dump_tokens(tokenize(read_grid(args.input), is_score=args.as_score))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_align(args, config) -> int:
    amap = align_notes(read_grid(args.score), read_grid(args.performance))
    Path(args.out).write_text(amap.to_json())
    print(
        f"align: {len(amap.pairs)} matched, {len(amap.unmatched_score)} score-only, "
        f"{len(amap.unmatched_perf)} performance-only"
    )
    return EXIT_OK


def _load_manifest(data_dir: Path) -> dict:
    path = data_dir / "manifest.json"
    manifest = _read_json(path)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("items"), list)
            and all(isinstance(item, dict) for item in manifest["items"])
            and type(manifest.get("n_performers")) is int):
        raise ValueError(f"{path}: need an 'items' list of objects and an integer 'n_performers'")
    return manifest


def _dataset_from_manifest(data_dir: Path, manifest: dict, split: str):
    n_performers = manifest["n_performers"]
    pairs = []
    for item in manifest["items"]:
        if split != "all" and item.get("split", "train") != split:
            continue
        try:
            if not (type(item["performer_id"]) is int and 0 <= item["performer_id"] < n_performers):
                raise ValueError(f"performer_id is not an integer in 0..{n_performers - 1}")
            score = read_grid(data_dir / item["score"])
            perf = read_grid(data_dir / item["performance"])
            amap = read_alignment(data_dir / item["alignment"], score, perf)
            pairs.extend(corpus_mod.build_training_pairs(score, perf, amap, item["performer_id"]))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"bad manifest item {item}: {err!r}") from err
    return pairs


def cmd_train(args, config) -> int:
    model_cfg = _usage(M2MConfig, **resolve(args, config, "model"))
    train_cfg = _usage(TrainConfig, **resolve(args, config, "train"))
    data_dir = Path(args.data)
    manifest = _load_manifest(data_dir)
    model_cfg = replace(model_cfg, n_performers=manifest["n_performers"])
    dataset = _dataset_from_manifest(data_dir, manifest, args.split)
    if not dataset:
        raise ValueError(f"no '{args.split}' items in {data_dir}")

    model = init_model(model_cfg)
    try:
        model, training_log = train(model, dataset, train_cfg)
    except (TrainingDivergedError, FloatingPointError) as err:
        raise ValueError(f"training diverged: {err}") from err
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(save_checkpoint(model))
    log_path = out.with_suffix(".log.csv")
    log_path.write_text(training_log.to_csv())
    final = training_log.records[-1].total if training_log.records else float("nan")
    print(
        f"train: {len(dataset)} segments, {len(training_log.records)} steps, "
        f"final loss {final:.4f} -> {out}"
    )
    return EXIT_OK


def cmd_render(args, config) -> int:
    sampling = resolve(args, config, "sampling")
    _usage(check_sampling, sampling["temperature"], sampling["top_p"])
    rng = _usage(np.random.default_rng, sampling["seed"])
    try:
        model = load_checkpoint(Path(args.checkpoint).read_bytes())
    except ValueError as err:
        raise ValueError(f"cannot load checkpoint {args.checkpoint}: {err}") from err
    perf = predict_performance(model, read_midi(args.score), args.performer_id,
                               sampling["temperature"], sampling["top_p"], rng)
    Path(args.out).write_bytes(write_smf(perf))
    log.info("render: %s", sampling)
    print(f"render: {len(perf.notes)} notes -> {args.out}")
    return EXIT_OK


def cmd_synth(args, config) -> int:
    synth = resolve(args, config, "synth")
    _usage(check_sample_rate, **synth)
    seq = read_midi(args.input)
    try:
        audio = render_audio(seq, **synth)
    except ValueError as err:
        raise ValueError(f"{args.input}: {err}") from err
    if len(audio.samples) == 0:
        print("synth: empty MIDI, writing zero-length WAV", file=sys.stderr)
    Path(args.out).write_bytes(write_wav(audio))
    if args.dump_features and len(audio.samples) > 0:
        spec = midi_spectrogram(audio)
        base = str(Path(args.out).with_suffix(""))
        save_matrix(spec.frames, spec.frame_rate, "spectrogram", base + ".spec")
        chroma = chromagram(spec)
        save_matrix(chroma.frames, chroma.frame_rate, "chromagram", base + ".chroma")
    print(f"synth: {audio.duration_seconds:.2f}s -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args, config) -> int:
    pred_dir = Path(args.pred)
    target_dir = Path(args.target)
    for path in (pred_dir, target_dir):
        if not path.is_dir():
            raise ValueError(f"not a directory: {path}")
    pred_files = sorted(p.name for p in pred_dir.glob("*.mid"))
    target_files = {p.name for p in target_dir.glob("*.mid")}
    matched = [name for name in pred_files if name in target_files]
    unmatched = sorted(set(pred_files) ^ target_files)
    for name in unmatched:
        print(f"evaluate: unmatched file {name}", file=sys.stderr)
    if not matched:
        print("evaluate: no matching filenames", file=sys.stderr)
        return EXIT_EMPTY

    triples = []
    for name in matched:
        pred, target = read_grid(pred_dir / name), read_grid(target_dir / name)
        amap = (read_alignment(Path(args.alignments, Path(name).stem + ".json"), pred, target)
                if args.alignments else align_notes(pred, target))
        triples.append((pred, target, amap))
    report = evaluate_m2m(triples, labels=[Path(n).stem for n in matched])

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    (out_dir / "report.csv").write_text(report.to_csv())
    summary = report.summary_table()
    (out_dir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="s2a", description=__doc__)
    parser.add_argument("--config", help="JSON config file (versioned schema)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo-data", help="generate a synthetic training corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--pieces", type=int)
    p.add_argument("--notes", type=int)
    p.add_argument("--performers", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_demo_data)

    p = sub.add_parser("tokenize", help="dump six-feature tokens as TSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.add_argument("--as-score", action="store_true",
                   help="force the constant score velocity")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("align", help="align a score to a performance")
    p.add_argument("--score", required=True)
    p.add_argument("--performance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("train", help="train the renderer on a demo-data corpus")
    p.add_argument("--data", required=True, help="demo-data output directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--split", default="train", choices=["train", "valid", "test", "all"])
    p.add_argument("--epochs", dest="max_epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--layers", dest="n_layers", type=int)
    p.add_argument("--d-model", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("render", help="render an expressive performance MIDI")
    p.add_argument("--score", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--performer-id", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--temperature", type=float)
    p.add_argument("--top-p", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", help="synthesize a performance MIDI to WAV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample-rate", type=int)
    p.add_argument("--dump-features", action="store_true",
                   help="also write spectrogram/chroma float32 matrices")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="objective metrics over matching files")
    p.add_argument("--pred", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--alignments", help="directory of ground-truth alignment JSONs")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        level = os.environ.get("S2A_LOG_LEVEL", "WARNING")
        if not isinstance(logging.getLevelName(level), int):
            raise UsageError(f"S2A_LOG_LEVEL: unknown level {level!r}")
        logging.basicConfig(level=level)
        args = parser.parse_args(argv)
        config = load_config_file(args.config)
        return args.func(args, config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, MemoryError) as err:
        log.debug("traceback", exc_info=err)  # S2A_LOG_LEVEL=DEBUG shows where it was raised
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
