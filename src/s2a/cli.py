"""Pipeline command line: demo-data, tokenize, align, train, render, synth,
evaluate.

Every subcommand is a pure function of its inputs and seeds: rerunning with
the same arguments produces byte-identical outputs. Exit codes: 0 success,
1 usage error, 2 data error, 3 empty evaluation.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .align import AlignmentMap, align_notes
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import aggregate, chroma_mse, evaluate_m2m, spectrogram_mse
from .midi_io import SMFParseError, parse_smf, resample_grid, write_smf
from .model import M2MConfig, init_model, predict_performance
from .synth import chromagram, midi_spectrogram, render_audio, save_matrix, write_wav
from .tokenizer import dump_tokens, tokenize
from .trainer import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EMPTY = 3

CONFIG_VERSION = 1

log = logging.getLogger("s2a")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise UsageError(message)


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise DataError(f"cannot read config {path}: {err}") from err
    version = obj.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise DataError(f"unsupported config version {version}")
    return obj


def _setting(args_value, config: dict, section: str, key: str, default):
    """Priority: explicit flag > config file section > default."""
    if args_value is not None:
        return args_value
    return config.get(section, {}).get(key, default)


def read_midi(path: str):
    try:
        return parse_smf(Path(path).read_bytes())
    except FileNotFoundError as err:
        raise DataError(f"no such file: {path}") from err
    except SMFParseError as err:
        raise DataError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# Subcommands

def cmd_demo_data(args, config) -> int:
    spec = corpus_mod.SyntheticCorpusSpec(
        n_pieces=_setting(args.pieces, config, "demo_data", "pieces", 8),
        notes_per_piece=_setting(args.notes, config, "demo_data", "notes", 200),
        n_performers=_setting(args.performers, config, "demo_data", "performers", 2),
        seed=_setting(args.seed, config, "demo_data", "seed", 0),
    )
    manifest = corpus_mod.generate_corpus(spec, args.out)
    log.info("wrote %d items under %s", len(manifest["items"]), args.out)
    print(f"demo-data: {len(manifest['items'])} performances in {args.out}")
    return EXIT_OK


def cmd_tokenize(args, config) -> int:
    seq = resample_grid(read_midi(args.input))
    try:
        tokens = tokenize(seq, is_score=args.as_score)
    except ValueError as err:
        raise DataError(str(err)) from err
    text = dump_tokens(tokens)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_align(args, config) -> int:
    score = resample_grid(read_midi(args.score))
    perf = resample_grid(read_midi(args.performance))
    amap = align_notes(score, perf, gap_penalty=args.gap_penalty)
    Path(args.out).write_text(amap.to_json())
    print(
        f"align: {len(amap.pairs)} matched, {len(amap.unmatched_score)} score-only, "
        f"{len(amap.unmatched_perf)} performance-only"
    )
    return EXIT_OK


def _load_manifest(data_dir: Path) -> dict:
    path = data_dir / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest.json under {data_dir}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    if not (isinstance(manifest, dict) and isinstance(manifest.get("items"), list)
            and all(isinstance(item, dict) for item in manifest["items"])
            and isinstance(manifest.get("n_performers"), int)):
        raise DataError(f"{path}: need an 'items' list of objects and an integer 'n_performers'")
    return manifest


def _dataset_from_manifest(data_dir: Path, manifest: dict, split: str):
    n_performers = max(manifest["n_performers"], 1)
    pairs = []
    for item in manifest["items"]:
        if split != "all" and item.get("split", "train") != split:
            continue
        try:
            if not 0 <= item["performer_id"] < n_performers:
                raise ValueError(f"performer_id outside 0..{n_performers - 1}")
            score = resample_grid(read_midi(str(data_dir / item["score"])))
            perf = resample_grid(read_midi(str(data_dir / item["performance"])))
            amap = AlignmentMap.from_json((data_dir / item["alignment"]).read_text())
            pairs.extend(
                corpus_mod.build_training_pairs(score, perf, amap, item["performer_id"])
            )
        except (OSError, KeyError, TypeError, ValueError) as err:
            raise DataError(f"bad manifest item {item}: {err!r}") from err
    return pairs


def cmd_train(args, config) -> int:
    data_dir = Path(args.data)
    manifest = _load_manifest(data_dir)
    dataset = _dataset_from_manifest(data_dir, manifest, args.split)
    if not dataset:
        raise DataError(f"no '{args.split}' items in {data_dir}")

    model_cfg = M2MConfig(
        n_layers=_setting(args.layers, config, "model", "n_layers", 2),
        d_model=_setting(args.d_model, config, "model", "d_model", 64),
        n_heads=_setting(None, config, "model", "n_heads", 4),
        d_ff=_setting(None, config, "model", "d_ff", 256),
        dropout=_setting(args.dropout, config, "model", "dropout", 0.1),
        n_performers=max(manifest["n_performers"], 1),
        seed=_setting(args.seed, config, "model", "seed", 0),
    )
    train_cfg = TrainConfig(
        learning_rate=_setting(args.learning_rate, config, "train", "learning_rate", 2e-5),
        warmup_steps=_setting(None, config, "train", "warmup_steps", 40),
        max_epochs=_setting(args.epochs, config, "train", "max_epochs", 10),
        batch_size=_setting(args.batch_size, config, "train", "batch_size", 4),
        alpha=_setting(None, config, "train", "alpha", 1.5),
        seed=_setting(args.seed, config, "train", "seed", 0),
        gradnorm_lr=_setting(None, config, "train", "gradnorm_lr", 0.025),
        early_stop_loss=_setting(None, config, "train", "early_stop_loss", None),
    )

    model = init_model(model_cfg)
    model, training_log = train(model, dataset, train_cfg)
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
    try:
        model = load_checkpoint(Path(args.checkpoint).read_bytes())
    except (OSError, ValueError) as err:
        raise DataError(f"cannot load checkpoint {args.checkpoint}: {err}") from err
    score = read_midi(args.score)
    temperature = _setting(args.temperature, config, "sampling", "temperature", 1.0)
    top_p = _setting(args.top_p, config, "sampling", "top_p", 0.9)
    seed = _setting(args.seed, config, "sampling", "seed", 0)
    try:
        perf = predict_performance(
            model, score, args.performer_id, temperature, top_p, seed
        )
    except ValueError as err:
        raise DataError(str(err)) from err
    Path(args.out).write_bytes(write_smf(perf))
    log.info("render: seed=%s temperature=%s top_p=%s", seed, temperature, top_p)
    print(f"render: {len(perf.notes)} notes -> {args.out}")
    return EXIT_OK


def cmd_synth(args, config) -> int:
    seq = read_midi(args.input)
    sample_rate = _setting(args.sample_rate, config, "synth", "sample_rate", 24000)
    audio = render_audio(seq, sample_rate)
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
    audio_pairs = []
    for name in matched:
        pred = resample_grid(read_midi(str(pred_dir / name)))
        target = resample_grid(read_midi(str(target_dir / name)))
        if args.alignments:
            amap_path = Path(args.alignments) / (Path(name).stem + ".json")
            try:
                amap = AlignmentMap.from_json(amap_path.read_text())
            except (OSError, ValueError) as err:
                raise DataError(f"cannot read alignment {amap_path}: {err!r}") from err
            if amap.pairs and (min(amap.pairs[0]) < 0 or amap.pairs[-1][0] >= len(pred.notes)
                               or amap.pairs[-1][1] >= len(target.notes)):
                raise DataError(f"{amap_path}: pair index outside the notes of {name}")
        else:
            amap = align_notes(pred, target)
        triples.append((pred, target, amap))
        audio_pairs.append((pred, target))

    report = evaluate_m2m(triples, labels=[Path(n).stem for n in matched])

    chroma_values = []
    spec_values = []
    for row, (pred, target) in zip(report.item_rows, audio_pairs):
        spec_p = midi_spectrogram(render_audio(pred))
        spec_t = midi_spectrogram(render_audio(target))
        s_mse = spectrogram_mse(spec_p, spec_t)
        c_mse = chroma_mse(chromagram(spec_p), chromagram(spec_t))
        row["chroma_mse"] = c_mse
        row["spectrogram_mse"] = s_mse
        chroma_values.append(c_mse)
        spec_values.append(s_mse)
    report.chroma_mse = aggregate(chroma_values)
    report.spectrogram_mse = aggregate(spec_values)

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
    p.add_argument("--gap-penalty", type=float, default=0.5)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("train", help="train the renderer on a demo-data corpus")
    p.add_argument("--data", required=True, help="demo-data output directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--split", default="train", choices=["train", "valid", "test", "all"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--layers", type=int)
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
    logging.basicConfig(level=os.environ.get("S2A_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config_file(args.config)
        return args.func(args, config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
