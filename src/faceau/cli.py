"""Command-line front end: pre-train, fine-tune, evaluate, reconstruct,
dataset tooling, and the loss-ablation harness.

Config files are `key = value` lines (# comments allowed); explicit flags
override file values. Every command reads its inputs and checks its
arguments before it creates `--out`, and the first file it writes there is a
`resolved.cfg` snapshot; it never mutates its inputs. The training commands
(pretrain, finetune, ablate-loss) take `--config`, and a re-run with
`--config <out>/resolved.cfg` reproduces their run bitwise.

Exit codes: 0 success, 2 usage/validation, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from .data import (ImageFormatError, ManifestError, align_face, load_corpus,
                   read_image, read_manifest, subsample_every_n, to_float,
                   to_uint8, write_image, write_manifest)
from .losses import denormalize_patches, patch_normalize
from .metrics import kfold_by_subject, label_stats, split_by_fold
from .model import (CheckpointError, ModelConfig, decoder_forward,
                    encoder_forward, full_plan, load_weights, patchify, preset,
                    sample_mask, save_weights, unpatchify, write_file)
from .optim import NumericalError
from .synth import synth_corpus, write_corpus
from .train import (TrainConfig, TrainError, check_images, check_stage,
                    checkpoint_period, evaluate, finetune_loop, fresh_streams,
                    label_matrix, load_run_state, partial_protocol,
                    pretrain_loop, protocol_epochs, require_records, start_run,
                    train_preset, write_trace)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_bool(raw):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# config-file / flag option tables: one key per config field, cast by the
# field's annotation; every key doubles as --key-with-dashes
_CASTS = {"int": int, "float": float, "float | None": float, "str": str,
          "bool": _parse_bool}


def _options(config_class, skip=()):
    return {f.name: _CASTS[f.type] for f in dataclasses.fields(config_class)
            if f.name not in ("task", *skip)}


MODEL_OPTIONS = _options(ModelConfig)
TRAIN_OPTIONS = _options(TrainConfig, skip=("seed",))
EXTRA_OPTIONS = {"seed": int, "model_preset": str}
# ablate-loss keys with their defaults, each cast to its default's type
ABLATE_DEFAULTS = {
    "pretrain_epochs": 6, "finetune_epochs": 4, "warmup_epochs": 1,
    "batch_size": 8, "base_lr": 0.064, "finetune_base_lr": 0.032,
}
ABLATE_OPTIONS = {key: type(value) for key, value in ABLATE_DEFAULTS.items()}
COMMAND_OPTIONS = {
    "pretrain": (MODEL_OPTIONS, TRAIN_OPTIONS, EXTRA_OPTIONS),
    "finetune": (MODEL_OPTIONS, TRAIN_OPTIONS, EXTRA_OPTIONS),
    # the ablation grid sets norm_pix_target itself
    "ablate-loss": (ABLATE_OPTIONS,
                    _options(ModelConfig, skip=("norm_pix_target",)),
                    EXTRA_OPTIONS),
}


def parse_config_file(path):
    """key = value lines; '#' comments; duplicate keys rejected."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = raw.strip()
    version = values.pop("config_version", "1")
    if version != "1":
        raise ValueError(f"{path}: unsupported config_version {version!r}")
    return values


def _resolve_options(args):
    """The command's option values from --config and the flags (flag > file
    > absent); casts each and rejects unknown file keys."""
    file_values = parse_config_file(args.config) if args.config else {}
    known = {}
    for table in COMMAND_OPTIONS[args.command]:
        known.update(table)
    unknown = [k for k in file_values if k not in known]
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, cast in known.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = cast(flag)
        elif key in file_values:
            resolved[key] = cast(file_values[key])
    return resolved


def resolve_stage(given, task, run=None, **fixed):
    """One checked (ModelConfig, TrainConfig) pair of a `task` stage, exactly
    as it will train: the model and train presets with the `given` model and
    train keys and the command's `fixed` train fields over them, or, resuming
    `run`, the run state's two configs with those train fields. Unless given,
    checkpoint_every is train.checkpoint_period of the final epoch budget. On
    resume the seed and the model come from the run state, so a given seed,
    model key or model_preset must agree with it. Reads no manifest and
    writes nothing."""
    model_over = {k: v for k, v in given.items() if k in MODEL_OPTIONS}
    train_over = {**{k: v for k, v in given.items() if k in TRAIN_OPTIONS}, **fixed}
    if run is None:
        if "seed" not in given:
            raise ValueError("--seed is required (flag or config file)")
        model_config = preset(given.get("model_preset", "desk"), task=task, **model_over)
        config = train_preset(task, seed=given["seed"], **train_over)
    else:
        if run.config.task != task:
            raise TrainError(f"run state has task {run.config.task!r}")
        model_config = run.weights.config
        kept = {"seed": run.config.seed, **dataclasses.asdict(model_config)}
        clash = sorted(k for k, v in given.items()
                       if kept.get(k, v) != v or k == "model_preset"
                       and preset(v, task=task, **model_over) != model_config)
        if clash:
            raise TrainError("on resume the seed and the model come from the "
                             f"run state; these keys differ from it: {clash}")
        config = dataclasses.replace(run.config, **train_over)
    if "checkpoint_every" not in given:
        config = dataclasses.replace(
            config, checkpoint_every=checkpoint_period(config.epochs))
    check_stage(model_config, config)
    return model_config, config


def _snapshot(given, model_config, config, resumed=False):
    """The resolved.cfg values of a pretrain or finetune stage (no
    model_preset on resume: every model field is in them)."""
    values = {"seed": config.seed,
              "model_preset": None if resumed else given.get("model_preset", "desk")}
    values.update({k: getattr(model_config, k) for k in MODEL_OPTIONS})
    values.update({k: getattr(config, k) for k in TRAIN_OPTIONS})
    return values


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ",".join(_format_value(item) for item in value)
    return str(value)


def _refuse_overwrite(outputs, inputs):
    """Reject a run that would write one of its outputs over an input."""
    inputs = {os.path.realpath(p) for p in inputs}
    for path in outputs:
        if os.path.realpath(path) in inputs:
            raise ValueError(f"{path} is one of this command's inputs; "
                             "choose another --out")


def open_out(args, values=None):
    """Create --out and write its resolved.cfg: the settings as keys
    (`values`, or else the parsed arguments) and every other parsed argument
    but --config as a comment, in parse order. Every command calls this
    once, after all of its inputs are read and checked, before any other
    output; it refuses an --out whose resolved.cfg is the --config file."""
    parsed = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "out", "config") and v is not None}
    if values is None:
        values = parsed
    config = vars(args).get("config")
    _refuse_overwrite([os.path.join(args.out, "resolved.cfg")], [config] if config else [])
    os.makedirs(args.out, exist_ok=True)
    lines = [f"# faceau {args.command}"]
    lines += [f"# {key} = {_format_value(value)}"
              for key, value in parsed.items() if key not in values]
    lines.append("config_version = 1")
    lines += [f"{key} = {_format_value(value)}"
              for key, value in values.items() if value is not None]
    write_file(os.path.join(args.out, "resolved.cfg"), ["\n".join(lines) + "\n"])
    return args.out


def _load_checked(manifest, model_config):
    """The manifest's decoded images, each checked against the model's input
    shape, so a corpus the model cannot take fails before --out exists."""
    corpus = load_corpus(manifest)
    check_images(model_config, corpus.images, map(manifest.resolve, manifest.records))
    return corpus


# ---------------------------------------------------------------------------
# pretrain / finetune


def cmd_pretrain(args):
    run = load_run_state(args.resume) if args.resume else None
    given = _resolve_options(args)
    model_config, config = resolve_stage(given, "pretrain", run)
    values = _snapshot(given, model_config, config, resumed=run is not None)
    manifest = read_manifest(args.manifest)
    require_records(manifest)
    corpus = _load_checked(manifest, model_config)
    if run is None:
        run = start_run(model_config, config)
    else:
        run.config = config
    out = open_out(args, values)
    rows = pretrain_loop(run, corpus, checkpoint=os.path.join(out, "run_state.bin"))
    write_trace(os.path.join(out, "trace.csv"), run.trace)
    ckpt = os.path.join(out, "model.ckpt")
    save_weights(run.weights, ckpt)
    if rows:
        print(f"pretrain: {len(rows)} steps, final loss {rows[-1].loss:.6f}")
    else:
        print("pretrain: nothing to do (run already at configured epochs)")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _parse_init(raw):
    if raw == "scratch":
        return None
    if raw.startswith("checkpoint:") and len(raw) > len("checkpoint:"):
        return raw[len("checkpoint:"):]
    raise ValueError(f"--init must be 'scratch' or 'checkpoint:<path>', got {raw!r}")


def _write_metrics(out, report):
    csv_path = os.path.join(out, "metrics.csv")
    write_file(csv_path, [report.to_csv()])
    table = report.to_table()
    write_file(os.path.join(out, "metrics.txt"), [table])
    print(table, end="")
    return csv_path


def cmd_finetune(args):
    init_path = _parse_init(args.init)
    given = _resolve_options(args)
    fixed = {} if args.fraction is None else {"epochs": protocol_epochs(args.fraction)}
    model_config, config = resolve_stage(given, args.task, **fixed)
    if args.fold is not None and args.eval_manifest:
        raise ValueError("--fold and --eval-manifest are mutually exclusive")
    if config.eval_every > 0 and args.fold is None and not args.eval_manifest:
        raise TrainError("eval_every > 0 needs a held-out set: "
                         "--fold or --eval-manifest")
    values = _snapshot(given, model_config, config)
    outputs = ("resolved.cfg", "trace.csv", "model.ckpt", "run_state.bin",
               "metrics.csv", "metrics.txt")
    _refuse_overwrite([os.path.join(args.out, name) for name in outputs],
                      [p for p in (init_path, args.manifest, args.eval_manifest) if p])
    manifest = read_manifest(args.manifest)
    eval_manifest = None
    if args.fold is not None:
        assignment = kfold_by_subject(manifest, args.num_folds, config.seed)
        manifest, eval_manifest = split_by_fold(manifest, assignment, args.fold)
    elif args.eval_manifest:
        eval_manifest = read_manifest(args.eval_manifest)
    if args.fraction is not None:
        before = len(manifest.records)
        manifest, config = partial_protocol(manifest, args.fraction, config)
        n = round(1.0 / args.fraction)
        print(f"fraction {args.fraction}: every {n}-th frame "
              f"({before} -> {len(manifest.records)} records), "
              f"{config.epochs} epochs")
    for checked in (manifest, eval_manifest):
        if checked is not None:
            label_matrix(checked, model_config)
    corpus = _load_checked(manifest, model_config)
    eval_corpus = _load_checked(eval_manifest, model_config) if eval_manifest else None
    run = start_run(model_config, config, init_from=init_path)
    out = open_out(args, values)
    _, reports = finetune_loop(run, corpus, eval_corpus=eval_corpus,
                               checkpoint=os.path.join(out, "run_state.bin"))
    write_trace(os.path.join(out, "trace.csv"), run.trace)
    ckpt = os.path.join(out, "model.ckpt")
    save_weights(run.weights, ckpt)
    for epoch, report in reports:
        avgs = ", ".join(f"{m} {v:.4f}" for m, v in report.averages().items()
                         if v is not None)
        print(f"eval epoch {epoch}: {avgs}")
    if eval_corpus is not None:
        # a report taken at the last epoch already scored the final weights
        if reports and reports[-1][0] == run.epoch:
            final = reports[-1][1]
        else:
            final = evaluate(run.weights, eval_corpus)
        _write_metrics(out, final)
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_eval(args):
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"--threshold must lie in [0, 1], got {args.threshold}")
    weights = load_weights(args.checkpoint)
    if weights.config.task == "pretrain":
        raise TrainError("checkpoint holds a pre-training model; evaluation "
                         "needs a fine-tuned detect or intensity model")
    manifest = read_manifest(args.manifest)
    label_matrix(manifest, weights.config)
    corpus = _load_checked(manifest, weights.config)
    report = evaluate(weights, corpus, threshold=args.threshold)
    out = open_out(args)
    _write_metrics(out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruction rendering


def _gray_to_rgb(image):
    return np.repeat(image, 3, axis=0) if image.shape[0] == 1 else image


def render_triptych(weights, image_u8, ratio, rng):
    """[masked | reconstruction | original] panels as one uint8 [3,H,3W], of
    an image that check_images has passed."""
    cfg = weights.config
    img = to_float(image_u8)
    patches = patchify(img, cfg.patch_size)
    if ratio == 0.0:
        plan = full_plan(cfg.num_patches)
    else:
        plan = sample_mask(cfg.num_patches, ratio, rng)
    latent = encoder_forward(weights, patches, plan)
    pred = decoder_forward(weights, latent, plan).data
    if cfg.norm_pix_target:
        pred = denormalize_patches(pred, patch_normalize(patches))
    recon_patches = patches.astype(np.float64)
    recon_patches[plan.masked_idx] = pred[plan.masked_idx]
    masked_patches = patches.astype(np.float64)
    masked_patches[plan.masked_idx] = 0.5
    panels = [
        unpatchify(masked_patches, cfg.patch_size, cfg.channels),
        np.clip(unpatchify(recon_patches, cfg.patch_size, cfg.channels), 0.0, 1.0),
        img,
    ]
    return np.concatenate([_gray_to_rgb(to_uint8(p)) for p in panels], axis=2)


def cmd_reconstruct(args):
    ratios = args.mask_ratio
    names = [f"triptych_{round(ratio * 100):03d}.ppm" for ratio in ratios]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"mask ratios {ratios[names.index(name)]!r} and "
                             f"{ratios[i]!r} both write {name}")
    weights = load_weights(args.checkpoint)
    if weights.config.task != "pretrain":
        raise TrainError("reconstruction needs a pre-training checkpoint "
                         f"(decoder); got task {weights.config.task!r}")
    image = read_image(args.image)
    check_images(weights.config, [image], [args.image])
    rng = np.random.default_rng(args.seed)
    # rendering every panel first checks each ratio before --out exists
    triptychs = [render_triptych(weights, image, ratio, rng)
                 for ratio in ratios]
    out = open_out(args)
    for name, triptych in zip(names, triptychs):
        path = os.path.join(out, name)
        write_image(triptych, path)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dataset tooling


def cmd_stats(args):
    manifest = read_manifest(args.manifest)
    stats = label_stats(manifest)
    out = open_out(args)
    path = os.path.join(out, "stats.csv")
    write_file(path, [stats.to_csv()])
    for name, rate in zip(stats.au_names, stats.positive_rates):
        print(f"{name}: rate {rate:.4f}")
    print(f"{stats.num_combinations} combinations over {stats.num_records} "
          f"labeled records; {stats.frac_combos_below_50:.2%} rarer than 50")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_synth(args):
    corpus = synth_corpus(seed=args.seed, count=args.count,
                          image_size=args.image_size,
                          num_aus=args.num_aus,
                          num_subjects=args.num_subjects)
    out = open_out(args)
    path = write_corpus(corpus, out)
    print(f"wrote {len(corpus.images)} images + {path}")
    return EXIT_OK


def cmd_subsample(args):
    manifest = read_manifest(args.manifest)
    subset = subsample_every_n(manifest, args.n)
    _refuse_overwrite([os.path.join(args.out, "manifest.jsonl")],
                      [args.manifest, *map(manifest.resolve, manifest.records)])
    out = open_out(args)
    # emitted records must keep pointing at the original images
    rewritten = [
        dataclasses.replace(
            rec, image_path=os.path.relpath(manifest.resolve(rec), out))
        for rec in subset.records
    ]
    subset = dataclasses.replace(subset, records=rewritten, base_dir=out)
    path = os.path.join(out, "manifest.jsonl")
    write_manifest(subset, path)
    print(f"kept {len(subset.records)} of {len(manifest.records)} records")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_align(args):
    manifest = read_manifest(args.manifest)
    first = {}
    for i, rec in enumerate(manifest.records):
        if rec.landmarks is None:
            raise ManifestError(f"record {i} has no landmarks; cannot align")
        # each aligned image goes to its record's path under --out
        path = os.path.normpath(rec.image_path)
        if os.path.isabs(path) or path.split(os.sep)[0] == "..":
            raise ManifestError(f"record {i} image {rec.image_path!r} is not "
                                "inside the manifest's directory; cannot align")
        if first.setdefault(path, i) != i:
            raise ManifestError(f"records {first[path]} and {i} both name image "
                                f"{path!r}; cannot align")
    paths = [os.path.join(args.out, rec.image_path) for rec in manifest.records]
    _refuse_overwrite(paths + [os.path.join(args.out, "manifest.jsonl")],
                      [args.manifest, *map(manifest.resolve, manifest.records)])
    corpus = load_corpus(manifest)
    records, images = [], []
    for i, (rec, image) in enumerate(zip(manifest.records, corpus.images)):
        try:
            aligned, points = align_face(to_float(image), rec.landmarks[0],
                                         rec.landmarks[1], rec.landmarks)
        except ValueError as exc:
            raise ManifestError(f"record {i}: {exc}") from exc
        images.append(to_uint8(np.clip(aligned, 0.0, 1.0)))
        records.append(dataclasses.replace(rec, landmarks=np.maximum(points, 0.0)))
    out = open_out(args)
    for path, image in zip(paths, images):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_image(image, path)
    aligned_manifest = dataclasses.replace(manifest, records=records, base_dir=out)
    path = os.path.join(out, "manifest.jsonl")
    write_manifest(aligned_manifest, path)
    print(f"aligned {len(records)} images; wrote {path}")
    return EXIT_OK


def cmd_kfold(args):
    manifest = read_manifest(args.manifest)
    assignment = kfold_by_subject(manifest, args.k, args.seed)
    out = open_out(args)
    sizes = [sum(1 for f in assignment.values() if f == i) for i in range(args.k)]
    path = os.path.join(out, "folds.json")
    folds = {"format": "faceau-kfold", "version": 1, "k": args.k, "seed": args.seed,
             "folds": assignment}
    write_file(path, [json.dumps(folds, indent=2, sort_keys=True) + "\n"])
    print("fold sizes: " + "/".join(str(s) for s in sizes))
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# loss ablation harness


ABLATION_GRID = (("L2", False), ("L2", True), ("L1", False), ("L1", True))


def _data_order_hash(seed, epochs, count):
    # replays the shuffle stream the loops will consume
    stream = fresh_streams(seed)["shuffle"]
    digest = hashlib.sha256()
    for _ in range(epochs):
        digest.update(stream.permutation(count).astype("<i8").tobytes())
    return digest.hexdigest()[:16]


def cmd_ablate_loss(args):
    given = {**ABLATE_DEFAULTS, **_resolve_options(args)}
    # warmup_epochs, batch_size and base_lr are train keys of both stages
    model_pre, pre_cfg = resolve_stage(given, "pretrain", epochs=given["pretrain_epochs"],
                                       random_crop=False)
    model_ft, ft_cfg = resolve_stage(
        given, "detect", epochs=given["finetune_epochs"], base_lr=given["finetune_base_lr"],
        drop_path_rate=0.0, randaug_magnitude=0, randaug_prob=0.0,
        mixup_alpha=0.0, cutmix_alpha=0.0)
    values = {"seed": pre_cfg.seed, "model_preset": given.get("model_preset", "desk"),
              **{k: given[k] for k in ABLATE_OPTIONS},
              **{k: v for k, v in given.items() if k in MODEL_OPTIONS}}
    manifest = read_manifest(args.manifest)
    eval_manifest = read_manifest(args.eval_manifest)
    for checked in (manifest, eval_manifest):
        label_matrix(checked, model_ft)
    corpus = _load_checked(manifest, model_ft)
    eval_corpus = _load_checked(eval_manifest, model_ft)
    order_hash = _data_order_hash(pre_cfg.seed, pre_cfg.epochs, len(corpus))
    out = open_out(args, values)

    lines = ["variant,recon_loss,norm_pix_target,data_order,"
             "pretrain_loss,avg_f1"]
    table = []
    for flavor, norm in ABLATION_GRID:
        variant = f"{flavor} {'w/' if norm else 'w/o'} norm"
        run = start_run(dataclasses.replace(model_pre, norm_pix_target=norm),
                        dataclasses.replace(pre_cfg, recon_loss=flavor))
        rows = pretrain_loop(run, corpus)
        ckpt = os.path.join(out, f"pre_{flavor}_{'norm' if norm else 'raw'}.ckpt")
        save_weights(run.weights, ckpt)

        ft_run = start_run(dataclasses.replace(model_ft, norm_pix_target=norm),
                           ft_cfg, init_from=ckpt)
        finetune_loop(ft_run, corpus)
        report = evaluate(ft_run.weights, eval_corpus)
        avg_f1 = report.average("f1")
        lines.append(f"{variant},{flavor},{str(norm).lower()},{order_hash},"
                     f"{rows[-1].loss:.6f},{avg_f1:.6f}")
        table.append((variant, rows[-1].loss, avg_f1))

    path = os.path.join(out, "ablation.csv")
    write_file(path, ["\n".join(lines) + "\n"])
    width = max(len(v) for v, _, _ in table) + 2
    print("variant".ljust(width) + "pretrain_loss".rjust(15) + "avg_f1".rjust(9))
    for variant, loss, f1 in table:
        print(variant.ljust(width) + f"{loss:.6f}".rjust(15) + f"{f1:.4f}".rjust(9))
    print(f"data order {order_hash} shared by all four runs")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_option_flags(parser, tables):
    for table in tables:
        for key in table:
            parser.add_argument("--" + key.replace("_", "-"), dest=key,
                                default=None, metavar="V")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="faceau",
        description="masked-autoencoder pre-training and action-unit "
                    "fine-tuning, desk scale")
    sub = parser.add_subparsers(dest="command")
    # every command writes to --out; the training commands also read --config
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config")
    training = [out, config]

    p = sub.add_parser("pretrain", help="self-supervised pre-training", parents=training)
    p.add_argument("--manifest", required=True)
    p.add_argument("--resume", help="run-state file to continue from")
    _add_option_flags(p, COMMAND_OPTIONS["pretrain"])
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised fine-tuning", parents=training)
    p.add_argument("--task", required=True, choices=("detect", "intensity"))
    p.add_argument("--init", required=True,
                   help="'scratch' or 'checkpoint:<path>'")
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-manifest", dest="eval_manifest")
    p.add_argument("--fold", type=int)
    p.add_argument("--num-folds", dest="num_folds", type=int, default=3)
    p.add_argument("--fraction", type=float,
                   help="sparse-frames protocol fraction")
    _add_option_flags(p, COMMAND_OPTIONS["finetune"])
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="metrics for a fine-tuned checkpoint", parents=[out])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reconstruct", help="triptych rendering", parents=[out])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--mask-ratio", dest="mask_ratio", type=float,
                   nargs="+", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("stats", help="label distribution report", parents=[out])
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate the synthetic corpus", parents=[out])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--image-size", dest="image_size", type=int, default=32)
    p.add_argument("--num-subjects", dest="num_subjects", type=int, default=10)
    p.add_argument("--num-aus", dest="num_aus", type=int, default=4)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("subsample", help="every-Nth-frame manifest", parents=[out])
    p.add_argument("--manifest", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("align", help="eye-line alignment for a manifest", parents=[out])
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("kfold", help="subject-exclusive fold assignment", parents=[out])
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("ablate-loss", parents=training,
                       help="pretrain-loss grid: {L1, L2} x {w/, w/o} norm")
    p.add_argument("--manifest", required=True)
    p.add_argument("--eval-manifest", dest="eval_manifest", required=True)
    _add_option_flags(p, COMMAND_OPTIONS["ablate-loss"])
    p.set_defaults(func=cmd_ablate_loss)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ManifestError, ImageFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
