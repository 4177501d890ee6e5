"""End-to-end checks of the command-line surface: exit codes, output files,
determinism across re-runs, and resume behavior."""

import argparse
import binascii
import dataclasses
import json
import os
import struct

import numpy as np
import pytest

import faceau.train
from faceau import cli
from faceau.data import (load_corpus, read_image, read_manifest, to_float,
                         write_manifest)
from faceau.model import patchify, sample_mask

TINY_MODEL = [
    "--image-size", "16", "--patch-size", "4",
    "--enc-depth", "2", "--enc-width", "32", "--enc-heads", "2",
    "--dec-depth", "1", "--dec-width", "16", "--dec-heads", "2",
]
TINY_TRAIN = [
    "--epochs", "2", "--warmup-epochs", "1", "--batch-size", "4",
    "--base-lr", "2.56e-3",
]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run(["synth", "--seed", "1", "--count", "12", "--num-subjects",
                "3", "--image-size", "16", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pre_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("pre")
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--seed", "0"] + TINY_MODEL + TINY_TRAIN)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ft_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("ft")
    code = run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", str(corpus_dir / "manifest.jsonl"), "--fold", "0",
                "--out", str(out), "--seed", "0"] + FT_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def labels_dir(tmp_path_factory, corpus_dir):
    """The corpus manifest without its occurrence bits, without its
    intensity levels, and with no records, all on the corpus's images."""
    out = tmp_path_factory.mktemp("labels")
    manifest = read_manifest(str(corpus_dir / "manifest.jsonl"))
    records = [dataclasses.replace(r, image_path=manifest.resolve(r))
               for r in manifest.records]
    variants = {
        "no_occurrence": [dataclasses.replace(r, occurrence=None) for r in records],
        "no_intensity": [dataclasses.replace(r, intensity=None) for r in records],
        "empty": [],
    }
    for name, recs in variants.items():
        write_manifest(dataclasses.replace(manifest, records=recs),
                       str(out / f"{name}.jsonl"))
    return out


# the flags of pretrain and finetune: model keys plus seed and model_preset,
# train keys plus --config, --manifest and --out
MODEL_DESTS = ["channels", "dec_depth", "dec_heads", "dec_width", "enc_depth",
               "enc_heads", "enc_width", "image_size", "mask_ratio", "mlp_ratio",
               "model_preset", "num_aus", "patch_size", "seed"]
TRAIN_DESTS = ["base_lr", "batch_size", "beta2", "checkpoint_every", "config",
               "crop_min_scale", "cutmix_alpha", "drop_path_rate", "epochs",
               "eval_every", "freeze_encoder", "label_smoothing", "manifest",
               "min_lr", "mixup_alpha", "norm_pix_target", "out",
               "randaug_magnitude", "randaug_prob", "random_crop", "recon_loss",
               "reduction", "warmup_epochs", "weight_decay"]
CLI_SURFACE = {
    "pretrain": MODEL_DESTS + TRAIN_DESTS + ["resume"],
    "finetune": MODEL_DESTS + TRAIN_DESTS + [
        "eval_manifest", "fold", "fraction", "init", "num_folds", "task"],
    "eval": ["checkpoint", "manifest", "out", "threshold"],
    "reconstruct": ["checkpoint", "image", "mask_ratio", "out", "seed"],
    "stats": ["manifest", "out"],
    "synth": ["count", "image_size", "num_aus", "num_subjects", "out", "seed"],
    "subsample": ["manifest", "n", "out"],
    "align": ["manifest", "out"],
    "kfold": ["k", "manifest", "out", "seed"],
    "ablate-loss": MODEL_DESTS + [
        "base_lr", "batch_size", "config", "eval_manifest", "finetune_base_lr",
        "finetune_epochs", "manifest", "out", "pretrain_epochs",
        "warmup_epochs"],
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    surface = {name: sorted(a.dest for a in p._actions if a.dest != "help")
               for name, p in sub.choices.items()}
    assert surface == {name: sorted(dests) for name, dests in CLI_SURFACE.items()}


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["synth", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_synth_writes_count_images_plus_manifest(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--seed", "3", "--count", "7", "--out",
                str(out)]) == 0
    pgms = sorted(p for p in os.listdir(out) if p.endswith(".pgm"))
    assert len(pgms) == 7
    assert (out / "manifest.jsonl").exists()
    assert (out / "resolved.cfg").exists()
    manifest = read_manifest(str(out / "manifest.jsonl"))
    assert len(manifest.records) == 7


def test_synth_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--seed", "9", "--count", "5", "--out",
                    str(out)]) == 0
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    assert (a / "img_00000.pgm").read_bytes() == (b / "img_00000.pgm").read_bytes()


def test_stats_writes_csv_and_summary(tmp_path, corpus_dir, capsys):
    out = tmp_path / "st"
    assert run(["stats", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out)]) == 0
    text = (out / "stats.csv").read_text()
    assert text.startswith("au,positives,rate")
    assert "combination,count" in text
    printed = capsys.readouterr().out
    assert "rate" in printed and "combinations" in printed


def test_kfold_splits_27_subjects_evenly(tmp_path):
    data = tmp_path / "d"
    assert run(["synth", "--seed", "4", "--count", "27", "--num-subjects",
                "27", "--out", str(data)]) == 0
    out = tmp_path / "f"
    assert run(["kfold", "--manifest", str(data / "manifest.jsonl"), "--k",
                "3", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "folds.json").read_text())
    assert payload["k"] == 3 and payload["seed"] == 0
    folds = payload["folds"]
    assert len(folds) == 27
    sizes = [sum(1 for f in folds.values() if f == i) for i in range(3)]
    assert sizes == [9, 9, 9]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_kfold_rejects_fold_count_below_one(tmp_path, corpus_dir, k, capsys):
    out = tmp_path / "f"
    assert run(["kfold", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--k", k, "--seed", "0", "--out", str(out)]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert not (out / "folds.json").exists()


def test_subsample_keeps_every_nth_and_paths_resolve(tmp_path, corpus_dir):
    out = tmp_path / "sub"
    assert run(["subsample", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--n", "2", "--out", str(out)]) == 0
    manifest = read_manifest(str(out / "manifest.jsonl"))
    source = read_manifest(str(corpus_dir / "manifest.jsonl"))
    per_subject = {}
    for rec in source.records:
        per_subject[rec.subject] = per_subject.get(rec.subject, 0) + 1
    expected = sum(-(-c // 2) for c in per_subject.values())
    assert len(manifest.records) == expected
    corpus = load_corpus(manifest)  # relative paths must still resolve
    assert len(corpus) == expected


def test_align_roundtrips_through_loader(tmp_path, corpus_dir):
    out = tmp_path / "al"
    assert run(["align", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out)]) == 0
    manifest = read_manifest(str(out / "manifest.jsonl"))
    assert len(load_corpus(manifest)) == len(manifest.records)
    for rec in manifest.records:
        assert rec.landmarks is not None
        assert np.all(rec.landmarks >= 0.0)


# ---------------------------------------------------------------------------
# pretrain


def test_pretrain_outputs(pre_dir):
    for name in ("trace.csv", "model.ckpt", "run_state.bin", "resolved.cfg"):
        assert (pre_dir / name).exists()
    lines = (pre_dir / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,epoch,lr,loss"
    steps = [int(row.split(",")[0]) for row in lines[1:]]
    assert steps == list(range(len(steps)))


def test_pretrain_same_seed_same_checkpoint(tmp_path, corpus_dir, pre_dir):
    out = tmp_path / "again"
    assert run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--seed", "0"]
               + TINY_MODEL + TINY_TRAIN) == 0
    assert (out / "model.ckpt").read_bytes() == (pre_dir / "model.ckpt").read_bytes()


def test_pretrain_snapshot_rerun_is_bitwise(tmp_path, corpus_dir, pre_dir):
    out = tmp_path / "snap"
    assert run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--config",
                str(pre_dir / "resolved.cfg")]) == 0
    assert (out / "model.ckpt").read_bytes() == (pre_dir / "model.ckpt").read_bytes()


def test_pretrain_resume_matches_uninterrupted(tmp_path, corpus_dir, pre_dir):
    out = tmp_path / "res"
    base = ["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--out", str(out)]
    assert run(base + ["--seed", "0", "--epochs", "1"]
               + TINY_MODEL + TINY_TRAIN[2:]) == 0
    assert run(base + ["--resume", str(out / "run_state.bin"),
                       "--epochs", "2"]) == 0
    assert (out / "model.ckpt").read_bytes() == (pre_dir / "model.ckpt").read_bytes()
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,epoch,lr,loss"
    steps = [int(row.split(",")[0]) for row in lines[1:]]
    assert steps == list(range(6))  # contiguous across the restart


def test_pretrain_requires_seed(tmp_path, corpus_dir, capsys):
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x")] + TINY_MODEL)
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_pretrain_mask_ratio_leaving_no_visible_patch(tmp_path, corpus_dir, capsys):
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--seed", "0", "--mask-ratio", "0.99"]
               + TINY_MODEL + TINY_TRAIN)
    assert code == 2
    err = capsys.readouterr().err
    assert "0.99" in err and "16 tokens" in err


def test_resumed_snapshot_replays_bitwise(tmp_path, corpus_dir):
    base = ["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl")]
    first, resumed, replay = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(base + ["--out", str(first), "--seed", "0", "--epochs", "1"]
               + TINY_MODEL + TINY_TRAIN[2:]) == 0
    state = str(first / "run_state.bin")
    assert run(base + ["--out", str(resumed), "--resume", state,
                       "--epochs", "2"]) == 0
    assert "model_preset" not in (resumed / "resolved.cfg").read_text()
    assert run(base + ["--out", str(replay), "--resume", state, "--config",
                       str(resumed / "resolved.cfg")]) == 0
    assert (replay / "model.ckpt").read_bytes() == (resumed / "model.ckpt").read_bytes()


def test_resume_rejects_seed_change(tmp_path, corpus_dir, pre_dir, capsys):
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"),
                "--resume", str(pre_dir / "run_state.bin"), "--seed", "5"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_resume_rejects_model_shape_flags(tmp_path, corpus_dir, pre_dir, capsys):
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"),
                "--resume", str(pre_dir / "run_state.bin"),
                "--enc-depth", "3"])
    assert code == 2
    assert "enc_depth" in capsys.readouterr().err


def test_missing_manifest_is_data_error(tmp_path, capsys):
    code = run(["stats", "--manifest", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "x")])
    assert code == 3
    capsys.readouterr()


def test_unknown_config_key_rejected(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 3\nseed = 0\n")
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_duplicate_config_key_rejected(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("seed = 0\nseed = 1\n")
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


def test_unsupported_config_version_rejected(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "v9.cfg"
    cfg.write_text("config_version = 9\nseed = 0\n")
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert code == 2
    assert "config_version" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_numerical_error(tmp_path, corpus_dir, capsys):
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--seed", "0",
                "--epochs", "1", "--warmup-epochs", "0", "--batch-size", "4",
                "--base-lr", "1e14"] + TINY_MODEL)
    assert code == 4
    assert "non-finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rejected runs: every check runs before --out is created


def _manifest(p, labels=None):
    if labels is None:
        return str(p["corpus"] / "manifest.jsonl")
    return str(p["labels"] / f"{labels}.jsonl")


def _finetune(p, *flags, init="scratch"):
    return ["finetune", "--task", "detect", "--init", init,
            "--manifest", _manifest(p), "--seed", "0", *flags] + FT_FLAGS


def _reconstruct(p, ckpt, *ratios):
    return ["reconstruct", "--checkpoint", str(ckpt / "model.ckpt"),
            "--image", str(p["corpus"] / "img_00000.pgm"), "--seed", "0",
            "--mask-ratio", *ratios]


@pytest.mark.parametrize("argv,code", [
    pytest.param(lambda p: ["pretrain", "--manifest", _manifest(p), "--seed", "0",
                            "--mask-ratio", "0.99"] + TINY_MODEL, 2,
                 id="pretrain-no-visible-token"),
    pytest.param(lambda p: ["pretrain", "--manifest", _manifest(p)] + TINY_MODEL, 2,
                 id="pretrain-no-seed"),
    pytest.param(lambda p: ["pretrain", "--manifest", _manifest(p), "--seed", "0",
                            "--epochs", "0"], 2, id="pretrain-zero-epochs"),
    pytest.param(lambda p: ["pretrain", "--manifest", _manifest(p), "--seed", "0",
                            "--recon-loss", "L3"], 2, id="pretrain-bad-loss"),
    pytest.param(lambda p: ["kfold", "--manifest", _manifest(p), "--k", "0",
                            "--seed", "0"], 2, id="kfold-zero-folds"),
    pytest.param(lambda p: _reconstruct(p, p["pre"], "0.25", "0.99"), 2,
                 id="reconstruct-second-ratio-no-visible-token"),
    pytest.param(lambda p: _reconstruct(p, p["ft"], "0.75"), 2,
                 id="reconstruct-finetuned-checkpoint"),
    pytest.param(lambda p: ["eval", "--checkpoint", str(p["pre"] / "model.ckpt"),
                            "--manifest", _manifest(p)], 2,
                 id="eval-pretrain-checkpoint"),
    pytest.param(lambda p: _finetune(p, init="bogus"), 2,
                 id="finetune-bad-init"),
    pytest.param(lambda p: _finetune(p, "--fold", "5", "--num-folds", "3"), 2,
                 id="finetune-fold-out-of-range"),
    pytest.param(lambda p: _finetune(p, "--fold", "0", "--eval-manifest",
                                     _manifest(p)), 2,
                 id="finetune-fold-and-eval-manifest"),
    pytest.param(lambda p: _finetune(p, "--eval-manifest", _manifest(p),
                                     "--fraction", "0.3"), 2,
                 id="finetune-fraction-off-table"),
    pytest.param(lambda p: _finetune(p, "--eval-every", "1"), 2,
                 id="finetune-eval-every-without-held-out"),
    pytest.param(lambda p: ["finetune", "--task", "detect", "--init", "scratch",
                            "--manifest", str(p["corpus"] / "missing.jsonl"),
                            "--seed", "0"], 3, id="finetune-missing-manifest"),
    pytest.param(lambda p: ["ablate-loss", "--manifest", _manifest(p),
                            "--eval-manifest", _manifest(p), "--seed", "0",
                            "--mask-ratio", "0.99"] + TINY_MODEL, 2,
                 id="ablate-no-visible-token"),
    pytest.param(lambda p: ["ablate-loss", "--manifest", _manifest(p),
                            "--eval-manifest", _manifest(p), "--seed", "0",
                            "--norm-pix-target", "false"] + TINY_MODEL, 2,
                 id="ablate-norm-pix-target-flag"),
    pytest.param(lambda p: ["finetune", "--task", "intensity", "--init", "scratch",
                            "--manifest", _manifest(p), "--eval-manifest",
                            _manifest(p, "no_intensity"), "--seed", "0"] + FT_FLAGS, 2,
                 id="finetune-intensity-eval-without-intensity"),
    pytest.param(lambda p: ["finetune", "--task", "detect", "--init", "scratch",
                            "--manifest", _manifest(p, "no_occurrence"),
                            "--seed", "0"] + FT_FLAGS, 2,
                 id="finetune-detect-without-occurrence"),
    pytest.param(lambda p: ["ablate-loss", "--manifest", _manifest(p, "no_occurrence"),
                            "--eval-manifest", _manifest(p), "--seed", "0"] + TINY_MODEL, 2,
                 id="ablate-train-without-occurrence"),
    pytest.param(lambda p: ["pretrain", "--manifest", _manifest(p, "empty"),
                            "--seed", "0"] + TINY_MODEL, 2,
                 id="pretrain-header-only-manifest"),
    pytest.param(lambda p: ["ablate-loss", "--manifest", _manifest(p),
                            "--eval-manifest", _manifest(p), "--seed", "0",
                            "--mask-ratio", "0"] + TINY_MODEL, 2,
                 id="ablate-mask-ratio-zero"),
])
def test_rejected_run_leaves_out_absent(tmp_path, corpus_dir, pre_dir, ft_dir,
                                        labels_dir, capsys, argv, code):
    out = tmp_path / "out"
    paths = {"corpus": corpus_dir, "pre": pre_dir, "ft": ft_dir,
             "labels": labels_dir}
    assert run(argv(paths) + ["--out", str(out)]) == code
    assert "error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# finetune / eval


FT_FLAGS = TINY_MODEL + TINY_TRAIN + [
    "--mixup-alpha", "0", "--cutmix-alpha", "0", "--randaug-prob", "0",
    "--drop-path-rate", "0",
]


def test_finetune_fold_writes_metrics(tmp_path, corpus_dir, pre_dir):
    out = tmp_path / "ft"
    code = run(["finetune", "--task", "detect", "--init",
                "checkpoint:" + str(pre_dir / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--fold", "0", "--num-folds", "3",
                "--out", str(out), "--seed", "0"] + FT_FLAGS)
    assert code == 0
    csv = (out / "metrics.csv").read_text()
    header = csv.splitlines()[0]
    assert header.startswith("au,") and "f1" in header
    names = [line.split(",")[0] for line in csv.strip().splitlines()[1:]]
    assert names[-1] == "avg"
    assert "Avg." in (out / "metrics.txt").read_text()
    assert (out / "model.ckpt").exists()


def test_finetune_scratch_intensity(tmp_path, corpus_dir):
    out = tmp_path / "ft"
    code = run(["finetune", "--task", "intensity", "--init", "scratch",
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--eval-manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--seed", "1"] + FT_FLAGS)
    assert code == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    for metric in ("icc", "mse", "mae"):
        assert metric in header


def test_finetune_same_seed_same_checkpoint(tmp_path, corpus_dir, pre_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["finetune", "--task", "detect", "--init",
                    "checkpoint:" + str(pre_dir / "model.ckpt"),
                    "--manifest", str(corpus_dir / "manifest.jsonl"),
                    "--fold", "0", "--out", str(out), "--seed", "0"]
                   + FT_FLAGS) == 0
        outs.append(out)
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()


@pytest.mark.parametrize("epochs,eval_every,calls", [
    ("2", "1", 2),  # the report at the last epoch is the final one
    ("3", "2", 2),  # one periodic report, then the final weights
    ("2", "0", 1),  # the final weights only
])
def test_finetune_scores_final_weights_once(tmp_path, corpus_dir, monkeypatch,
                                            epochs, eval_every, calls):
    scored = []
    for module in (faceau.train, cli):
        def counting(*args, _evaluate=module.evaluate, **kwargs):
            scored.append(1)
            return _evaluate(*args, **kwargs)
        monkeypatch.setattr(module, "evaluate", counting)
    manifest = str(corpus_dir / "manifest.jsonl")
    out = tmp_path / "ft"
    assert run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", manifest, "--eval-manifest", manifest,
                "--out", str(out), "--seed", "0"] + FT_FLAGS
               + ["--epochs", epochs, "--eval-every", eval_every]) == 0
    assert len(scored) == calls
    # metrics.csv is the report of the weights in model.ckpt
    again = tmp_path / "ev"
    assert run(["eval", "--checkpoint", str(out / "model.ckpt"),
                "--manifest", manifest, "--out", str(again)]) == 0
    assert (again / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_finetune_fraction_reports_subset(tmp_path, capsys):
    data = tmp_path / "d"
    assert run(["synth", "--seed", "2", "--count", "400", "--num-subjects",
                "4", "--image-size", "16", "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "ft"
    code = run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", str(data / "manifest.jsonl"),
                "--eval-manifest", str(data / "manifest.jsonl"),
                "--fraction", "0.1",
                "--out", str(out), "--seed", "0",
                "--epochs", "2", "--warmup-epochs", "1"] + TINY_MODEL + [
                "--batch-size", "4", "--base-lr", "1e-3",
                "--mixup-alpha", "0", "--cutmix-alpha", "0",
                "--randaug-prob", "0", "--drop-path-rate", "0"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "every 10-th frame" in printed
    assert "200 epochs" in printed
    # the sparse protocol dictates the epoch budget
    assert "epochs = 200" in (out / "resolved.cfg").read_text()


def test_finetune_fold_and_eval_manifest_conflict(tmp_path, corpus_dir, capsys):
    code = run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--eval-manifest", str(corpus_dir / "manifest.jsonl"),
                "--fold", "0", "--out", str(tmp_path / "x"), "--seed", "0"]
               + FT_FLAGS)
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_finetune_bad_init_string(tmp_path, corpus_dir, capsys):
    code = run(["finetune", "--task", "detect", "--init", "warmstart",
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--seed", "0"] + FT_FLAGS)
    assert code == 2
    assert "scratch" in capsys.readouterr().err


@pytest.mark.parametrize("fold,num_folds,message", [
    ("0", "0", "at least 1"), ("3", "3", "0..2"), ("-1", "3", "0..2")])
def test_finetune_rejects_fold_outside_range(tmp_path, corpus_dir, fold, num_folds,
                                             message, capsys):
    code = run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--fold", fold, "--num-folds", num_folds,
                "--out", str(tmp_path / "x"), "--seed", "0"] + FT_FLAGS)
    assert code == 2
    assert message in capsys.readouterr().err


def test_eval_reports_per_au_rows(tmp_path, corpus_dir, pre_dir, capsys):
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "detect", "--init",
                "checkpoint:" + str(pre_dir / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--fold", "0", "--out", str(ft), "--seed", "0"]
               + FT_FLAGS) == 0
    capsys.readouterr()
    out = tmp_path / "ev"
    code = run(["eval", "--checkpoint", str(ft / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--threshold", "0.6"])
    assert code == 0
    printed = capsys.readouterr().out
    manifest = read_manifest(str(corpus_dir / "manifest.jsonl"))
    for name in manifest.au_names:
        assert name in printed
    assert "Avg." in printed


def test_eval_rejects_pretrain_checkpoint(tmp_path, corpus_dir, pre_dir, capsys):
    code = run(["eval", "--checkpoint", str(pre_dir / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "pre-training" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_is_data_error(tmp_path, corpus_dir, pre_dir,
                                               capsys):
    stub = tmp_path / "c.ckpt"
    stub.write_bytes((pre_dir / "model.ckpt").read_bytes()[:100])
    code = run(["eval", "--checkpoint", str(stub),
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x")])
    assert code == 3
    capsys.readouterr()


def _reseal(body):
    return body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF)


def _rewrite_meta(raw, edit):
    """A real container with `edit` applied to its meta JSON and its
    checksum recomputed, so only the content is malformed."""
    (meta_len,) = struct.unpack("<I", raw[8:12])
    meta = json.loads(raw[12:12 + meta_len])
    edit(meta)
    new = json.dumps(meta, sort_keys=True).encode()
    return _reseal(raw[:8] + struct.pack("<I", len(new)) + new
                   + raw[12 + meta_len:-4])


def _rewrite_first_param(raw, name_byte=None, offset=None):
    """A real model.ckpt with its first table entry's name or offset
    replaced and its checksum recomputed."""
    body = bytearray(raw[:-4])
    (meta_len,) = struct.unpack("<I", body[8:12])
    pos = 12 + meta_len + 4  # past the meta JSON and n_params
    (name_len,) = struct.unpack("<H", body[pos:pos + 2])
    if name_byte is not None:
        body[pos + 2] = name_byte
    pos += 2 + name_len
    pos += 1 + 4 * body[pos]  # ndim, dims
    if offset is not None:
        body[pos:pos + 8] = struct.pack("<Q", offset)
    return _reseal(bytes(body))


def _entry(meta, **fields):
    meta["arrays"][0].update(fields)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda m: m.pop("epoch"), id="no-epoch"),
    pytest.param(lambda m: m.pop("opt_step"), id="no-opt-step"),
    pytest.param(lambda m: m.pop("rng"), id="no-rng"),
    pytest.param(lambda m: m.pop("arrays"), id="no-arrays"),
    pytest.param(lambda m: m["arrays"][0].pop("key"), id="entry-no-key"),
    pytest.param(lambda m: m["arrays"][0].pop("shape"), id="entry-no-shape"),
    pytest.param(lambda m: m["arrays"][0].pop("offset"), id="entry-no-offset"),
    pytest.param(lambda m: _entry(m, offset=-4), id="negative-offset"),
    pytest.param(lambda m: _entry(m, offset=1 << 40), id="offset-past-end"),
    pytest.param(lambda m: m.update(epoch="1"), id="epoch-not-a-count"),
    pytest.param(lambda m: m["rng"].update(mask={}), id="bad-rng-state"),
    pytest.param(lambda m: m["model"].update(bogus=1), id="unknown-model-field"),
    pytest.param(lambda m: m["model"].update(enc_heads=0), id="invalid-model-field"),
    pytest.param(lambda m: m["train"].pop("epochs"), id="missing-train-field"),
    pytest.param(lambda m: m["train"].update(epochs=0), id="invalid-train-field"),
])
def test_resume_malformed_run_state_is_data_error(tmp_path, corpus_dir, pre_dir,
                                                  capsys, edit):
    raw = (pre_dir / "run_state.bin").read_bytes()
    assert _rewrite_meta(raw, lambda m: None) == raw
    bad = tmp_path / "run_state.bin"
    bad.write_bytes(_rewrite_meta(raw, edit))
    code = run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x"), "--resume", str(bad)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rewrite", [
    pytest.param(lambda raw: _rewrite_first_param(raw, name_byte=0xFF),
                 id="non-utf8-name"),
    pytest.param(lambda raw: _rewrite_first_param(raw, offset=1 << 40),
                 id="offset-past-end"),
    pytest.param(lambda raw: _rewrite_meta(raw, lambda m: m.update(bogus=1)),
                 id="unknown-config-field"),
    pytest.param(lambda raw: _rewrite_meta(raw, lambda m: m.update(enc_heads=0)),
                 id="invalid-config-field"),
])
def test_reconstruct_malformed_checkpoint_is_data_error(tmp_path, corpus_dir,
                                                        pre_dir, capsys, rewrite):
    raw = (pre_dir / "model.ckpt").read_bytes()
    assert _rewrite_first_param(raw) == raw
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(rewrite(raw))
    code = run(["reconstruct", "--checkpoint", str(bad),
                "--image", str(corpus_dir / "img_00000.pgm"),
                "--mask-ratio", "0.75", "--seed", "0",
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_triptych_layout_and_mask_census(tmp_path, corpus_dir,
                                                     pre_dir):
    out = tmp_path / "rc"
    image_path = str(corpus_dir / "img_00000.pgm")
    assert run(["reconstruct", "--checkpoint", str(pre_dir / "model.ckpt"),
                "--image", image_path, "--mask-ratio", "0.75",
                "--seed", "3", "--out", str(out)]) == 0
    triptych = read_image(str(out / "triptych_075.ppm"))
    assert triptych.shape == (3, 16, 48)
    original = to_float(read_image(image_path))
    panels = [to_float(triptych[0:1, :, i * 16:(i + 1) * 16])
              for i in range(3)]
    # right panel is the untouched input
    assert np.array_equal(panels[2], original)
    # replay the mask draw the command made
    rng = np.random.default_rng(3)
    plan = sample_mask(16, 0.75, rng)
    assert plan.masked_idx.size == 12
    orig_patches = patchify(original, 4)
    left = patchify(panels[0], 4)
    mid = patchify(panels[1], 4)
    gray = 128.0 / 255.0
    masked = set(plan.masked_idx.tolist())
    for idx in range(16):
        if idx in masked:
            assert np.allclose(left[idx], gray)
        else:
            assert np.array_equal(left[idx], orig_patches[idx])
            assert np.array_equal(mid[idx], orig_patches[idx])


def test_reconstruct_ratio_zero_copies_input(tmp_path, corpus_dir, pre_dir):
    out = tmp_path / "rc0"
    image_path = str(corpus_dir / "img_00001.pgm")
    assert run(["reconstruct", "--checkpoint", str(pre_dir / "model.ckpt"),
                "--image", image_path, "--mask-ratio", "0.0",
                "--seed", "0", "--out", str(out)]) == 0
    triptych = read_image(str(out / "triptych_000.ppm"))
    original = read_image(image_path)
    rgb = np.repeat(original, 3, axis=0)
    for i in range(3):
        assert np.array_equal(triptych[:, :, i * 16:(i + 1) * 16], rgb)


def test_reconstruct_multiple_ratios_named_by_percent(tmp_path, corpus_dir,
                                                      pre_dir):
    out = tmp_path / "rcm"
    assert run(["reconstruct", "--checkpoint", str(pre_dir / "model.ckpt"),
                "--image", str(corpus_dir / "img_00000.pgm"),
                "--mask-ratio", "0.25", "0.5", "0.9",
                "--seed", "7", "--out", str(out)]) == 0
    for name in ("triptych_025.ppm", "triptych_050.ppm", "triptych_090.ppm"):
        assert (out / name).exists()


def test_reconstruct_rejects_bad_ratio(tmp_path, corpus_dir, pre_dir, capsys):
    code = run(["reconstruct", "--checkpoint", str(pre_dir / "model.ckpt"),
                "--image", str(corpus_dir / "img_00000.pgm"),
                "--mask-ratio", "1.0", "--seed", "0",
                "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def test_reconstruct_rejects_ratio_leaving_no_visible_patch(tmp_path, corpus_dir,
                                                           pre_dir, capsys):
    code = run(["reconstruct", "--checkpoint", str(pre_dir / "model.ckpt"),
                "--image", str(corpus_dir / "img_00000.pgm"),
                "--mask-ratio", "0.99", "--seed", "0",
                "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "0.99" in err and "16 tokens" in err


def test_reconstruct_rejects_finetuned_checkpoint(tmp_path, corpus_dir,
                                                  pre_dir, capsys):
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--fold", "0", "--out", str(ft), "--seed", "0"]
               + FT_FLAGS) == 0
    capsys.readouterr()
    code = run(["reconstruct", "--checkpoint", str(ft / "model.ckpt"),
                "--image", str(corpus_dir / "img_00000.pgm"),
                "--mask-ratio", "0.75", "--seed", "0",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "decoder" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablation harness


def test_ablate_grid_rows_and_reproducibility(tmp_path, corpus_dir):
    manifest = str(corpus_dir / "manifest.jsonl")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["ablate-loss", "--manifest", manifest,
                    "--eval-manifest", manifest, "--out", str(out),
                    "--seed", "0", "--pretrain-epochs", "2",
                    "--finetune-epochs", "2", "--batch-size", "4"]
                   + TINY_MODEL) == 0
        outs.append(out)
    text = (outs[0] / "ablation.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == ("variant,recon_loss,norm_pix_target,data_order,"
                        "pretrain_loss,avg_f1")
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants == ["L2 w/o norm", "L2 w/ norm", "L1 w/o norm",
                        "L1 w/ norm"]
    hashes = {line.split(",")[3] for line in lines[1:]}
    assert len(hashes) == 1  # all four runs consumed the same data order
    assert text == (outs[1] / "ablation.csv").read_text()


def test_ablate_snapshot_replays_bitwise(tmp_path, corpus_dir):
    manifest = str(corpus_dir / "manifest.jsonl")
    base = ["ablate-loss", "--manifest", manifest, "--eval-manifest", manifest]
    first, replay = tmp_path / "a", tmp_path / "b"
    assert run(base + ["--out", str(first), "--seed", "0", "--pretrain-epochs",
                       "1", "--finetune-epochs", "1", "--batch-size", "4"]
               + TINY_MODEL) == 0
    assert run(base + ["--out", str(replay), "--config",
                       str(first / "resolved.cfg")]) == 0
    assert ((replay / "ablation.csv").read_bytes()
            == (first / "ablation.csv").read_bytes())
