"""End-to-end checks of the command-line surface: exit codes, output files,
determinism across re-runs, and resume behavior."""

import argparse
import binascii
import dataclasses
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faceau
import faceau.data
import faceau.train
from faceau import cli
from faceau.data import (load_corpus, read_image, read_manifest, rotate_about,
                         to_float, transform_points, write_image, write_manifest)
from faceau.model import patchify, sample_mask
from faceau.synth import synth_corpus, write_corpus

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


def test_tooling_snapshots_record_their_arguments(tmp_path, corpus_dir,
                                                  pre_dir, ft_dir):
    m = str(corpus_dir / "manifest.jsonl")
    image = str(corpus_dir / "img_00000.pgm")
    pre, ft = str(pre_dir / "model.ckpt"), str(ft_dir / "model.ckpt")
    cases = {
        "eval": (["--checkpoint", ft, "--manifest", m],
                 [f"checkpoint = {ft}", f"manifest = {m}", "threshold = 0.5"]),
        "reconstruct": (["--checkpoint", pre, "--image", image,
                         "--mask-ratio", "0.5", "0.75", "--seed", "3"],
                        [f"checkpoint = {pre}", f"image = {image}",
                         "mask_ratio = 0.5,0.75", "seed = 3"]),
        "stats": (["--manifest", m], [f"manifest = {m}"]),
        "synth": (["--seed", "2", "--count", "3", "--image-size", "16"],
                  ["seed = 2", "count = 3", "image_size = 16",
                   "num_subjects = 10", "num_aus = 4"]),
        "subsample": (["--manifest", m, "--n", "2"], [f"manifest = {m}", "n = 2"]),
        "align": (["--manifest", m], [f"manifest = {m}"]),
        "kfold": (["--manifest", m, "--k", "3", "--seed", "1"],
                  [f"manifest = {m}", "k = 3", "seed = 1"]),
    }
    for command, (flags, values) in cases.items():
        out = tmp_path / command
        assert run([command, *flags, "--out", str(out)]) == 0
        lines = (out / "resolved.cfg").read_text().splitlines()
        assert lines == [f"# faceau {command}", "config_version = 1", *values]


def test_finetune_snapshot_records_its_other_arguments(corpus_dir, ft_dir):
    # settings are keys; every other argument but --out and --config is a
    # comment, in parse order
    lines = (ft_dir / "resolved.cfg").read_text().splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        "# faceau finetune", "# task = detect", "# init = scratch",
        f"# manifest = {corpus_dir / 'manifest.jsonl'}", "# fold = 0",
        "# num_folds = 3"]


def _small_corpus(tmp_path):
    data = tmp_path / "d"
    assert run(["synth", "--seed", "2", "--count", "6", "--num-subjects", "3",
                "--image-size", "16", "--out", str(data)]) == 0
    return data


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _edit_image_path(data, index, new_path):
    manifest = read_manifest(str(data / "manifest.jsonl"))
    records = list(manifest.records)
    records[index] = dataclasses.replace(records[index], image_path=new_path)
    write_manifest(dataclasses.replace(manifest, records=records),
                   str(data / "manifest.jsonl"))


@pytest.mark.parametrize("command", [["subsample", "--n", "3"], ["align"]])
def test_tooling_refuses_to_write_over_its_inputs(tmp_path, command, capsys):
    data = _small_corpus(tmp_path)
    before = _tree(data)
    assert run([command[0], "--manifest", str(data / "manifest.jsonl"),
                *command[1:], "--out", str(data)]) == 2
    assert "one of this command's inputs" in capsys.readouterr().err
    assert _tree(data) == before  # no resolved.cfg either


@pytest.mark.parametrize("outside", [
    pytest.param(lambda data, name: str(data / name), id="absolute"),
    pytest.param(lambda data, name: os.path.join("..", data.name, name),
                 id="parent"),
])
def test_align_rejects_image_outside_manifest_dir(tmp_path, outside, capsys):
    data = _small_corpus(tmp_path)
    _edit_image_path(data, 1, outside(data, "img_00001.pgm"))
    before = _tree(data)
    out = tmp_path / "al"
    assert run(["align", "--manifest", str(data / "manifest.jsonl"),
                "--out", str(out)]) == 3
    assert "record 1" in capsys.readouterr().err
    assert _tree(data) == before
    assert not out.exists()


def test_align_rejects_coincident_eyes_naming_the_record(tmp_path, capsys):
    data = _small_corpus(tmp_path)
    manifest = read_manifest(str(data / "manifest.jsonl"))
    records = list(manifest.records)
    landmarks = records[1].landmarks.copy()
    landmarks[1] = landmarks[0]
    records[1] = dataclasses.replace(records[1], landmarks=landmarks)
    write_manifest(dataclasses.replace(manifest, records=records),
                   str(data / "manifest.jsonl"))
    out = tmp_path / "al"
    assert run(["align", "--manifest", str(data / "manifest.jsonl"),
                "--out", str(out)]) == 3
    assert "record 1" in capsys.readouterr().err
    assert not out.exists()


def test_align_writes_images_in_subdirectories(tmp_path):
    data = _small_corpus(tmp_path)
    (data / "sub").mkdir()
    (data / "img_00001.pgm").rename(data / "sub" / "img_00001.pgm")
    _edit_image_path(data, 1, "sub/img_00001.pgm")
    before = _tree(data)
    out = tmp_path / "al"
    assert run(["align", "--manifest", str(data / "manifest.jsonl"),
                "--out", str(out)]) == 0
    assert _tree(data) == before
    assert (out / "sub" / "img_00001.pgm").is_file()
    assert len(load_corpus(read_manifest(str(out / "manifest.jsonl")))) == 6


def test_align_levels_tilted_eyes(tmp_path):
    # tilt record 0's face and landmarks by 0.3 rad: align must rotate it back
    data = _small_corpus(tmp_path)
    manifest = read_manifest(str(data / "manifest.jsonl"))
    records = list(manifest.records)
    path = manifest.resolve(records[0])
    center = (7.5, 7.5)
    tilted = rotate_about(read_image(path), center, 0.3)
    write_image(tilted, path)
    landmarks = transform_points(records[0].landmarks, center, 0.3)
    assert abs(landmarks[0, 1] - landmarks[1, 1]) > 1.0
    records[0] = dataclasses.replace(records[0], landmarks=landmarks)
    write_manifest(dataclasses.replace(manifest, records=records),
                   str(data / "manifest.jsonl"))
    out = tmp_path / "al"
    assert run(["align", "--manifest", str(data / "manifest.jsonl"),
                "--out", str(out)]) == 0
    aligned = read_manifest(str(out / "manifest.jsonl"))
    eyes = aligned.records[0].landmarks[:2]
    assert abs(eyes[0, 1] - eyes[1, 1]) <= 0.5
    assert not np.array_equal(read_image(aligned.resolve(aligned.records[0])), tilted)


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


def test_resuming_a_finished_pretrain_changes_nothing(tmp_path, corpus_dir, pre_dir, capsys):
    out = tmp_path / "done"
    shutil.copytree(pre_dir, out)
    capsys.readouterr()
    assert run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--resume", str(out / "run_state.bin")]) == 0
    assert "nothing to do" in capsys.readouterr().out
    for name in ("model.ckpt", "trace.csv", "run_state.bin"):
        assert (out / name).read_bytes() == (pre_dir / name).read_bytes(), name


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # a desk-width pretrain in two processes, at one and at two OpenBLAS
    # threads
    data = tmp_path / "data"
    assert run(["synth", "--seed", "5", "--count", "8", "--out", str(data)]) == 0
    out = tmp_path / "run"
    src = str(Path(faceau.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run(
            [sys.executable, "-m", "faceau.cli", "pretrain",
             "--manifest", str(data / "manifest.jsonl"), "--out", str(out),
             "--seed", "0", "--epochs", "2", "--warmup-epochs", "1",
             "--batch-size", "4", "--random-crop", "true"],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            check=True, capture_output=True)
        runs.append({name: (out / name).read_bytes()
                     for name in ("model.ckpt", "trace.csv", "run_state.bin")})
    assert runs[0] == runs[1]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the command line (and with it every module of the package) has no
    # scipy module loaded
    src = str(Path(faceau.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = ("import sys, faceau.cli\n"
             "print(faceau.cli.__file__)\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().parent == Path(src) / "faceau"
    assert loaded == "[]"


def _pretrain_21(corpus_dir, out, *flags):
    return run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(out), "--seed", "0", "--epochs", "21"]
               + TINY_MODEL + TINY_TRAIN[2:] + list(flags))


def test_run_state_writes_are_bounded(tmp_path, corpus_dir, monkeypatch):
    epochs = []

    def counting(path, state, _save=faceau.train.save_run_state):
        _save(path, state)
        epochs.append(state.epoch)
    monkeypatch.setattr(faceau.train, "save_run_state", counting)
    assert _pretrain_21(corpus_dir, tmp_path / "a") == 0
    # ceil(21 / 20) = 2: every second epoch, and the last one always
    assert epochs == list(range(2, 21, 2)) + [21]
    cfg = (tmp_path / "a" / "resolved.cfg").read_text().splitlines()
    assert "checkpoint_every = 2" in cfg
    epochs.clear()
    assert _pretrain_21(corpus_dir, tmp_path / "b", "--checkpoint-every", "1") == 0
    assert epochs == list(range(1, 22))


class _Killed(BaseException):
    """Stands for the process dying; main's error handlers let it through."""


def test_run_stopped_after_a_write_resumes_bitwise(tmp_path, corpus_dir,
                                                   monkeypatch):
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    assert _pretrain_21(corpus_dir, whole) == 0
    epochs = []

    def dying(path, state, _save=faceau.train.save_run_state):
        _save(path, state)
        epochs.append(state.epoch)
        if len(epochs) == 3:
            raise _Killed
    monkeypatch.setattr(faceau.train, "save_run_state", dying)
    with pytest.raises(_Killed):
        _pretrain_21(corpus_dir, cut)
    assert epochs == [2, 4, 6]
    state = cut / "run_state.bin"
    assert faceau.train.load_run_state(str(state)).epoch == 6
    assert not (cut / "model.ckpt").exists()
    monkeypatch.undo()
    assert run(["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(cut), "--resume", str(state)]) == 0
    for name in ("model.ckpt", "trace.csv", "run_state.bin"):
        assert (cut / name).read_bytes() == (whole / name).read_bytes(), name


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


def test_resume_accepts_its_own_snapshot(tmp_path, corpus_dir, pre_dir, capsys):
    # resolved.cfg names model_preset; it agrees with the run state, so the
    # resume equals a flag-only one, while another preset is still a clash
    base = ["pretrain", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--resume", str(pre_dir / "run_state.bin")]
    snap, flags = tmp_path / "snap", tmp_path / "flags"
    assert run(base + ["--config", str(pre_dir / "resolved.cfg"), "--epochs", "3",
                       "--out", str(snap)]) == 0
    assert run(base + ["--epochs", "3", "--out", str(flags)]) == 0
    for name in ("model.ckpt", "trace.csv"):
        assert (snap / name).read_bytes() == (flags / name).read_bytes(), name
    capsys.readouterr()
    assert run(base + ["--model-preset", "full", "--out", str(tmp_path / "x")]) == 2
    assert "['model_preset']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def _pretrain(p, *flags):
    # the last of a repeated flag wins, so `flags` override the tiny run's
    return ["pretrain", "--manifest", _manifest(p), "--seed", "0",
            *TINY_MODEL, *TINY_TRAIN, *flags]


def _eval(p, *flags):
    return ["eval", "--checkpoint", str(p["ft"] / "model.ckpt"),
            "--manifest", _manifest(p), *flags]


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
    pytest.param(lambda p: _reconstruct(p, p["pre"], "inf"), 2,
                 id="reconstruct-mask-ratio-inf"),
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
    pytest.param(lambda p: _finetune(p, "--fraction", "0.1")
                 + ["--warmup-epochs", "201"], 2,
                 id="finetune-fraction-warmup-above-protocol-epochs"),
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
    pytest.param(lambda p: _pretrain(p, "--base-lr", "nan"), 2,
                 id="pretrain-base-lr-nan"),
    pytest.param(lambda p: _pretrain(p, "--weight-decay", "inf"), 2,
                 id="pretrain-weight-decay-inf"),
    pytest.param(lambda p: _pretrain(p, "--mlp-ratio", "inf"), 2,
                 id="pretrain-mlp-ratio-inf"),
    pytest.param(lambda p: _pretrain(p, "--mlp-ratio", "1e308"), 2,
                 id="pretrain-mlp-ratio-overflow"),
    pytest.param(lambda p: _pretrain(p, "--mlp-ratio", "0"), 2,
                 id="pretrain-mlp-ratio-zero"),
    pytest.param(lambda p: _pretrain(p, "--enc-heads", "0"), 2,
                 id="pretrain-enc-heads-zero"),
    pytest.param(lambda p: _pretrain(p, "--dec-heads", "0"), 2,
                 id="pretrain-dec-heads-zero"),
    pytest.param(lambda p: _pretrain(p, "--patch-size", "0"), 2,
                 id="pretrain-patch-size-zero"),
    pytest.param(lambda p: _pretrain(p, "--enc-width", "0", "--enc-heads", "1"), 2,
                 id="pretrain-enc-width-zero"),
    pytest.param(lambda p: _pretrain(p, "--enc-heads", "-2"), 2,
                 id="pretrain-enc-heads-negative"),
    pytest.param(lambda p: _pretrain(p, "--patch-size", "-4"), 2,
                 id="pretrain-patch-size-negative"),
    pytest.param(lambda p: _pretrain(p, "--mlp-ratio", "0.001"), 2,
                 id="pretrain-mlp-hidden-width-zero"),
    pytest.param(lambda p: _pretrain(p, "--enc-depth", "-1"), 2,
                 id="pretrain-enc-depth-negative"),
    pytest.param(lambda p: ["ablate-loss", "--manifest", _manifest(p),
                            "--eval-manifest", _manifest(p), "--seed", "0",
                            *TINY_MODEL, "--enc-width", "6", "--enc-heads", "2"], 2,
                 id="ablate-enc-width-not-divisible-by-4"),
    pytest.param(lambda p: ["synth", "--seed", "1", "--count", "2",
                            "--image-size", "0"], 2, id="synth-image-size-zero"),
    pytest.param(lambda p: _finetune(p) + ["--drop-path-rate", "nan"], 2,
                 id="finetune-drop-path-rate-nan"),
    pytest.param(lambda p: _eval(p, "--threshold", "nan"), 2, id="eval-threshold-nan"),
    pytest.param(lambda p: _eval(p, "--threshold", "2"), 2, id="eval-threshold-above-one"),
    pytest.param(lambda p: _eval(p, "--threshold", "-1"), 2, id="eval-threshold-negative"),
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


@pytest.mark.parametrize("warmup,flags", [
    ("10", []),  # the detect preset's warmup, above the given --epochs 5
    ("30", ["--warmup-epochs", "30"]),
])
def test_finetune_fraction_sets_the_budget_before_the_checks(tmp_path, corpus_dir,
                                                             warmup, flags):
    # every 10th frame of each of the 3 subjects: 200 steps of 3 records
    out = tmp_path / "ft"
    assert run(["finetune", "--task", "detect", "--init", "scratch",
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--fraction", "0.1", "--epochs", "5", "--out", str(out),
                "--seed", "0", *TINY_MODEL, "--batch-size", "4",
                "--base-lr", "1e-3", *flags]) == 0
    lines = (out / "resolved.cfg").read_text().splitlines()
    for line in ("epochs = 200", f"warmup_epochs = {warmup}", "checkpoint_every = 10"):
        assert line in lines


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


def test_eval_checks_labels_before_decoding(tmp_path, ft_dir, labels_dir,
                                           monkeypatch, capsys):
    decoded = []

    def counting(path, _read=faceau.data.read_image):
        decoded.append(path)
        return _read(path)
    monkeypatch.setattr(faceau.data, "read_image", counting)
    out = tmp_path / "x"
    code = run(["eval", "--checkpoint", str(ft_dir / "model.ckpt"),
                "--manifest", str(labels_dir / "no_occurrence.jsonl"),
                "--out", str(out)])
    assert code == 2
    assert "occurrence" in capsys.readouterr().err
    assert decoded == []
    assert not out.exists()


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


def _rewrite_first_param(raw, name_byte=None, offset=None, name_len=None, name=None):
    """A real container with its first table entry's name (or one byte of
    it), offset or name length replaced and its checksum recomputed."""
    body = bytearray(raw[:-4])
    (meta_len,) = struct.unpack("<I", body[8:12])
    pos = 12 + meta_len + 4  # past the meta JSON and n_params
    (stored_len,) = struct.unpack("<H", body[pos:pos + 2])
    if name is not None:  # offsets count from the data block: none shift
        body[pos:pos + 2 + stored_len] = struct.pack("<H", len(name)) + name
        stored_len = len(name)
    if name_len is not None:
        body[pos:pos + 2] = struct.pack("<H", name_len)
    if name_byte is not None:
        body[pos + 2] = name_byte
    pos += 2 + stored_len
    pos += 1 + 4 * body[pos]  # ndim, dims
    if offset is not None:
        body[pos:pos + 8] = struct.pack("<Q", offset)
    return _reseal(bytes(body))


def _meta(edit):
    return lambda raw: _rewrite_meta(raw, edit)


@pytest.mark.parametrize("rewrite", [
    pytest.param(_meta(lambda m: m.pop("epoch")), id="no-epoch"),
    pytest.param(_meta(lambda m: m.pop("opt_step")), id="no-opt-step"),
    pytest.param(_meta(lambda m: m.pop("rng")), id="no-rng"),
    pytest.param(lambda raw: _rewrite_first_param(raw, name_byte=0xFF),
                 id="non-utf8-key"),
    pytest.param(lambda raw: _rewrite_first_param(raw, offset=1 << 40),
                 id="offset-past-end"),
    pytest.param(lambda raw: _reseal(raw[:4] + struct.pack("<I", 1) + raw[8:-4]),
                 id="version-1-header"),
    pytest.param(_meta(lambda m: m.update(epoch="1")), id="epoch-not-a-count"),
    pytest.param(_meta(lambda m: m["rng"].update(mask={})), id="bad-rng-state"),
    pytest.param(_meta(lambda m: m["model"].update(bogus=1)), id="unknown-model-field"),
    pytest.param(_meta(lambda m: m["model"].update(enc_heads=0)), id="invalid-model-field"),
    pytest.param(_meta(lambda m: m["train"].pop("epochs")), id="missing-train-field"),
    pytest.param(_meta(lambda m: m["train"].update(epochs=0)), id="invalid-train-field"),
    pytest.param(_meta(lambda m: m.pop("trace")), id="no-trace"),
    pytest.param(_meta(lambda m: m["trace"][0].pop()), id="trace-row-of-three"),
    pytest.param(_meta(lambda m: m["trace"].pop()), id="trace-fewer-rows-than-steps"),
    pytest.param(_meta(lambda m: m["trace"][0].__setitem__(3, "0.5")),
                 id="trace-string-loss"),
])
def test_resume_malformed_run_state_is_data_error(tmp_path, corpus_dir, pre_dir,
                                                  capsys, rewrite):
    raw = (pre_dir / "run_state.bin").read_bytes()
    assert _rewrite_meta(raw, lambda m: None) == _rewrite_first_param(raw) == raw
    bad = tmp_path / "run_state.bin"
    bad.write_bytes(rewrite(raw))
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


@pytest.mark.parametrize("name,argv", [
    pytest.param("model.ckpt", lambda bad, manifest, image: [
        "reconstruct", "--checkpoint", bad, "--image", image,
        "--mask-ratio", "0.75", "--seed", "0"], id="model.ckpt"),
    pytest.param("run_state.bin", lambda bad, manifest, image: [
        "pretrain", "--manifest", manifest, "--resume", bad], id="run_state.bin"),
])
def test_malformed_table_error_is_one_short_line(tmp_path, corpus_dir, pre_dir,
                                                 capsys, name, argv):
    # a 0xFFFF key length makes the key swallow the table and part of the
    # data block; the error names the decode failure, not the bytes
    bad = tmp_path / name
    bad.write_bytes(_rewrite_first_param((pre_dir / name).read_bytes(), name_len=0xFFFF))
    code = run(argv(str(bad), str(corpus_dir / "manifest.jsonl"),
                    str(corpus_dir / "img_00000.pgm")) + ["--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 500, err[:200]


@pytest.mark.parametrize("offset,problem", [
    pytest.param(None, "unexpected", id="unexpected-key"),
    pytest.param(1 << 40, "past the data block", id="offset-past-end"),
])
def test_long_stored_key_error_is_one_short_line(tmp_path, corpus_dir, pre_dir,
                                                 capsys, offset, problem):
    # a valid 60,000-character key is quoted capped, not in full
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(_rewrite_first_param((pre_dir / "model.ckpt").read_bytes(),
                                         name=b"k" * 60000, offset=offset))
    code = run(["reconstruct", "--checkpoint", str(bad),
                "--image", str(corpus_dir / "img_00000.pgm"),
                "--mask-ratio", "0.75", "--seed", "0", "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 500, err[:200]
    assert problem in err


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


def test_reconstruct_rejects_ratios_sharing_a_file_name(tmp_path, corpus_dir,
                                                       pre_dir, capsys):
    out = tmp_path / "rc"
    argv = _reconstruct({"corpus": corpus_dir}, pre_dir, "0.75", "0.751")
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "0.75 and 0.751 both write triptych_075.ppm" in err
    assert not out.exists()


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
# three channels


def test_three_channel_chain(tmp_path):
    # pretrain, a detect finetune scored on a held-out manifest, eval and
    # reconstruct, all on P6 faces whose channels differ: (g, 255 - g, g // 2)
    # of each 16-px synth face. The checkpoint hashes hold for one BLAS build
    # (OpenBLAS 0.3.31, Haswell kernels); another kernel may round otherwise.
    corpus = synth_corpus(seed=1, count=12, image_size=16, num_subjects=3)
    corpus.images = [np.concatenate([g, 255 - g, g // 2]) for g in corpus.images]
    corpus.manifest.records = [dataclasses.replace(r, image_path=r.image_path[:-4] + ".ppm")
                               for r in corpus.manifest.records]
    manifest = write_corpus(corpus, str(tmp_path / "data"))
    model = TINY_MODEL + ["--channels", "3"]
    assert run(["pretrain", "--manifest", manifest, "--out", str(tmp_path / "pre"),
                "--seed", "0"] + model + TINY_TRAIN) == 0
    assert run(["finetune", "--task", "detect",
                "--init", "checkpoint:" + str(tmp_path / "pre" / "model.ckpt"),
                "--manifest", manifest, "--eval-manifest", manifest,
                "--out", str(tmp_path / "ft"), "--seed", "0"] + model + TINY_TRAIN) == 0
    assert run(["eval", "--checkpoint", str(tmp_path / "ft" / "model.ckpt"),
                "--manifest", manifest, "--out", str(tmp_path / "ev")]) == 0
    image = str(tmp_path / "data" / "img_00000.ppm")
    assert run(["reconstruct", "--checkpoint", str(tmp_path / "pre" / "model.ckpt"),
                "--image", image, "--mask-ratio", "0.5", "--seed", "3",
                "--out", str(tmp_path / "rc")]) == 0
    triptych = read_image(str(tmp_path / "rc" / "triptych_050.ppm"))
    assert triptych.shape == (3, 16, 48)
    assert np.array_equal(triptych[:, :, 32:], read_image(image))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not np.array_equal(triptych[a, :, :32], triptych[b, :, :32])
    digests = {stage: hashlib.sha256((tmp_path / stage / "model.ckpt").read_bytes()).hexdigest()
               for stage in ("pre", "ft")}
    assert digests == {
        "pre": "bc3d88b5d31f2411b217398827c8fc8fe292397386f1b23d8c4de855d4ec3840",
        "ft": "0659c654dee36e574456057b9e64533bcd5b6411b7b807f6792021416e9a8c1c"}


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


# ---------------------------------------------------------------------------
# inputs the commands must not write over or take in


def test_finetune_refuses_to_write_over_its_init(tmp_path, corpus_dir, ft_dir,
                                                 capsys):
    ft = tmp_path / "ft"
    shutil.copytree(ft_dir, ft)
    before = _tree(ft)
    init = hashlib.sha256((ft / "model.ckpt").read_bytes()).hexdigest()
    code = run(["finetune", "--task", "detect",
                "--init", "checkpoint:" + str(ft / "model.ckpt"),
                "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(ft), "--seed", "0"] + FT_FLAGS)
    assert code == 2
    assert "one of this command's inputs" in capsys.readouterr().err
    assert hashlib.sha256((ft / "model.ckpt").read_bytes()).hexdigest() == init
    assert _tree(ft) == before


@pytest.mark.parametrize("command", ["pretrain", "finetune", "ablate-loss"])
def test_training_command_refuses_to_write_over_its_config(tmp_path, corpus_dir, pre_dir,
                                                           ft_dir, command, capsys):
    # --config <d>/resolved.cfg --out <d> would rewrite the config it read
    m = str(corpus_dir / "manifest.jsonl")
    d = tmp_path / "run"
    if command == "pretrain":
        shutil.copytree(pre_dir, d)
        argv = ["pretrain", "--manifest", m, "--epochs", "3"]
    elif command == "finetune":
        shutil.copytree(ft_dir, d)
        argv = ["finetune", "--task", "detect", "--init", "scratch", "--manifest", m,
                "--fold", "0", "--epochs", "3"]
    else:
        d.mkdir()
        flags = ["--pretrain-epochs", "1", "--finetune-epochs", "1", "--batch-size", "4",
                 *TINY_MODEL]
        (d / "resolved.cfg").write_text("seed = 0\n" + "".join(
            f"{k[2:].replace('-', '_')} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
        argv = ["ablate-loss", "--manifest", m, "--eval-manifest", m]
    before = _tree(d)
    assert run([*argv, "--config", str(d / "resolved.cfg"), "--out", str(d)]) == 2
    assert "one of this command's inputs" in capsys.readouterr().err
    assert _tree(d) == before


@pytest.fixture(scope="module")
def big_dir(tmp_path_factory):
    """A 24-px corpus: the right AU count, the wrong size for TINY_MODEL."""
    out = tmp_path_factory.mktemp("big")
    assert run(["synth", "--seed", "3", "--count", "3", "--num-subjects", "3",
                "--image-size", "24", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("argv", [
    pytest.param(lambda p: ["pretrain", "--manifest", p["big"], "--seed", "0"]
                 + TINY_MODEL, id="pretrain"),
    pytest.param(lambda p: ["finetune", "--task", "detect", "--init", "scratch",
                            "--manifest", p["big"], "--seed", "0"] + FT_FLAGS,
                 id="finetune-train-set"),
    pytest.param(lambda p: ["finetune", "--task", "detect", "--init", "scratch",
                            "--manifest", p["small"], "--eval-manifest", p["big"],
                            "--seed", "0"] + FT_FLAGS, id="finetune-held-out-set"),
    pytest.param(lambda p: ["eval", "--checkpoint", p["ft"], "--manifest", p["big"]],
                 id="eval"),
    pytest.param(lambda p: ["ablate-loss", "--manifest", p["small"],
                            "--eval-manifest", p["big"], "--seed", "0"] + TINY_MODEL,
                 id="ablate-loss"),
    pytest.param(lambda p: ["reconstruct", "--checkpoint", p["pre"], "--image",
                            p["image"], "--mask-ratio", "0.5", "--seed", "0"],
                 id="reconstruct"),
])
def test_image_size_mismatch_is_data_error(tmp_path, corpus_dir, big_dir, pre_dir,
                                           ft_dir, capsys, argv):
    paths = {"big": str(big_dir / "manifest.jsonl"),
             "small": str(corpus_dir / "manifest.jsonl"),
             "image": str(big_dir / "img_00000.pgm"),
             "pre": str(pre_dir / "model.ckpt"), "ft": str(ft_dir / "model.ckpt")}
    out = tmp_path / "out"
    assert run(argv(paths) + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "img_00000.pgm" in err
    assert "(1, 24, 24) does not match model (1, 16, 16)" in err
    assert not out.exists()


# one valid record line; the cases below break one field at a time
_RECORD = {"image": "img.pgm", "subject": "s0", "frame": 0,
           "landmarks": [[4.0, 5.0], [11.0, 5.0], [8.0, 8.0], [5.0, 12.0], [11.0, 12.0]],
           "occurrence": [0, 1], "intensity": [0, 3]}
_HEADER = {"format": "faceau-manifest", "version": 1, "au_names": ["a", "b"]}


def _lines(*objs):
    return "".join((o if isinstance(o, str) else json.dumps(o)) + "\n" for o in objs)


@pytest.mark.parametrize("manifest,image", [
    # read_image, reached through align's decode
    pytest.param(_lines(_HEADER, _RECORD), b"P", id="image-too-short"),
    pytest.param(_lines(_HEADER, _RECORD), b"P5 16 16", id="image-truncated-header"),
    pytest.param(_lines(_HEADER, _RECORD), b"P5 16 x 255\n", id="image-non-numeric-field"),
    pytest.param(_lines(_HEADER, _RECORD), b"P5 0 16 255\n", id="image-bad-dimensions"),
    # align's output paths
    pytest.param(_lines(_HEADER, _RECORD, dict(_RECORD, image="./img.pgm", frame=1,
                                               landmarks=[[4.0, 6.0]]
                                               + _RECORD["landmarks"][1:])),
                 b"P5 16 16 255\n" + bytes(256), id="records-sharing-an-image"),
    # SampleRecord.validate
    pytest.param(_lines(_HEADER, dict(_RECORD, occurrence=[0, 2])), None,
                 id="occurrence-not-binary"),
    pytest.param(_lines(_HEADER, dict(_RECORD, intensity=[1])), None,
                 id="intensity-count"),
    pytest.param(_lines(_HEADER, dict(_RECORD, occurrence=[[0, 1]])), None,
                 id="occurrence-nested"),
    pytest.param(_lines(_HEADER, dict(_RECORD, intensity=[[0, 3]])), None,
                 id="intensity-nested"),
    pytest.param(_lines(_HEADER, dict(_RECORD, intensity=[0, 6])), None,
                 id="intensity-range"),
    pytest.param(_lines(_HEADER, dict(_RECORD, occurrence=[0.5, 1.9])), None,
                 id="occurrence-fractional"),
    pytest.param(_lines(_HEADER, dict(_RECORD, intensity=[2.7, 4.2])), None,
                 id="intensity-fractional"),
    pytest.param(_lines(_HEADER, dict(_RECORD, frame=0.9)), None, id="frame-fractional"),
    pytest.param(_lines(_HEADER, dict(_RECORD, landmarks=[[1.0, 2.0]])), None,
                 id="landmarks-shape"),
    pytest.param(_lines(_HEADER, dict(_RECORD, landmarks=[[-1.0, 0.0]] * 5)), None,
                 id="landmarks-negative"),
    pytest.param(_lines(_HEADER, dict(_RECORD, landmarks=[[math.nan, 5.0]]
                                      + _RECORD["landmarks"][1:])), None,
                 id="landmarks-nan"),
    pytest.param(_lines(_HEADER, dict(_RECORD, landmarks=[[math.inf, 5.0]]
                                      + _RECORD["landmarks"][1:])), None,
                 id="landmarks-infinite"),
    pytest.param(_lines(_HEADER, dict(_RECORD, bbox="abcd")), None, id="bbox-a-string"),
    pytest.param(_lines(_HEADER, dict(_RECORD, bbox=[1, 2, 3])), None, id="bbox-three-numbers"),
    pytest.param(_lines(_HEADER, dict(_RECORD, bbox=[0, 0, math.nan, 4])), None,
                 id="bbox-nan"),
    # read_manifest
    pytest.param("", None, id="manifest-empty-file"),
    pytest.param(_lines(dict(_HEADER, version=2)), None, id="manifest-bad-version"),
    pytest.param(_lines({"format": "faceau-manifest", "version": 1}), None,
                 id="manifest-missing-au-names"),
    pytest.param(_lines(dict(_HEADER, au_names=5)), None, id="au-names-not-a-list"),
    pytest.param(_lines(dict(_HEADER, au_names="abcd")), None, id="au-names-a-string"),
    pytest.param(_lines(dict(_HEADER, au_names=[])), None, id="au-names-empty"),
    pytest.param(_lines(dict(_HEADER, au_names=["a", 1])), None,
                 id="au-names-not-strings"),
    pytest.param(_lines(_HEADER, "not json"), None, id="record-not-json"),
    pytest.param(_lines(_HEADER, {"image": "img.pgm"}), None, id="record-malformed"),
    pytest.param(_lines(_HEADER, _RECORD).encode().replace(b'"s0"', b'"s\xe9"'), None,
                 id="manifest-not-utf8"),
])
def test_malformed_input_is_data_error(tmp_path, capsys, manifest, image):
    # `align` decodes every image; `stats` reads the manifest alone
    (tmp_path / "m.jsonl").write_bytes(manifest if isinstance(manifest, bytes)
                                       else manifest.encode())
    if image is not None:
        (tmp_path / "img.pgm").write_bytes(image)
    out = tmp_path / "out"
    command = "align" if image is not None else "stats"
    assert run([command, "--manifest", str(tmp_path / "m.jsonl"),
                "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _kfold_args(out):
    return argparse.Namespace(command="kfold", out=str(out), k=3, seed=0)


@pytest.mark.parametrize("name,write,first,second", [
    pytest.param("manifest.jsonl", lambda path, obj: write_manifest(obj, path),
                 faceau.data.Manifest(records=[], au_names=["a"]),
                 faceau.data.Manifest(records=[], au_names=["b"]), id="write_manifest"),
    pytest.param("resolved.cfg",
                 lambda path, obj: cli.open_out(_kfold_args(path.parent), obj),
                 {"seed": 0}, {"seed": 1}, id="open_out"),
    pytest.param("trace.csv",
                 lambda path, obj: faceau.train.write_trace(path, obj),
                 [faceau.train.TraceRow(0, 0, 0.1, 1.0)],
                 [faceau.train.TraceRow(1, 0, 0.1, 0.5)], id="write_trace"),
])
def test_failed_text_write_keeps_previous_file(tmp_path, monkeypatch, name, write,
                                               first, second):
    path = tmp_path / "out" / name
    path.parent.mkdir()
    write(path, first)
    old = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before rename")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError):
        write(path, second)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert [p.name for p in path.parent.iterdir()] == [name]
