"""The three workloads: their synthetic inputs and `faceau` command lines.

Every input is a pure function of the benchmark seed. Corpus sizes are
chosen so that one command takes a few seconds at the `desk` preset and so
that derived sizes do not depend on seeded choices: each subject has the
same number of frames, so every held-out fold is the same size.
"""

from __future__ import annotations

import math

WORKLOADS = ("pretrain", "finetune-detect", "finetune-sparse")

# pretrain: masked path, random crop, L1 on normalized patches
PRETRAIN = dict(count=96, subjects=12, epochs=3, warmup_epochs=1,
                batch_size=16, base_lr=0.032, mask_ratio=0.75)
# finetune-detect: full-token path with the detect recipe's augmentation
# (5 epochs at peak lr 2e-3: with mixing noise, 3 epochs at 1e-3 left the
# last epoch's loss above the first's on 3 of 24 seeds)
DETECT = dict(count=120, subjects=6, num_folds=3, fold=0, epochs=5,
              warmup_epochs=1, batch_size=16, base_lr=0.032, eval_every=1)
# finetune-sparse: every-10th-frame subset of 2 x 10 frames, 200 epochs
SPARSE = dict(count=20, subjects=2, eval_count=160, eval_subjects=8,
              fraction=0.1, warmup_epochs=10, batch_size=16, base_lr=0.016,
              eval_every=100)
# the short pre-training run whose checkpoint both fine-tunes start from
HANDOFF = dict(count=64, subjects=8, epochs=1, warmup_epochs=1,
               batch_size=16, base_lr=0.032)

# the detect recipe's augmentation, pinned here rather than read from the
# program's presets; intensity fine-tuning keeps all of it except mixing
DETECT_AUGMENT = ["--drop-path-rate", "0.1", "--randaug-magnitude", "9",
                  "--randaug-prob", "0.5"]
DETECT_MIXING = ["--mixup-alpha", "0.2", "--cutmix-alpha", "0.75"]


def synth_seed(seed, role):
    """Distinct synthetic-corpus seed per input role."""
    return seed * 8 + {"pretrain": 1, "detect": 2, "handoff": 3,
                       "sparse": 4, "sparse-eval": 5}[role]


def _train_flags(spec):
    return ["--batch-size", str(spec["batch_size"]),
            "--warmup-epochs", str(spec["warmup_epochs"]),
            "--base-lr", repr(spec["base_lr"])]


def pretrain_argv(manifest, out, seed, spec=PRETRAIN):
    return (["pretrain", "--manifest", manifest, "--out", out,
             "--seed", str(seed), "--model-preset", "desk",
             "--mask-ratio", repr(spec.get("mask_ratio", 0.75)),
             "--random-crop", "true", "--recon-loss", "L1",
             "--norm-pix-target", "true", "--checkpoint-every", "1",
             "--epochs", str(spec["epochs"])] + _train_flags(spec))


def command_argv(workload, inputs, out, seed):
    """argv of the workload's training command, writing into `out`."""
    if workload == "pretrain":
        return pretrain_argv(inputs["manifest"], out, seed)
    init = "checkpoint:" + inputs["checkpoint"]
    if workload == "finetune-detect":
        spec = DETECT
        return (["finetune", "--task", "detect", "--init", init,
                 "--manifest", inputs["manifest"],
                 "--fold", str(spec["fold"]), "--num-folds", str(spec["num_folds"]),
                 "--out", out, "--seed", str(seed),
                 "--epochs", str(spec["epochs"]),
                 "--eval-every", str(spec["eval_every"])]
                + _train_flags(spec) + DETECT_AUGMENT + DETECT_MIXING)
    spec = SPARSE
    return (["finetune", "--task", "intensity", "--init", init,
             "--manifest", inputs["manifest"],
             "--eval-manifest", inputs["eval_manifest"],
             "--fraction", repr(spec["fraction"]),
             "--out", out, "--seed", str(seed),
             "--eval-every", str(spec["eval_every"]),
             "--mixup-alpha", "0", "--cutmix-alpha", "0"]
            + _train_flags(spec) + DETECT_AUGMENT)


def training_size(workload):
    """Training records one epoch sees, derived from the corpus layout."""
    if workload == "pretrain":
        return PRETRAIN["count"]
    if workload == "finetune-detect":
        per_subject = DETECT["count"] // DETECT["subjects"]
        held_out = DETECT["subjects"] // DETECT["num_folds"]
        return (DETECT["subjects"] - held_out) * per_subject
    every = round(1.0 / SPARSE["fraction"])
    per_subject = SPARSE["count"] // SPARSE["subjects"]
    return SPARSE["subjects"] * math.ceil(per_subject / every)


def generate(workload, seed, root):
    """Write the workload's inputs under `root`; returns a dict of paths.

    Imports faceau lazily: only the input-generation process needs it.
    """
    import contextlib
    import io
    import os

    from faceau.cli import main
    from faceau.synth import synth_corpus, write_corpus

    def corpus(role, count, subjects):
        path = write_corpus(synth_corpus(seed=synth_seed(seed, role), count=count,
                                         num_subjects=subjects),
                            os.path.join(root, role))
        return os.path.abspath(path)

    if workload == "pretrain":
        return {"manifest": corpus("pretrain", PRETRAIN["count"], PRETRAIN["subjects"])}
    inputs = {}
    handoff = corpus("handoff", HANDOFF["count"], HANDOFF["subjects"])
    out = os.path.join(root, "handoff-run")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(pretrain_argv(handoff, out, seed, HANDOFF))
    if code != 0:
        raise RuntimeError(f"pre-training the hand-off checkpoint exited {code}")
    inputs["checkpoint"] = os.path.abspath(os.path.join(out, "model.ckpt"))
    if workload == "finetune-detect":
        inputs["manifest"] = corpus("detect", DETECT["count"], DETECT["subjects"])
    else:
        inputs["manifest"] = corpus("sparse", SPARSE["count"], SPARSE["subjects"])
        inputs["eval_manifest"] = corpus("sparse-eval", SPARSE["eval_count"],
                                         SPARSE["eval_subjects"])
    return inputs
