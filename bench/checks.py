"""Correctness checks on a workload's outputs, run after the timed interval.

Each check compares a program output with the benchmark's own reference
computation (`reference.py`) or with a property the method must have; none
compares with a stored copy of earlier output. The check functions take
plain arrays and lists, so a test can hand them a perturbed output.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import faceau.ndgrad as ng  # noqa: E402
from faceau.data import load_corpus, read_manifest, to_float  # noqa: E402
from faceau.losses import (AULabels, denormalize_intensity, loss_detection,  # noqa: E402
                           loss_intensity, loss_pretrain, patch_normalize)
from faceau.metrics import kfold_by_subject, split_by_fold  # noqa: E402
from faceau.model import (MaskPlan, classifier_forward, decoder_forward,  # noqa: E402
                          encoder_forward, load_weights, patchify)

import reference as ref  # noqa: E402
import workloads  # noqa: E402

# float32 program against the float64 reference: |prog - ref| <= ATOL + RTOL*|ref|
FORWARD_ATOL = 1e-4
FORWARD_RTOL = 1e-3
# metrics.csv carries 6 decimals
METRIC_TOL = 1e-6
# central differences in float64: step and agreement with ng.backward
PROBE_STEP = 1e-6
PROBE_ATOL = 1e-8
PROBE_RTOL = 1e-4


class Check:
    def __init__(self, name, ok, detail):
        self.name, self.ok, self.detail = name, bool(ok), detail

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


# ---------------------------------------------------------------------------
# trace.csv


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(int(r["step"]), int(r["epoch"]), float(r["lr"]), float(r["loss"])) for r in rows]


def check_row_count(rows, epochs, n, batch_size):
    spe = math.ceil(n / batch_size)
    want = epochs * spe
    steps_ok = [r[0] for r in rows] == list(range(want))
    epochs_ok = [r[1] for r in rows] == [s // spe for s in range(want)]
    return Check("trace_rows", len(rows) == want and steps_ok and epochs_ok,
                 f"{len(rows)} rows, want epochs {epochs} x ceil({n}/{batch_size}) = {want}")


def check_lr(rows, base_lr, batch_size, warmup_epochs, epochs, n):
    spe = math.ceil(n / batch_size)
    worst = 0.0
    for step, _, lr, _ in rows:
        want = ref.scheduled_lr(step, base_lr, batch_size, warmup_epochs, epochs, spe)
        worst = max(worst, abs(lr - want) / max(abs(want), 1e-300))
    return Check("lr_schedule", bool(rows) and worst <= 1e-12,
                 f"max relative error {worst:.3g} over {len(rows)} steps (peak "
                 f"{base_lr} x {batch_size} / 256)")


def check_losses(rows):
    losses = [r[3] for r in rows]
    finite = bool(losses) and all(math.isfinite(v) for v in losses)
    first_epoch, last_epoch = rows[0][1], rows[-1][1]
    first = np.mean([r[3] for r in rows if r[1] == first_epoch])
    last = np.mean([r[3] for r in rows if r[1] == last_epoch])
    return Check("loss_decreases", finite and last < first,
                 f"finite={finite}; epoch {first_epoch} mean {first:.6f}, "
                 f"epoch {last_epoch} mean {last:.6f}")


# ---------------------------------------------------------------------------
# forward passes and metrics


def check_close(name, prog, want):
    prog, want = np.asarray(prog, np.float64), np.asarray(want, np.float64)
    err = np.abs(prog - want)
    ok = prog.shape == want.shape and bool(np.all(err <= FORWARD_ATOL + FORWARD_RTOL * np.abs(want)))
    return Check(name, ok, f"{want.size} values, max |diff| {err.max():.3g} "
                           f"(tolerance {FORWARD_ATOL} + {FORWARD_RTOL}|ref|)")


def check_detect_predictions(prog_pred, ref_logits):
    """Predictions must match the reference's sign of the logit, except
    where the reference logit is within the forward tolerance of 0."""
    ref_pred = (np.asarray(ref_logits) >= 0).astype(np.int64)
    near = np.abs(ref_logits) <= FORWARD_ATOL + FORWARD_RTOL * np.abs(ref_logits)
    bad = int(np.sum((np.asarray(prog_pred) != ref_pred) & ~near))
    return Check("predictions", bad == 0, f"{bad} of {ref_pred.size} disagree")


def read_metrics_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    table = {r[0]: [None if c == "" else float(c) for c in r[1:]] for r in rows[1:]}
    return {m: [table[au][i] for au in table if au != "avg"] + [table["avg"][i]]
            for i, m in enumerate(names)}


def _with_average(values):
    present = [v for v in values if v is not None]
    return list(values) + [float(np.mean(present)) if present else None]


def check_metrics(reported, recomputed):
    """reported/recomputed: metric -> per-AU values then the average."""
    worst, problems = 0.0, []
    for metric, want in recomputed.items():
        got = reported.get(metric)
        if got is None or len(got) != len(want):
            problems.append(f"{metric}: missing or wrong length")
            continue
        for g, w in zip(got, want):
            if (g is None) != (w is None):
                problems.append(f"{metric}: defined in one, undefined in the other")
            elif g is not None:
                worst = max(worst, abs(g - w))
    ok = not problems and worst <= METRIC_TOL
    return Check("metrics_csv", ok, "; ".join(problems) or
                 f"{sorted(recomputed)} agree, max |diff| {worst:.3g} (tolerance {METRIC_TOL})")


def recompute_detect(pred, gt):
    return {"f1": _with_average(ref.f1_per_au(pred, gt))}


def recompute_intensity(pred, gt):
    return {m: _with_average(v) for m, v in ref.intensity_metrics(pred, gt).items()}


# ---------------------------------------------------------------------------
# sparse-frames protocol


def every_nth_size(subject_frames, fraction):
    """Records kept by every-Nth-frame-per-subject, N = 1/fraction."""
    every = round(1.0 / fraction)
    return sum(math.ceil(count / every) for count in subject_frames.values())


def check_sparse_protocol(stdout, subject_frames, fraction, rows, batch_size):
    want_size = every_nth_size(subject_frames, fraction)
    want_epochs = ref.PROTOCOL_EPOCHS[fraction]
    match = re.search(r"\((\d+) -> (\d+) records\), (\d+) epochs", stdout)
    size, epochs = (int(match.group(2)), int(match.group(3))) if match else (None, None)
    trained = rows[-1][1] + 1 if rows else None
    spe_ok = len(rows) == want_epochs * math.ceil(want_size / batch_size)
    ok = size == want_size and epochs == want_epochs and trained == want_epochs and spe_ok
    return Check("sparse_protocol", ok,
                 f"subset {size} (want {want_size}), epochs {epochs}/{trained} "
                 f"(want {want_epochs}), {len(rows)} steps")


# ---------------------------------------------------------------------------
# gradient probes


def probe_positions(arrays, names, rng):
    return [(name, int(rng.integers(arrays[name].size))) for name in names]


def check_gradients(analytic, ref_loss, weights64, positions):
    """Central differences of the reference loss at (name, flat index)
    positions against the program's gradients there.

    `ref_loss(weights) -> (loss, pattern)`. `pattern` marks which side of
    each kink of a piecewise loss the point lies on (None for a smooth
    loss); a position whose two steps land on different sides is replaced
    by the next index, since a difference quotient across a kink is no
    derivative."""
    worst, lines, ok = 0.0, [], True
    for name, idx in positions:
        flat = weights64[name].reshape(-1)
        for _ in range(8):
            saved = flat[idx]
            flat[idx] = saved + PROBE_STEP
            f_plus, side_plus = ref_loss(weights64)
            flat[idx] = saved - PROBE_STEP
            f_minus, side_minus = ref_loss(weights64)
            flat[idx] = saved
            crossed = side_plus is not None and np.any(side_plus != side_minus)
            if not crossed:
                break
            idx = (idx + 1) % flat.size
        numeric = (f_plus - f_minus) / (2 * PROBE_STEP)
        got = float(analytic[name].reshape(-1)[idx])
        err = abs(got - numeric)
        ok = ok and not crossed and err <= PROBE_ATOL + PROBE_RTOL * max(abs(got), abs(numeric))
        worst = max(worst, err / max(abs(numeric), 1e-12))
        lines.append(f"{name}[{idx}] {got:.6g}/{numeric:.6g}")
    return Check("gradient_probes", ok,
                 f"{len(positions)} probes, max relative error {worst:.3g}: " + ", ".join(lines))


# ---------------------------------------------------------------------------
# program side: the program's own outputs for the same inputs


def program_scores(ckpt, images, task):
    """(logits, predictions) as `faceau.train.evaluate` forms them."""
    weights = load_weights(ckpt)
    logits, preds = [], []
    for img in images:
        patches = patchify(to_float(img), weights.config.patch_size)
        out = classifier_forward(weights, patches)
        scores = ng.sigmoid(out).data
        logits.append(out.data)
        preds.append((scores >= 0.5).astype(np.int64) if task == "detect"
                     else denormalize_intensity(scores))
    return np.stack(logits), np.stack(preds)


def program_gradients(ckpt, task, patches, perms=None, num_visible=None, labels=None):
    """d(batch-mean loss)/d(param) from ng.backward, in float64."""
    with ng.precision("float64"):
        weights = load_weights(ckpt)
        b = len(patches)
        for i in range(b):
            with ng.Tape() as tape:
                if task == "pretrain":
                    plan = MaskPlan(permutation=perms[i], num_visible=num_visible)
                    latent = encoder_forward(weights, patches[i], plan)
                    pred = decoder_forward(weights, latent, plan)
                    loss = loss_pretrain(pred, patch_normalize(patches[i]), plan,
                                         "L1", "mean")
                else:
                    logits = classifier_forward(weights, patches[i])
                    if task == "detect":
                        loss = loss_detection(logits, AULabels(occurrence=labels[i]))
                    else:
                        loss = loss_intensity(ng.sigmoid(logits),
                                              AULabels(intensity=labels[i]))
                share = ng.scale(loss, 1.0 / b)
            ng.backward(share, tape)
        return {name: t.grad for name, t in weights.params.items()}


def program_pretrain_output(ckpt, patches, perms, num_visible):
    weights = load_weights(ckpt)
    out = []
    for x, perm in zip(patches, perms):
        plan = MaskPlan(permutation=perm, num_visible=num_visible)
        latent = encoder_forward(weights, x, plan)
        out.append(decoder_forward(weights, latent, plan).data)
    return np.stack(out)


# ---------------------------------------------------------------------------
# per workload


PRETRAIN_PROBES = ("patch_embed.w", "enc.blocks.0.attn.q.w", "enc.blocks.1.mlp.fc1.b",
                   "enc.norm.g", "dec.mask_token", "dec.blocks.1.attn.v.w", "dec.head.w")
FINETUNE_PROBES = ("patch_embed.w", "enc.blocks.0.attn.k.w", "enc.blocks.3.mlp.fc2.w",
                   "enc.blocks.2.ln1.g", "head.norm.b", "head.fc.w")


def _patches(images, cfg):
    return np.stack([ref.patch_rows(ref.image_to_float(im), cfg["patch_size"]) for im in images])


def _num_visible(n_tokens, mask_ratio):
    return int(math.floor(n_tokens * (1.0 - mask_ratio) + 1e-9))


def _pretrain_checks(out, seed, corpus_images):
    cfg, arrays = ref.read_maef(os.path.join(out, "model.ckpt"))
    w = ref.as_float64(arrays)
    rng = np.random.default_rng([seed, 99])
    images = corpus_images[:4]
    patches = _patches(images, cfg)
    n = patches.shape[1]
    perms = np.stack([rng.permutation(n) for _ in images])
    nv = _num_visible(n, workloads.PRETRAIN["mask_ratio"])
    latent = ref.encode(w, cfg, patches, perms[:, :nv])
    want = ref.decode(w, cfg, latent, perms, nv)
    got = program_pretrain_output(os.path.join(out, "model.ckpt"), patches, perms, nv)
    checks = [check_close("reference_forward", got, want)]

    bp, bperm = patches[:2], perms[:2]
    analytic = program_gradients(os.path.join(out, "model.ckpt"), "pretrain", bp,
                                 perms=bperm, num_visible=nv)

    def loss(wts):
        # L1 has a kink wherever a residual changes sign
        lat = ref.encode(wts, cfg, bp, bperm[:, :nv])
        pred = ref.decode(wts, cfg, lat, bperm, nv)
        res = ref.masked_l1_residuals(pred, bp, bperm, nv)
        return float(np.abs(res).mean(axis=(1, 2)).mean()), np.sign(res)

    checks.append(check_gradients(analytic, loss, w,
                                  probe_positions(arrays, PRETRAIN_PROBES, rng)))
    return checks


def _finetune_checks(workload, out, seed, images, labels):
    task = "detect" if workload == "finetune-detect" else "intensity"
    ckpt = os.path.join(out, "model.ckpt")
    cfg, arrays = ref.read_maef(ckpt)
    w = ref.as_float64(arrays)
    patches = _patches(images, cfg)
    want = ref.classify(w, cfg, patches)
    logits, preds = program_scores(ckpt, images, task)
    checks = [check_close("reference_forward", logits, want)]
    reported = read_metrics_csv(os.path.join(out, "metrics.csv"))
    if task == "detect":
        checks.append(check_detect_predictions(preds, want))
        checks.append(check_metrics(reported, recompute_detect(preds, labels)))
    else:
        checks.append(check_close("predictions", preds,
                                  np.clip(5.0 * ref.sigmoid(want), 0.0, 5.0)))
        checks.append(check_metrics(reported, recompute_intensity(preds, labels)))

    rng = np.random.default_rng([seed, 99])
    bp, blab = patches[:2], labels[:2]
    analytic = program_gradients(ckpt, task, bp, labels=blab)
    task_loss = ref.bce_loss if task == "detect" else ref.intensity_loss

    def loss(wts):
        return task_loss(ref.classify(wts, cfg, bp), blab), None

    checks.append(check_gradients(analytic, loss, w,
                                  probe_positions(arrays, FINETUNE_PROBES, rng)))
    return checks


def check_repeats(commands):
    """Same-seed commands of one run must write identical bytes."""
    distinct = len({(c["trace_sha"], c["ckpt_sha"]) for c in commands})
    return Check("repeat_identical", distinct == 1,
                 f"{len(commands)} same-seed commands, {distinct} distinct "
                 "(trace.csv, model.ckpt) pairs")


def check_held_out(train_subjects, held_subjects, held_records, stdout, evals_wanted):
    """Subject-exclusive fold of the size the corpus layout implies, scored
    once per --eval-every epochs."""
    spec = workloads.DETECT
    want_held = spec["count"] - workloads.training_size("finetune-detect")
    exclusive = not (set(train_subjects) & set(held_subjects))
    evals = len(re.findall(r"^eval epoch \d+:", stdout, re.M))
    return Check("held_out_fold", exclusive and held_records == want_held and evals == evals_wanted,
                 f"subject-exclusive={exclusive}, {held_records} held-out records (want "
                 f"{want_held}), {evals} periodic evaluations (want {evals_wanted})")


def run_checks(workload, seed, inputs, result):
    """All checks for one workload run; `result` is the measuring process's
    record (commands, output directory, captured stdout)."""
    out = result["last_out"]
    rows = read_trace(os.path.join(out, "trace.csv"))
    spec = {"pretrain": workloads.PRETRAIN, "finetune-detect": workloads.DETECT,
            "finetune-sparse": workloads.SPARSE}[workload]
    n = workloads.training_size(workload)
    epochs = spec.get("epochs") or ref.PROTOCOL_EPOCHS[spec["fraction"]]
    checks = [
        check_row_count(rows, epochs, n, spec["batch_size"]),
        check_lr(rows, spec["base_lr"], spec["batch_size"], spec["warmup_epochs"], epochs, n),
        check_losses(rows),
    ]
    if len(result["commands"]) > 1:
        checks.append(check_repeats(result["commands"]))
    if workload == "pretrain":
        corpus = load_corpus(read_manifest(inputs["manifest"]))
        return checks + _pretrain_checks(out, seed, corpus.images)

    stdout = result["last_stdout"]
    if workload == "finetune-detect":
        # the fold assignment is the program's; the checks are that it is
        # subject-exclusive and that metrics.csv scores exactly that fold
        manifest = read_manifest(inputs["manifest"])
        assignment = kfold_by_subject(manifest, spec["num_folds"], seed)
        train, held = split_by_fold(manifest, assignment, spec["fold"])
        checks.append(check_held_out([r.subject for r in train.records],
                                     [r.subject for r in held.records], len(held.records),
                                     stdout, epochs // spec["eval_every"]))
        labels = np.stack([r.occurrence for r in held.records])
    else:
        frames = {}
        for r in read_manifest(inputs["manifest"]).records:
            frames[r.subject] = frames.get(r.subject, 0) + 1
        checks.append(check_sparse_protocol(stdout, frames, spec["fraction"], rows,
                                            spec["batch_size"]))
        held = read_manifest(inputs["eval_manifest"])
        labels = np.stack([r.intensity for r in held.records])
    images = load_corpus(held).images
    return checks + _finetune_checks(workload, out, seed, images, labels)
