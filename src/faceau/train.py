"""Run orchestration: seeded random streams, the pre-training and fine-tuning
loops, resumable run state, and the sparse-frames fine-tuning protocol.

Both loops run on one training driver. A batch runs in chunks of K samples,
one tape per chunk, with a single optimizer step per batch; each sample's
gradient is added into the parameter buffers in sample order, so results
equal a run that takes one sample at a time, and the effective batch size
(the one the linear scaling rule sees) is `batch_size` regardless of memory.
K follows from the model's shape (`chunk_size`). The loops differ only in
how a batch's samples are prepared and in the chunk's per-sample losses.
Every random draw comes from one of a fixed set of named streams derived
from the run seed, which is what makes runs and resumes bit-exact. Run state
is the "MAET" format of the checkpoint container in faceau.model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import ndgrad as ng
from .augment import cutmix, drop_path, mixup, randaug_light, random_crop_resize
from .data import ImageFormatError, to_float, subsample_every_n
from .losses import (AULabels, denormalize_intensity, loss_detection,
                     loss_intensity, loss_pretrain, patch_normalize, raw_targets)
from .metrics import f1_scores, intensity_report
from .model import (ENCODER_PREFIXES, RUN_STATE_MAGIC, TASKS, CheckpointError,
                    ModelConfig, ModelWeights, build_weights, classifier_forward,
                    decoder_forward, encoder_forward, init_weights,
                    load_encoder_only, match_arrays, num_visible, param_shapes,
                    patchify, read_container, sample_mask, stack_plans,
                    write_container, write_file)
from .optim import NumericalError, OptimState, adamw_step, init_optim, lr_at


class TrainError(ValueError):
    """Run configuration or data does not support the requested task."""


# one generator per concern; the order fixes each stream's child seed
STREAMS = ("init", "shuffle", "mask", "augment", "mix", "branch")


@dataclass
class TrainConfig:
    task: str
    epochs: int
    warmup_epochs: int
    base_lr: float
    batch_size: int
    weight_decay: float = 0.05
    seed: int = 0
    min_lr: float = 0.0
    drop_path_rate: float = 0.0
    mixup_alpha: float = 0.0
    cutmix_alpha: float = 0.0
    randaug_magnitude: int = 0
    randaug_prob: float = 0.0
    label_smoothing: float = 0.0
    reduction: str = "mean"
    eval_every: int = 0
    checkpoint_every: int = 1
    recon_loss: str = "L1"
    random_crop: bool = False
    crop_min_scale: float = 0.6
    beta2: float | None = None
    freeze_encoder: bool = False

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise TrainError(f"{name} must be finite, got {value}")
        if self.task not in TASKS:
            raise TrainError(f"unknown task {self.task!r}")
        if self.epochs < 1:
            raise TrainError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.warmup_epochs <= self.epochs):
            raise TrainError(
                f"warmup_epochs {self.warmup_epochs} outside 0..{self.epochs}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("base_lr", "weight_decay", "min_lr", "drop_path_rate",
                     "mixup_alpha", "cutmix_alpha", "randaug_prob",
                     "label_smoothing"):
            if getattr(self, name) < 0:
                raise TrainError(f"{name} must be >= 0")
        if self.drop_path_rate >= 1:
            raise TrainError(f"drop_path_rate {self.drop_path_rate} must be < 1")
        if self.randaug_prob > 1:
            raise TrainError(f"randaug_prob {self.randaug_prob} must be <= 1")
        if not (0 <= self.randaug_magnitude <= 10):
            raise TrainError(
                f"randaug_magnitude {self.randaug_magnitude} outside 0..10")
        if self.reduction not in ("mean", "sum"):
            raise TrainError(f"reduction must be mean or sum, got {self.reduction!r}")
        if self.recon_loss not in ("L1", "L2"):
            raise TrainError(f"recon_loss must be L1 or L2, got {self.recon_loss!r}")
        if not (0.0 < self.crop_min_scale <= 1.0):
            raise TrainError(f"crop_min_scale {self.crop_min_scale} outside (0, 1]")
        if self.eval_every < 0 or self.checkpoint_every < 1:
            raise TrainError("eval_every must be >= 0 and checkpoint_every >= 1")
        if self.beta2 is None:
            self.beta2 = 0.95 if self.task == "pretrain" else 0.999
        if not (0.0 < self.beta2 < 1.0):
            raise TrainError(f"beta2 {self.beta2} outside (0, 1)")
        if self.freeze_encoder and self.task == "pretrain":
            raise TrainError("freeze_encoder only applies to fine-tune tasks")


_TRAIN_PRESETS = {
    # reference recipes at full scale; override freely for desk-sized runs
    # (the task is the preset's name; weight_decay and beta2 are TrainConfig's)
    "pretrain": dict(
        epochs=800, warmup_epochs=40, base_lr=1.5e-4, batch_size=4096,
        recon_loss="L1", random_crop=True,
    ),
    "detect": dict(
        epochs=20, warmup_epochs=10, base_lr=1e-4, batch_size=512,
        drop_path_rate=0.1, randaug_magnitude=9, randaug_prob=0.5,
        mixup_alpha=0.2, cutmix_alpha=0.75,
    ),
    "intensity": dict(
        epochs=20, warmup_epochs=10, base_lr=3e-5, batch_size=512,
        drop_path_rate=0.1, randaug_magnitude=9, randaug_prob=0.5,
    ),
}

def train_preset(name, **overrides):
    """Named TrainConfig preset ('pretrain', 'detect', 'intensity')."""
    if name not in _TRAIN_PRESETS:
        raise TrainError(f"unknown preset {name!r}, expected one of {sorted(_TRAIN_PRESETS)}")
    return TrainConfig(**{"task": name, **_TRAIN_PRESETS[name], **overrides})


# ---------------------------------------------------------------------------
# named random streams


def fresh_streams(seed):
    return {
        name: np.random.default_rng(np.random.SeedSequence([seed, i]))
        for i, name in enumerate(STREAMS)
    }


def _stream_states(streams):
    return {name: streams[name].bit_generator.state for name in STREAMS}


def _restore_streams(states):
    streams = {}
    for name in STREAMS:
        bg = np.random.PCG64()
        bg.state = states[name]
        streams[name] = np.random.Generator(bg)
    return streams


# ---------------------------------------------------------------------------
# run state


@dataclass
class RunState:
    weights: ModelWeights
    opt: OptimState
    config: TrainConfig
    streams: dict
    epoch: int = 0  # completed epochs
    trace: list = field(default_factory=list)  # one TraceRow per optimizer step

    @property
    def step(self):
        # global optimizer step count doubles as the schedule index
        return self.opt.step


@dataclass
class TraceRow:
    step: int
    epoch: int
    lr: float
    loss: float


def write_trace(path, rows):
    """CSV trace (CRLF rows): step, epoch, lr, loss."""
    lines = [f"{r.step},{r.epoch},{r.lr!r},{r.loss!r}\r\n" for r in rows]
    write_file(path, ["step,epoch,lr,loss\r\n", *lines])


def check_stage(model_config, config):
    """The pairing rules of a model and a train config; start_run applies
    them, and the commands apply them before writing any output."""
    if model_config.task != config.task:
        raise TrainError(
            f"model task {model_config.task!r} != train task {config.task!r}")
    if config.task == "pretrain":
        if model_config.mask_ratio == 0.0:
            raise TrainError("pre-training needs mask_ratio > 0")
        num_visible(model_config.num_patches, model_config.mask_ratio)


def require_records(manifest):
    if not manifest.records:
        raise TrainError("dataset is empty")


def label_matrix(manifest, model_config):
    """[N, A] float64 labels of a fine-tune manifest: occurrence bits for a
    'detect' model, intensity levels for an 'intensity' one. Reads records
    only; raises TrainError for an empty set, an AU-count mismatch or a
    record without the task's labels."""
    require_records(manifest)
    if manifest.num_aus != model_config.num_aus:
        raise TrainError(
            f"manifest has {manifest.num_aus} action units, "
            f"model expects {model_config.num_aus}")
    kind = "occurrence" if model_config.task == "detect" else "intensity"
    rows = []
    for i, rec in enumerate(manifest.records):
        row = getattr(rec, kind)
        if row is None:
            raise TrainError(f"record {i} has no {kind} labels; "
                             f"task {model_config.task!r} needs them")
        rows.append(row)
    return np.stack(rows).astype(np.float64)


def check_images(model_config, images, names):
    """Raise ImageFormatError naming the first of `images` (decoded uint8
    [C, H, W]) that is not the model's (channels, image_size, image_size)
    input; `names` label the images in the same order."""
    want = (model_config.channels, model_config.image_size, model_config.image_size)
    for image, name in zip(images, names):
        if image.shape != want:
            raise ImageFormatError(
                f"{name}: image shape {image.shape} does not match model {want}")


def start_run(model_config, config, init_from=None):
    """Fresh RunState; `init_from` loads encoder weights from a checkpoint
    produced by the pre-training stage (everything else re-initialized)."""
    check_stage(model_config, config)
    streams = fresh_streams(config.seed)
    if init_from is not None:
        weights = load_encoder_only(init_from, model_config, streams["init"])
    else:
        weights = init_weights(model_config, streams["init"])
    return RunState(weights=weights, opt=init_optim(weights), config=config,
                    streams=streams)


# activation elements (tokens times MLP hidden width, at a model's largest
# stage) that one tape's chunk of samples may hold. A tape holds its chunk's
# activations, so peak memory grows with the chunk: one batch-16 desk
# pre-training step peaks (tracemalloc) at 9.7 MB one sample at a time, and
# at 11.9, 20.1 and 32.7 MB in chunks of 4, 8 and 16, against the
# benchmark's +10% bound on a ~79 MB peak RSS.
CHUNK_ELEMENTS = 65536


def chunk_size(model_config):
    """Samples per tape, for training and for held-out scoring:
    max(1, CHUNK_ELEMENTS // largest), `largest` being the token count times
    the MLP hidden width at the model's largest stage. That is 4 for desk
    pre-training, 2 for desk fine-tuning and 1 at `full`."""
    cfg = model_config
    stages = [(cfg.num_patches, cfg.enc_width)]
    if cfg.task == "pretrain":
        stages = [(num_visible(cfg.num_patches, cfg.mask_ratio), cfg.enc_width),
                  (cfg.num_patches, cfg.dec_width)]
    largest = max(tokens * int(width * cfg.mlp_ratio) for tokens, width in stages)
    return max(1, CHUNK_ELEMENTS // largest)


# the default run-state writes per run: a run of E epochs checkpoints every
# checkpoint_period(E) epochs and at its last, so a 20000-epoch sparse-frames
# run writes 20 states, not 20000
RUN_STATE_WRITES = 20


def checkpoint_period(epochs):
    """Default checkpoint_every of a run of `epochs` epochs."""
    return max(1, math.ceil(epochs / RUN_STATE_WRITES))


# ---------------------------------------------------------------------------
# run state: the "MAET" container of faceau.model
#
# meta carries the model and train configs, "epoch", "opt_step", the rng
# states and the trace rows; each array is keyed "w:"/"m:"/"v:" + param name.


def save_run_state(path, run):
    params = run.weights.params
    arrays = [(f"w:{name}", t.data) for name, t in params.items()]
    arrays += [(f"{tag}:{name}", moments[name]) for name in params
               for tag, moments in (("m", run.opt.m), ("v", run.opt.v))]
    meta = {
        "model": dataclasses.asdict(run.weights.config),
        "train": dataclasses.asdict(run.config),
        "epoch": run.epoch,
        "opt_step": run.opt.step,
        "rng": _stream_states(run.streams),
        "trace": [[r.step, r.epoch, r.lr, r.loss] for r in run.trace],
    }
    write_container(path, RUN_STATE_MAGIC, meta, arrays)


def load_run_state(path):
    """Parse + validate fully before touching any state; raises CheckpointError."""
    def decode(meta, arrays):
        model_config = ModelConfig(**meta["model"])
        config = TrainConfig(**meta["train"])
        epoch, step = meta["epoch"], meta["opt_step"]
        if not all(type(n) is int and n >= 0 for n in (epoch, step)):
            raise CheckpointError(f"{path}: epoch and opt_step must be counts")
        trace = [TraceRow(*row) for row in meta["trace"]]
        if len(trace) != step or any(type(v) not in (int, float)
                                     for row in meta["trace"] for v in row):
            raise CheckpointError(f"{path}: trace must hold one numeric [step, "
                                  "epoch, lr, loss] row per optimizer step")
        shapes = param_shapes(model_config)
        loaded = match_arrays(arrays, {f"{tag}:{name}": shape for tag in "wmv"
                                       for name, shape in shapes.items()})
        weights = build_weights(model_config, ((name, loaded[f"w:{name}"]) for name in shapes))
        opt = OptimState(m={name: loaded[f"m:{name}"] for name in shapes},
                         v={name: loaded[f"v:{name}"] for name in shapes}, step=step)
        return RunState(weights=weights, opt=opt, config=config,
                        streams=_restore_streams(meta["rng"]), epoch=epoch,
                        trace=trace)
    return read_container(path, RUN_STATE_MAGIC, decode)


# ---------------------------------------------------------------------------
# training loops


def _backward_chunk(chunk_loss, chunk, batch_size):
    """Record a chunk's per-sample losses on one tape and add their gradients
    at 1/batch_size; returns the losses. The tape, which holds the chunk's
    activations, is gone once this returns."""
    with ng.Tape() as tape:
        losses = chunk_loss(chunk)
        total = ng.sum(ng.scale(losses, 1.0 / batch_size))
    ng.backward(total, tape)
    return losses.data.tolist()


def _train(run, corpus, until_epoch, checkpoint, prepare, chunk_loss, after_epoch=None):
    """The epoch/batch driver both stages share. Per batch: `prepare(idx)`
    turns corpus indices into a list of samples; `chunk_loss(samples)`
    records the per-sample losses [k] of each chunk of chunk_size samples on
    one tape; their gradients accumulate at 1/len(batch), and one AdamW step
    and its TraceRow in run.trace follow. Runs from run.epoch up to
    until_epoch (default: config.epochs), calls `after_epoch()` after each
    epoch, then saves the run state to `checkpoint` (a path, or None) every
    checkpoint_every epochs. Returns the TraceRows of this call."""
    config = run.config
    stop = config.epochs if until_epoch is None else min(until_epoch, config.epochs)
    steps_per_epoch = math.ceil(len(corpus) / config.batch_size)
    k = chunk_size(run.weights.config)
    first = len(run.trace)
    while run.epoch < stop:
        order = run.streams["shuffle"].permutation(len(corpus))
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            lr = lr_at(config, run.step, steps_per_epoch)
            samples = prepare(idx)
            run.weights.zero_grad()
            batch_loss = 0.0
            for c in range(0, len(samples), k):
                for loss in _backward_chunk(chunk_loss, samples[c:c + k], len(idx)):
                    batch_loss += loss / len(idx)
            if not math.isfinite(batch_loss):
                raise NumericalError(f"non-finite loss at step {run.step}")
            adamw_step(run.weights, run.opt, lr, config.weight_decay, beta2=config.beta2)
            run.trace.append(TraceRow(run.opt.step - 1, run.epoch, lr, batch_loss))
        run.epoch += 1
        if after_epoch is not None:
            after_epoch()
        if checkpoint and (run.epoch % config.checkpoint_every == 0 or run.epoch == stop):
            save_run_state(checkpoint, run)
    return run.trace[first:]


def pretrain_loop(run, corpus, until_epoch=None, checkpoint=None):
    """Mask-and-reconstruct training; returns the TraceRows produced by this
    call. Continues from run.epoch up to until_epoch (default: config.epochs),
    saving the run state to `checkpoint` every checkpoint_every epochs."""
    config = run.config
    if config.task != "pretrain":
        raise TrainError(f"pretrain_loop needs task 'pretrain', got {config.task!r}")
    require_records(corpus.manifest)
    cfg = run.weights.config

    def prepare(idx):
        samples = []
        for i in idx:
            img = to_float(corpus.images[i])
            if config.random_crop:
                img = random_crop_resize(img, run.streams["augment"],
                                         config.crop_min_scale, 1.0)
            plan = sample_mask(cfg.num_patches, cfg.mask_ratio, run.streams["mask"])
            samples.append((patchify(img, cfg.patch_size), plan))
        return samples

    def chunk_loss(chunk):
        patches = np.stack([p for p, _ in chunk])
        plan = stack_plans([plan for _, plan in chunk])
        targets = (patch_normalize(patches) if cfg.norm_pix_target
                   else raw_targets(patches))
        latent = encoder_forward(run.weights, patches, plan)
        pred = decoder_forward(run.weights, latent, plan)
        return loss_pretrain(pred, targets, plan, config.recon_loss, config.reduction)

    return _train(run, corpus, until_epoch, checkpoint, prepare, chunk_loss)


def finetune_loop(run, corpus, eval_corpus=None, until_epoch=None, checkpoint=None):
    """Supervised stage on all patches (no masking). Detection mixes batches
    with mixup/cutmix; intensity uses neither; checkpoints like pretrain_loop.
    A frozen encoder's parameters stop requiring gradients, so its forward
    records nothing, backward stops at the head and AdamW leaves them
    untouched. Returns (trace rows of this call, list of (epoch,
    MetricsReport) from the held-out split every eval_every epochs)."""
    config = run.config
    task = config.task
    if task not in ("detect", "intensity"):
        raise TrainError(f"finetune_loop needs a fine-tune task, got {task!r}")
    cfg = run.weights.config
    label_rows = label_matrix(corpus.manifest, cfg)
    if config.eval_every > 0 and eval_corpus is None:
        raise TrainError("eval_every > 0 needs a held-out eval corpus")
    use_aug = config.randaug_prob > 0 and config.randaug_magnitude > 0
    if config.freeze_encoder:
        for name, t in run.weights.params.items():
            if name.startswith(ENCODER_PREFIXES):
                t.requires_grad = False
    # frozen encoder means a deterministic feature extractor: no drop path
    drop = config.drop_path_rate > 0 and not config.freeze_encoder

    def prepare(idx):
        imgs = [to_float(corpus.images[i]) for i in idx]
        labels = label_rows[idx]
        if use_aug:
            imgs = [randaug_light(im, config.randaug_magnitude,
                                  config.randaug_prob, run.streams["augment"])
                    for im in imgs]
        if task == "detect":
            batch = np.stack(imgs)
            mix = run.streams["mix"]
            if config.mixup_alpha > 0 or config.cutmix_alpha > 0:
                # with both enabled, one draw picks which mix this batch gets
                if config.cutmix_alpha == 0 or (config.mixup_alpha > 0
                                                and mix.random() < 0.5):
                    batch, labels, _ = mixup(batch, labels, config.mixup_alpha, mix)
                else:
                    batch, labels, _ = cutmix(batch, labels, config.cutmix_alpha, mix)
            imgs = list(batch)
            eps = config.label_smoothing
            labels = labels * (1.0 - eps) + 0.5 * eps
        return [(patchify(np.asarray(img), cfg.patch_size), lab)
                for img, lab in zip(imgs, labels)]

    def chunk_loss(chunk):
        patches = np.stack([p for p, _ in chunk])
        labels = np.stack([lab for _, lab in chunk])
        hook = None
        if drop:
            # the chunk's keep draws in one sample's order: per sample, then
            # per block, attention branch before MLP branch
            draws = iter(run.streams["branch"].random((len(chunk), 2 * cfg.enc_depth)).T)

            def hook(t):
                return drop_path(t, config.drop_path_rate, next(draws), training=True)
        logits = classifier_forward(run.weights, patches, hook)
        if task == "detect":
            return loss_detection(logits, AULabels(occurrence=labels))
        return loss_intensity(ng.sigmoid(logits), AULabels(intensity=labels))

    reports = []

    def after_epoch():
        if config.eval_every > 0 and run.epoch % config.eval_every == 0:
            reports.append((run.epoch, evaluate(run.weights, eval_corpus)))

    rows = _train(run, corpus, until_epoch, checkpoint, prepare, chunk_loss, after_epoch)
    return rows, reports


def evaluate(weights, corpus, threshold=0.5):
    """Held-out metrics: per-AU F1 for detection models, ICC/MSE/MAE on the
    0-5 scale for intensity models."""
    cfg = weights.config
    if cfg.task not in ("detect", "intensity"):
        raise TrainError(f"evaluate needs a fine-tune model, got {cfg.task!r}")
    gts = label_matrix(corpus.manifest, cfg)
    au_names = corpus.manifest.au_names
    k = chunk_size(cfg)
    scores = []
    for c in range(0, len(corpus.images), k):
        patches = np.stack([patchify(to_float(img), cfg.patch_size)
                            for img in corpus.images[c:c + k]])
        scores.append(ng.sigmoid(classifier_forward(weights, patches)).data)
    scores = np.concatenate(scores)
    if cfg.task == "detect":
        return f1_scores((scores >= threshold).astype(np.int64), gts, au_names=au_names)
    return intensity_report(denormalize_intensity(scores), gts, au_names=au_names)


# ---------------------------------------------------------------------------
# sparse-frames protocol


# training-set fraction -> fine-tune epochs
PARTIAL_EPOCHS = {0.1: 200, 0.01: 2000, 0.005: 4000, 0.002: 10000, 0.001: 20000}


def protocol_epochs(fraction):
    """Fine-tune epochs of a table fraction; TrainError for any other."""
    for key, epochs in PARTIAL_EPOCHS.items():
        if math.isclose(fraction, key, rel_tol=1e-9):
            return epochs
    raise TrainError(
        f"fraction {fraction} not in protocol table {sorted(PARTIAL_EPOCHS)}")


def partial_protocol(manifest, fraction, config):
    """Every-Nth-frame subset plus the epoch count that goes with it.

    Only the table fractions are accepted; returns (subset manifest, derived
    TrainConfig with the adjusted epoch budget).
    """
    epochs = protocol_epochs(fraction)
    subset = subsample_every_n(manifest, round(1.0 / fraction))
    return subset, dataclasses.replace(config, epochs=epochs)
