"""Training loops: determinism, resume, freeze, and the sparse-frames protocol."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import faceau.model
import faceau.ndgrad as ng
import faceau.train
from faceau.augment import drop_path
from faceau.data import Manifest, SampleRecord
from faceau.losses import (AULabels, loss_detection, loss_intensity, loss_pretrain,
                           patch_normalize)
from faceau.model import (ENCODER_PREFIXES, CheckpointError, MaskPlan, build_weights,
                          classifier_forward, decoder_forward, encoder_forward,
                          init_weights, load_weights, num_visible, preset,
                          save_weights)
from faceau.optim import lr_at
from faceau.synth import synth_corpus
from faceau.train import (PARTIAL_EPOCHS, TrainConfig, TrainError, evaluate,
                          finetune_loop, fresh_streams, load_run_state,
                          partial_protocol, pretrain_loop, save_run_state,
                          start_run, train_preset, write_trace)


def tiny_model(task="pretrain"):
    return preset("desk", image_size=16, patch_size=4, enc_depth=2, enc_width=32,
                  enc_heads=2, dec_depth=1, dec_width=16, dec_heads=2, task=task)


def tiny_config(task="pretrain", **overrides):
    base = dict(task=task, epochs=2, warmup_epochs=1, base_lr=2.56e-3,
                batch_size=3, weight_decay=0.01, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus(count=6, seed=0):
    return synth_corpus(seed=seed, count=count, image_size=16, num_subjects=3)


def param_bytes(weights):
    return b"".join(np.ascontiguousarray(t.data, dtype="<f4").tobytes()
                    for _, t in weights.param_items())


def encoder_bytes(weights):
    return b"".join(np.ascontiguousarray(t.data, dtype="<f4").tobytes()
                    for name, t in weights.param_items()
                    if name.startswith(ENCODER_PREFIXES))


# ------------------------------------------------------------------- config

def test_config_rejects_bad_fields():
    with pytest.raises(TrainError):
        tiny_config(task="segmentation")
    with pytest.raises(TrainError):
        tiny_config(warmup_epochs=5)
    with pytest.raises(TrainError):
        tiny_config(batch_size=0)
    with pytest.raises(TrainError):
        tiny_config(mixup_alpha=-0.1)
    with pytest.raises(TrainError):
        tiny_config(drop_path_rate=1.0)
    with pytest.raises(TrainError):
        tiny_config(randaug_magnitude=11)
    with pytest.raises(TrainError):
        tiny_config(freeze_encoder=True)
    with pytest.raises(TrainError):
        tiny_config(reduction="median")


def test_config_beta2_defaults_by_task():
    assert tiny_config("pretrain").beta2 == 0.95
    assert tiny_config("detect").beta2 == 0.999
    assert tiny_config("intensity").beta2 == 0.999
    assert tiny_config("pretrain", beta2=0.5).beta2 == 0.5


def test_reference_presets():
    p = train_preset("pretrain")
    assert (p.epochs, p.warmup_epochs) == (800, 40)
    assert p.base_lr == 1.5e-4 and p.batch_size == 4096
    assert p.weight_decay == 0.05 and p.recon_loss == "L1" and p.random_crop
    d = train_preset("detect")
    assert (d.epochs, d.warmup_epochs, d.batch_size) == (20, 10, 512)
    assert d.drop_path_rate == 0.1
    assert (d.randaug_magnitude, d.randaug_prob) == (9, 0.5)
    assert (d.mixup_alpha, d.cutmix_alpha) == (0.2, 0.75)
    i = train_preset("intensity")
    assert i.mixup_alpha == 0.0 and i.cutmix_alpha == 0.0
    with pytest.raises(TrainError):
        train_preset("linear_probe")


def test_streams_are_seeded_and_distinct():
    a = fresh_streams(7)
    b = fresh_streams(7)
    c = fresh_streams(8)
    assert a["mask"].random() == b["mask"].random()
    assert a["mask"].random() != c["mask"].random()
    draws = {name: fresh_streams(7)[name].random() for name in a}
    assert len(set(draws.values())) == len(draws)


# ----------------------------------------------------------------- pretrain

def test_pretrain_trace_shape_and_schedule():
    corpus = tiny_corpus()
    config = tiny_config()
    run = start_run(tiny_model(), config)
    rows = pretrain_loop(run, corpus)
    assert len(rows) == 2 * 2  # 6 images / batch 3, 2 epochs
    assert [r.step for r in rows] == [0, 1, 2, 3]
    assert [r.epoch for r in rows] == [0, 0, 1, 1]
    for r in rows:
        assert math.isfinite(r.loss) and r.loss >= 0.0
        assert r.lr == lr_at(config, r.step, 2)
    assert run.epoch == 2 and run.step == 4


def test_pretrain_rejects_wrong_task_and_empty_data():
    with pytest.raises(TrainError):
        start_run(tiny_model("detect"), tiny_config())
    run = start_run(tiny_model(), tiny_config())
    with pytest.raises(TrainError):
        pretrain_loop(run, tiny_corpus().subset([]))


def test_pretrain_bitwise_deterministic():
    results = []
    for _ in range(2):
        run = start_run(tiny_model(), tiny_config(random_crop=True))
        rows = pretrain_loop(run, tiny_corpus())
        results.append((rows, param_bytes(run.weights)))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]


def test_pretrain_resume_is_bitwise(tmp_path):
    corpus = tiny_corpus()
    ckpt = str(tmp_path / "run.bin")
    full_cfg = tiny_config(epochs=4, warmup_epochs=2, random_crop=True)
    run_a = start_run(tiny_model(), full_cfg)
    rows_a = pretrain_loop(run_a, corpus)

    run_b = start_run(tiny_model(), full_cfg)
    head = pretrain_loop(run_b, corpus, until_epoch=2, checkpoint=ckpt)
    resumed = load_run_state(ckpt)
    assert resumed.epoch == 2 and resumed.step == run_b.step
    tail = pretrain_loop(resumed, corpus)
    assert head + tail == rows_a
    assert param_bytes(resumed.weights) == param_bytes(run_a.weights)


def test_run_state_round_trip_and_corruption(tmp_path):
    path = str(tmp_path / "state.bin")
    run = start_run(tiny_model(), tiny_config())
    pretrain_loop(run, tiny_corpus(), until_epoch=1)
    save_run_state(path, run)
    back = load_run_state(path)
    assert back.config == run.config
    assert back.weights.config == run.weights.config
    assert back.epoch == run.epoch and back.opt.step == run.opt.step
    assert back.trace == run.trace
    assert param_bytes(back.weights) == param_bytes(run.weights)
    for name in run.opt.m:
        assert np.array_equal(back.opt.m[name], run.opt.m[name])
        assert np.array_equal(back.opt.v[name], run.opt.v[name])
    assert back.streams["mask"].random() == run.streams["mask"].random()

    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    bad = str(tmp_path / "bad.bin")
    open(bad, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError):
        load_run_state(bad)
    trunc = str(tmp_path / "trunc.bin")
    open(trunc, "wb").write(open(path, "rb").read()[:-9])
    with pytest.raises(CheckpointError):
        load_run_state(trunc)
    open(trunc, "wb").write(b"PK\x03\x04 not a run state")
    with pytest.raises(CheckpointError):
        load_run_state(trunc)


def test_loaders_take_shapes_from_the_layout(tmp_path, monkeypatch):
    # loading builds weights from the parameter layout, not from a throwaway
    # random init that every array then overwrites
    run = start_run(tiny_model(), tiny_config())
    save_run_state(str(tmp_path / "run_state.bin"), run)
    save_weights(run.weights, tmp_path / "model.ckpt")

    def no_init(*args):
        raise AssertionError("a loader drew a random init")

    monkeypatch.setattr(faceau.model, "init_weights", no_init)
    monkeypatch.setattr(faceau.train, "init_weights", no_init)
    state = load_run_state(str(tmp_path / "run_state.bin"))
    weights = load_weights(tmp_path / "model.ckpt")
    assert param_bytes(state.weights) == param_bytes(weights) == param_bytes(run.weights)
    assert list(state.weights.params) == list(weights.params) == list(run.weights.params)


def test_container_bytes_are_pinned(tmp_path):
    # both on-disk formats at the desk preset, seed 0; a change to either
    # wire format (header, table, JSON layout, array order) shows here
    weights = tmp_path / "model.ckpt"
    save_weights(init_weights(preset("desk"), np.random.default_rng(0)), weights)
    state = tmp_path / "run_state.bin"
    save_run_state(str(state), start_run(preset("desk"),
                                         train_preset("pretrain", seed=0)))
    assert hashlib.sha256(weights.read_bytes()).hexdigest() == \
        "6d76555f6c26ade8417bada40e227dc40b9bcc5924a650be7e06da8e2a86f14f"
    assert hashlib.sha256(state.read_bytes()).hexdigest() == \
        "24e332a021fd1a23b2a69b3ea7da25a89ec501d514cf96ed08a9919d04bde69f"


def test_write_trace_appends(tmp_path):
    path = str(tmp_path / "trace.csv")
    run = start_run(tiny_model(), tiny_config())
    rows = pretrain_loop(run, tiny_corpus(), until_epoch=1)
    more = pretrain_loop(run, tiny_corpus())
    write_trace(path, run.trace)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "step,epoch,lr,loss"
    assert len(lines) == 1 + len(rows) + len(more)
    step, epoch, lr, loss = lines[1].split(",")
    assert (int(step), int(epoch)) == (0, 0)
    assert float(loss) == rows[0].loss


# ----------------------------------------------------------------- finetune

def test_label_smoothing_pulls_bits_to_eps_halves(monkeypatch):
    # mixing off, so every target is a hard bit smoothed to eps/2 or 1 - eps/2
    seen = []

    def recording(logits, labels, _loss=faceau.train.loss_detection):
        seen.append(labels.occurrence.copy())
        return _loss(logits, labels)

    monkeypatch.setattr(faceau.train, "loss_detection", recording)
    config = tiny_config("detect", epochs=1, label_smoothing=0.2,
                         mixup_alpha=0.0, cutmix_alpha=0.0)
    run = start_run(tiny_model("detect"), config)
    finetune_loop(run, tiny_corpus())
    targets = np.concatenate(seen)
    assert len(targets) == 6  # each sample's labels once, in chunks
    low, high = np.isclose(targets, 0.1), np.isclose(targets, 0.9)
    assert (low | high).all() and low.any() and high.any()


def test_finetune_detect_smoke_with_eval():
    corpus = tiny_corpus(count=9)
    config = tiny_config("detect", mixup_alpha=0.2, cutmix_alpha=0.75,
                         randaug_magnitude=9, randaug_prob=0.5,
                         drop_path_rate=0.1, eval_every=1)
    run = start_run(tiny_model("detect"), config)
    rows, reports = finetune_loop(run, corpus, eval_corpus=tiny_corpus(count=6, seed=1))
    assert len(rows) == 2 * 3  # 9 images / batch 3, 2 epochs
    assert all(math.isfinite(r.loss) for r in rows)
    assert [ep for ep, _ in reports] == [1, 2]
    for _, rep in reports:
        assert "f1" in rep.columns and len(rep.columns["f1"]) == 4
        assert all(0.0 <= v <= 1.0 for v in rep.columns["f1"])


def test_finetune_intensity_smoke():
    corpus = tiny_corpus(count=6)
    config = tiny_config("intensity", eval_every=2)
    run = start_run(tiny_model("intensity"), config)
    rows, reports = finetune_loop(run, corpus, eval_corpus=corpus)
    assert len(rows) == 4 and all(math.isfinite(r.loss) for r in rows)
    (ep, rep), = reports
    assert ep == 2
    assert set(rep.columns) == {"icc", "mse", "mae"}


def test_finetune_bitwise_deterministic():
    results = []
    for _ in range(2):
        run = start_run(tiny_model("detect"),
                        tiny_config("detect", mixup_alpha=0.2, cutmix_alpha=0.75,
                                    randaug_magnitude=9, randaug_prob=0.5))
        rows, _ = finetune_loop(run, tiny_corpus(count=6))
        results.append((rows, param_bytes(run.weights)))
    assert results[0] == results[1]


def test_finetune_rejects_label_task_mismatch():
    corpus = tiny_corpus()
    stripped = dataclasses.replace(corpus)
    stripped.manifest.records = [
        dataclasses.replace(r, intensity=None) for r in corpus.manifest.records]
    run = start_run(tiny_model("intensity"), tiny_config("intensity"))
    with pytest.raises(TrainError) as ei:
        finetune_loop(run, stripped)
    assert "intensity" in str(ei.value)

    no_occ = dataclasses.replace(corpus)
    no_occ.manifest.records = [
        dataclasses.replace(r, occurrence=None) for r in corpus.manifest.records]
    run = start_run(tiny_model("detect"), tiny_config("detect"))
    with pytest.raises(TrainError):
        finetune_loop(run, no_occ)


def test_finetune_requires_eval_corpus_when_scheduled():
    run = start_run(tiny_model("detect"), tiny_config("detect", eval_every=1))
    with pytest.raises(TrainError):
        finetune_loop(run, tiny_corpus())


def test_finetune_rejects_au_count_mismatch():
    corpus = synth_corpus(seed=0, count=4, image_size=16, num_aus=3, num_subjects=2)
    run = start_run(tiny_model("detect"), tiny_config("detect"))
    with pytest.raises(TrainError) as ei:
        finetune_loop(run, corpus)
    assert "3" in str(ei.value) and "4" in str(ei.value)


def test_frozen_encoder_bytes_unchanged():
    run = start_run(tiny_model("detect"),
                    tiny_config("detect", freeze_encoder=True))
    before_enc = encoder_bytes(run.weights)
    before_head = run.weights.params["head.fc.w"].data.copy()
    finetune_loop(run, tiny_corpus())
    assert encoder_bytes(run.weights) == before_enc
    assert not np.array_equal(run.weights.params["head.fc.w"].data, before_head)


def test_freeze_flag_rejected_for_pretrain():
    with pytest.raises(TrainError):
        tiny_config("pretrain", freeze_encoder=True)


def test_frozen_encoder_gets_no_gradients(monkeypatch):
    seen = []

    def capture(weights, *args, _step=faceau.train.adamw_step, **kwargs):
        seen.append({name: t.grad for name, t in weights.params.items()})
        return _step(weights, *args, **kwargs)

    monkeypatch.setattr(faceau.train, "adamw_step", capture)
    run = start_run(tiny_model("detect"), tiny_config("detect", freeze_encoder=True))
    finetune_loop(run, tiny_corpus())
    assert seen
    for grads in seen:
        assert all((g is None) == name.startswith(ENCODER_PREFIXES)
                   for name, g in grads.items())


# ---------------------------------------------- chunks against one-sample tapes


def _one_sample_loss(run, *rows):
    """One sample's rows of the prepared batch through the one-image model
    API: [N, P] patches, a one-sample MaskPlan, and drop path deciding each
    branch by one scalar of the sample's keep row, as the forward reaches it."""
    config = run.config
    if config.task == "pretrain":
        patches, perm = rows
        model = run.weights.config
        plan = MaskPlan(perm, num_visible(model.num_patches, model.mask_ratio))
        latent = encoder_forward(run.weights, patches, plan)
        return loss_pretrain(decoder_forward(run.weights, latent, plan),
                             patch_normalize(patches), plan, config.recon_loss,
                             config.reduction)
    patches, labels, keep = rows
    draws = iter(keep)

    def hook(t):
        return drop_path(t, config.drop_path_rate, next(draws), training=True)

    logits = classifier_forward(run.weights, patches, hook)
    if config.task == "detect":
        return loss_detection(logits, AULabels(occurrence=labels))
    return loss_intensity(ng.sigmoid(logits), AULabels(intensity=labels))


def _one_sample_driver(losses):
    """The training driver's body before chunks, for one batch: a tape per
    sample, its backward, gradients accumulated at 1/len(batch)."""
    def driver(run, corpus, until_epoch, checkpoint, prepare, chunk_loss, after_epoch=None):
        idx = run.streams["shuffle"].permutation(len(corpus))
        batch = prepare(idx)
        run.weights.zero_grad()
        for rows in zip(*batch):
            with ng.Tape() as tape:
                loss = _one_sample_loss(run, *rows)
                share = ng.scale(loss, 1.0 / len(idx))
            ng.backward(share, tape)
            losses.append(loss.item())
        faceau.train.adamw_step(run.weights, run.opt, 0.0, 0.0)
        return []
    return driver


def _chunked_driver(losses, _train=faceau.train._train):
    def driver(run, corpus, until_epoch, checkpoint, prepare, chunk_loss, after_epoch=None):
        def recorded(weights, *rows):
            out = chunk_loss(weights, *rows)
            losses.extend(out.data.tolist())
            return out
        return _train(run, corpus, until_epoch, checkpoint, prepare, recorded, after_epoch)
    return driver


AUGMENT = dict(drop_path_rate=0.1, randaug_magnitude=9, randaug_prob=0.5)


@pytest.mark.parametrize("task,batch,recipe", [
    ("pretrain", 6, dict(random_crop=True)),  # chunks of 4 and 2
    ("detect", 5, dict(mixup_alpha=0.2, cutmix_alpha=0.75, label_smoothing=0.1,
                       **AUGMENT)),  # chunks of 2, 2 and 1
    ("intensity", 3, AUGMENT),  # chunks of 2 and 1
])
def test_chunks_equal_one_sample_tapes_bit_for_bit(monkeypatch, task, batch, recipe):
    # one desk step: every per-sample loss and every gradient the optimizer
    # sees, against the one-tape-per-sample driver kept above
    corpus = synth_corpus(seed=3, count=batch, image_size=32, num_subjects=2)
    model = preset("desk", task=task)
    assert batch % faceau.train.chunk_size(model) != 0
    results = []
    for make_driver in (_one_sample_driver, _chunked_driver):
        losses, grads = [], {}

        def capture(weights, *args, _step=faceau.train.adamw_step, **kwargs):
            grads.update({name: t.grad for name, t in weights.params.items()})
            return _step(weights, *args, **kwargs)

        monkeypatch.setattr(faceau.train, "adamw_step", capture)
        monkeypatch.setattr(faceau.train, "_train", make_driver(losses))
        run = start_run(model, tiny_config(task, epochs=1, batch_size=batch, **recipe))
        loop = pretrain_loop if task == "pretrain" else finetune_loop
        loop(run, corpus)
        monkeypatch.undo()
        results.append((losses, {name: g.tobytes() for name, g in grads.items()}))
    (ref_losses, ref_grads), (losses, grads) = results
    assert len(losses) == batch and losses == ref_losses
    assert grads == ref_grads


@pytest.mark.parametrize("task,recipe", [
    ("pretrain", dict(random_crop=True)),
    ("detect", dict(mixup_alpha=0.2, cutmix_alpha=0.75, **AUGMENT)),
])
def test_a_chunk_depends_only_on_the_weights_and_its_rows(monkeypatch, task, recipe):
    # the loop's prepare and chunk_loss, taken from a driver that runs nothing
    loop_fns = {}

    def capture(run, corpus, until_epoch, checkpoint, prepare, chunk_loss, after_epoch=None):
        loop_fns.update(prepare=prepare, chunk_loss=chunk_loss)
        return []

    monkeypatch.setattr(faceau.train, "_train", capture)
    corpus = synth_corpus(seed=3, count=5, image_size=32, num_subjects=2)
    model = preset("desk", task=task)
    run = start_run(model, tiny_config(task, epochs=1, batch_size=5, **recipe))
    loop = pretrain_loop if task == "pretrain" else finetune_loop
    loop(run, corpus)
    batch = loop_fns["prepare"](np.arange(len(corpus)))
    k = faceau.train.chunk_size(model)
    rows = tuple(a[:k] for a in batch)
    states = {name: g.bit_generator.state for name, g in run.streams.items()}
    results = []
    for _ in range(2):
        weights = build_weights(model, ((name, t.data.copy())
                                        for name, t in run.weights.params.items()))
        with ng.Tape() as tape:
            losses = loop_fns["chunk_loss"](weights, *rows)
            total = ng.sum(losses)
        ng.backward(total, tape)
        # the gradients land in the weights handed in, and in every one
        results.append((losses.data.tobytes(),
                        {name: t.grad.tobytes() for name, t in weights.params.items()}))
    assert results[0] == results[1]
    assert {name: g.bit_generator.state for name, g in run.streams.items()} == states


# ----------------------------------------------------------------- evaluate

def test_evaluate_detect_counts_and_range():
    corpus = tiny_corpus(count=8)
    run = start_run(tiny_model("detect"), tiny_config("detect"))
    rep = evaluate(run.weights, corpus)
    assert rep.num_samples == 8
    assert rep.au_names == list(corpus.manifest.au_names)
    assert all(0.0 <= v <= 1.0 for v in rep.columns["f1"])


def test_evaluate_rejects_pretrain_model():
    run = start_run(tiny_model(), tiny_config())
    with pytest.raises(TrainError):
        evaluate(run.weights, tiny_corpus())


# ----------------------------------------------------- sparse-frames protocol

def big_manifest(n=1000):
    # one sequence so the every-Nth count is exact
    recs = [SampleRecord(image_path=f"f{i}.pgm", subject="s0", frame=i)
            for i in range(n)]
    return Manifest(records=recs, au_names=["a", "b", "c", "d"])


@pytest.mark.parametrize("fraction,n,epochs", [
    (0.1, 10, 200), (0.01, 100, 2000), (0.005, 200, 4000),
    (0.002, 500, 10000), (0.001, 1000, 20000)])
def test_partial_protocol_table(fraction, n, epochs):
    config = tiny_config("detect")
    subset, derived = partial_protocol(big_manifest(), fraction, config)
    assert derived.epochs == epochs
    assert len(subset.records) == math.ceil(1000 / n)
    assert subset.records[0].frame == 0
    if len(subset.records) > 1:
        assert subset.records[1].frame == n


def test_partial_protocol_exact_count():
    subset, _ = partial_protocol(big_manifest(1000), 0.1, tiny_config("detect"))
    assert len(subset.records) == 100


def test_partial_protocol_rejects_off_table_fraction():
    for bad in (0.5, 0.05, 0.2, 0.0001):
        with pytest.raises(TrainError):
            partial_protocol(big_manifest(100), bad, tiny_config("detect"))
    assert set(PARTIAL_EPOCHS) == {0.1, 0.01, 0.005, 0.002, 0.001}
