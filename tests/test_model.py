"""Model layer: patch pipeline, masking, forwards, init, checkpoints."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from faceau import model as mdl
from faceau import ndgrad as ng
from faceau.losses import AULabels, loss_detection, loss_pretrain, patch_normalize
from faceau.model import (
    CheckpointError,
    ConfigError,
    MaskPlan,
    ModelConfig,
    Tensor,
    classifier_forward,
    decoder_forward,
    encoder_forward,
    full_plan,
    init_weights,
    load_encoder_only,
    load_weights,
    patchify,
    pos_embed_sincos,
    preset,
    sample_mask,
    save_weights,
    unpatchify,
)
from faceau.ndgrad import ShapeError, Tape, backward


def tiny_config(**over):
    base = dict(image_size=8, channels=1, patch_size=4, enc_depth=1, enc_width=8,
                enc_heads=2, dec_depth=1, dec_width=8, dec_heads=2, mlp_ratio=2.0,
                num_aus=3, mask_ratio=0.75, task="pretrain")
    base.update(over)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# patch pipeline


def test_patchify_2x2_orders_raster():
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # 1x2x2
    patches = patchify(img, 1)
    assert patches.shape == (4, 1)
    assert patches.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]  # TL TR BL BR


def test_patchify_roundtrip_bitwise():
    rng = np.random.default_rng(0)
    img = rng.standard_normal((3, 32, 32)).astype(np.float32)
    back = unpatchify(patchify(img, 8), 8, 3)
    assert back.dtype == img.dtype
    assert np.array_equal(back, img)


def test_patchify_shape_64():
    img = np.zeros((3, 64, 64))
    assert patchify(img, 16).shape == (16, 768)


def test_patchify_channel_fastest_within_pixel():
    img = np.zeros((3, 2, 2))
    img[:, 0, 0] = [7.0, 8.0, 9.0]
    row = patchify(img, 2)[0]
    assert row[:3].tolist() == [7.0, 8.0, 9.0]


def test_patchify_rejects_bad_sizes():
    with pytest.raises(ShapeError):
        patchify(np.zeros((1, 6, 6)), 4)
    with pytest.raises(ShapeError):
        patchify(np.zeros((1, 4, 6)), 2)


# ---------------------------------------------------------------------------
# positional table


def test_pos_embed_range_and_determinism():
    t1 = pos_embed_sincos(16, 8)
    t2 = pos_embed_sincos(16, 8)
    assert t1.shape == (16, 8)
    assert (np.abs(t1) <= 1.0 + 1e-12).all()
    assert np.array_equal(t1, t2)


def test_pos_embed_distinguishes_grid_corners():
    # direct evaluation: for N=4, D=8 row (0,0) is all-zero args ->
    # [0,0,1,1,0,0,1,1]; row (1,1) starts with sin(1) ~ 0.841
    table = pos_embed_sincos(4, 8)
    assert np.allclose(table[0], [0, 0, 1, 1, 0, 0, 1, 1], atol=1e-12)
    assert abs(table[3][0] - math.sin(1.0)) < 1e-12
    assert (np.abs(table[0] - table[3]) > 0.1).any()


def test_pos_embed_uses_base_10000():
    # N=16, D=8: each axis has width 4, so column 1 is sin(row * 10000^(-1/2));
    # token 15 sits on row 3
    table = pos_embed_sincos(16, 8)
    assert abs(table[15][1] - math.sin(3 * 10000.0 ** -0.5)) < 1e-12


def test_pos_embed_rejects_bad_dims():
    with pytest.raises(ShapeError):
        pos_embed_sincos(15, 8)
    with pytest.raises(ShapeError):
        pos_embed_sincos(16, 6)


# ---------------------------------------------------------------------------
# masking


def test_sample_mask_counts():
    rng = np.random.default_rng(1)
    plan = sample_mask(196, 0.75, rng)
    assert plan.num_visible == 49
    assert plan.visible_idx.size == 49 and plan.masked_idx.size == 147


def test_sample_mask_ratio_zero_keeps_all():
    plan = sample_mask(16, 0.0, np.random.default_rng(2))
    assert plan.num_visible == 16
    assert plan.masked_idx.size == 0


def test_sample_mask_rejects_bad_ratio():
    rng = np.random.default_rng(0)
    for r in (-0.1, 1.0, 1.5, 0.95):  # 0.95 of 16 tokens leaves none visible
        with pytest.raises(ValueError):
            sample_mask(16, r, rng)


def test_sample_mask_is_deterministic_per_seed():
    a = sample_mask(64, 0.75, np.random.default_rng(9)).permutation
    b = sample_mask(64, 0.75, np.random.default_rng(9)).permutation
    assert np.array_equal(a, b)


def _loop_sample_mask(n_tokens, rng):
    # the one-draw-per-swap Fisher-Yates loop that sample_mask replaced
    perm = np.arange(n_tokens, dtype=np.int64)
    for i in range(n_tokens - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [16, 64, 196])
def test_sample_mask_equals_the_loop_draw_for_draw(n):
    for seed in range(20):
        ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # the stream state carries from plan to plan
            assert np.array_equal(sample_mask(n, 0.75, ours).permutation,
                                  _loop_sample_mask(n, loop))
        assert ours.bit_generator.state == loop.bit_generator.state


def test_mask_plan_holds_a_batch():
    plans = [sample_mask(16, 0.75, np.random.default_rng(s)) for s in range(3)]
    batch = mdl.stack_plans(plans)
    assert batch.num_tokens == 16 and batch.num_visible == 4
    assert np.array_equal(batch.visible_idx[1], plans[1].visible_idx)
    assert np.array_equal(batch.masked_idx[2], plans[2].masked_idx)
    with pytest.raises(ValueError):
        MaskPlan(permutation=np.array([[0, 1, 2], [0, 2, 2]]), num_visible=1)
    with pytest.raises(ValueError):
        mdl.stack_plans([plans[0], sample_mask(16, 0.5, np.random.default_rng(0))])


def test_batched_forwards_equal_one_image_forwards_bit_for_bit():
    rng = np.random.default_rng(4)
    images = rng.random((3, 1, 8, 8)).astype(np.float32)
    patches = np.stack([patchify(im, 4) for im in images])
    w = init_weights(tiny_config(), rng)
    plans = [sample_mask(4, 0.5, rng) for _ in images]
    batch = mdl.stack_plans(plans)
    pred = decoder_forward(w, encoder_forward(w, patches, batch), batch).data
    for k in range(3):
        one = decoder_forward(w, encoder_forward(w, patches[k], plans[k]), plans[k]).data
        assert one.tobytes() == pred[k].tobytes()
    wd = init_weights(tiny_config(task="detect"), rng)
    logits = classifier_forward(wd, patches).data
    assert logits.shape == (3, 3)
    for k in range(3):
        assert classifier_forward(wd, patches[k]).data.tobytes() == logits[k].tobytes()


def test_sample_mask_uniformity_monte_carlo():
    # each index should be masked ~75% of the time
    n, draws = 16, 10000
    rng = np.random.default_rng(123)
    hits = np.zeros(n)
    for _ in range(draws):
        plan = sample_mask(n, 0.75, rng)
        hits[plan.masked_idx] += 1
    freq = hits / draws
    assert (np.abs(freq - 0.75) <= 0.02).all(), freq


def test_mask_plan_validates_permutation():
    with pytest.raises(ValueError):
        MaskPlan(permutation=np.array([0, 0, 2]), num_visible=1)
    with pytest.raises(ValueError):
        MaskPlan(permutation=np.array([0, 1, 2]), num_visible=5)


# ---------------------------------------------------------------------------
# config


def test_full_preset_reference_geometry():
    cfg = preset("full")
    assert cfg.patch_size == 16
    assert (cfg.enc_depth, cfg.enc_width) == (12, 768)
    assert (cfg.dec_depth, cfg.dec_width) == (8, 512)
    assert cfg.mask_ratio == 0.75


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(image_size=30, patch_size=4)
    with pytest.raises(ConfigError):
        ModelConfig(enc_width=10, enc_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(mask_ratio=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(num_aus=0)
    with pytest.raises(ConfigError):
        ModelConfig(task="segment")
    for bad in (dict(enc_heads=0), dict(dec_heads=0), dict(patch_size=0),
                dict(enc_width=0, enc_heads=1), dict(enc_heads=-2),
                dict(patch_size=-4), dict(mlp_ratio=0.001), dict(enc_depth=-1),
                dict(enc_width=6, enc_heads=2)):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)


# ---------------------------------------------------------------------------
# forwards


def test_encoder_output_shape_and_ratio_zero():
    cfg = preset("desk")
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    plan = sample_mask(cfg.num_patches, 0.75, np.random.default_rng(2))
    out = encoder_forward(w, patches, plan)
    assert out.shape == (plan.num_visible, cfg.enc_width)
    all_in = encoder_forward(w, patches, full_plan(cfg.num_patches))
    assert all_in.shape == (cfg.num_patches, cfg.enc_width)


def test_encoder_depth_zero_matches_hand_oracle():
    cfg = tiny_config(enc_depth=0)
    w = init_weights(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    patches = rng.standard_normal((cfg.num_patches, cfg.patch_dim)).astype(np.float32)
    plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(7))
    got = encoder_forward(w, patches, plan).data

    proj = patches @ w.params["patch_embed.w"].data + w.params["patch_embed.b"].data
    toks = (proj + w.enc_pos)[plan.visible_idx]
    mu = toks.mean(axis=-1, keepdims=True)
    var = toks.var(axis=-1, keepdims=True)
    want = (toks - mu) / np.sqrt(var + 1e-6)
    want = want * w.params["enc.norm.g"].data + w.params["enc.norm.b"].data
    assert np.allclose(got, want, atol=1e-6)


def test_encoder_ignores_masked_index_order():
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(2))
    perm2 = plan.permutation.copy()
    perm2[plan.num_visible:] = perm2[plan.num_visible:][::-1]
    plan2 = MaskPlan(permutation=perm2, num_visible=plan.num_visible)
    a = encoder_forward(w, patches, plan).data
    b = encoder_forward(w, patches, plan2).data
    assert np.array_equal(a, b)


def test_encoder_ignores_masked_patch_contents():
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    patches = rng.standard_normal((cfg.num_patches, cfg.patch_dim))
    plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(2))
    scrambled = patches.copy()
    scrambled[plan.masked_idx] = rng.standard_normal((plan.masked_idx.size, cfg.patch_dim))
    a = encoder_forward(w, patches, plan).data
    b = encoder_forward(w, scrambled, plan).data
    assert np.array_equal(a, b)


def test_decoder_shape_and_unshuffle_invariance():
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    plan = sample_mask(cfg.num_patches, 0.75, np.random.default_rng(2))
    latent = encoder_forward(w, patches, plan)
    pred = decoder_forward(w, latent, plan)
    assert pred.shape == (cfg.num_patches, cfg.patch_dim)

    perm2 = plan.permutation.copy()
    perm2[plan.num_visible:] = perm2[plan.num_visible:][::-1]
    plan2 = MaskPlan(permutation=perm2, num_visible=plan.num_visible)
    pred2 = decoder_forward(w, encoder_forward(w, patches, plan2), plan2)
    assert np.allclose(pred.data, pred2.data, atol=1e-6)


def test_decoder_zero_blocks_masked_rows_match_oracle():
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(0))
    # zero the decoder blocks so they reduce to identity via residuals
    for name, t in w.params.items():
        if name.startswith("dec.blocks."):
            t.data[...] = 0.0
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    plan = sample_mask(cfg.num_patches, 0.75, np.random.default_rng(2))
    pred = decoder_forward(w, encoder_forward(w, patches, plan), plan).data

    tok = w.params["dec.mask_token"].data
    for i in plan.masked_idx:
        x = tok + w.dec_pos[i]
        xn = (x - x.mean()) / np.sqrt(x.var() + 1e-6)
        xn = xn * w.params["dec.norm.g"].data + w.params["dec.norm.b"].data
        want = xn @ w.params["dec.head.w"].data + w.params["dec.head.b"].data
        assert np.allclose(pred[i], want, atol=1e-5)


def test_decoder_requires_pretrain_task():
    cfg = tiny_config(task="detect")
    w = init_weights(cfg, np.random.default_rng(0))
    latent = Tensor(np.zeros((1, cfg.enc_width)))
    with pytest.raises(ValueError):
        decoder_forward(w, latent, sample_mask(cfg.num_patches, 0.75, np.random.default_rng(0)))


def test_constant_image_reconstructed_exactly():
    # constructed weights: decoder norm zeroed, pixel head emits the constant
    cfg = tiny_config(mask_ratio=0.0)
    w = init_weights(cfg, np.random.default_rng(0))
    value = 0.625
    w.params["dec.norm.g"].data[...] = 0.0
    w.params["dec.norm.b"].data[...] = 0.0
    w.params["dec.head.w"].data[...] = 0.0
    w.params["dec.head.b"].data[...] = value
    img = np.full((cfg.channels, cfg.image_size, cfg.image_size), value, dtype=np.float32)
    patches = patchify(img, cfg.patch_size)
    plan = full_plan(cfg.num_patches)
    pred = decoder_forward(w, encoder_forward(w, patches, plan), plan).data
    recon = unpatchify(pred, cfg.patch_size, cfg.channels)
    assert np.array_equal(recon, img)


def test_classifier_head_sizes():
    for n_au in (12, 8):
        cfg = preset("desk", num_aus=n_au, task="detect")
        w = init_weights(cfg, np.random.default_rng(0))
        patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
        assert classifier_forward(w, patches).shape == (n_au,)


def test_classifier_rejects_pretrain_task():
    cfg = tiny_config(task="pretrain")
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.zeros((cfg.num_patches, cfg.patch_dim))
    with pytest.raises(ValueError):
        classifier_forward(w, patches)


def test_classifier_sensitive_to_patch_order():
    cfg = tiny_config(task="detect")
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    swapped = patches.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    a = classifier_forward(w, patches).data
    b = classifier_forward(w, swapped).data
    assert not np.allclose(a, b)


def test_classifier_zero_head_returns_bias():
    cfg = tiny_config(task="detect")
    w = init_weights(cfg, np.random.default_rng(0))
    w.params["head.fc.w"].data[...] = 0.0
    w.params["head.fc.b"].data[...] = [0.5, -1.0, 2.0]
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    out = classifier_forward(w, patches).data
    assert np.allclose(out, [0.5, -1.0, 2.0], atol=1e-7)


def test_classifier_repeat_calls_bitwise_equal():
    cfg = preset("desk", task="detect")
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    a = classifier_forward(w, patches).data
    b = classifier_forward(w, patches).data
    assert np.array_equal(a, b)


def test_model_gradients_check_out_end_to_end():
    cfg = tiny_config()
    with ng.precision("float64"):
        w = init_weights(cfg, np.random.default_rng(11))
        patches = np.random.default_rng(12).standard_normal((cfg.num_patches, cfg.patch_dim))
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(13))
        names = list(w.params)
        tensors = [w.params[n] for n in names]

        def f(*ts):
            pred = decoder_forward(w, encoder_forward(w, patches, plan), plan)
            return ng.mean(ng.square(pred))

        report = ng.grad_check(f, tensors, sample=3, tol=1e-4,
                               rng=np.random.default_rng(14))
    assert report.passed, f"max rel error {report.max_rel_error}"


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_per_seed():
    cfg = tiny_config()
    a = init_weights(cfg, np.random.default_rng(33))
    b = init_weights(cfg, np.random.default_rng(33))
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_init_xavier_bound_768():
    cfg = ModelConfig(image_size=32, channels=1, patch_size=4, enc_depth=1,
                      enc_width=768, enc_heads=12, mlp_ratio=1.0, num_aus=2,
                      task="detect")
    w = init_weights(cfg, np.random.default_rng(0))
    q = w.params["enc.blocks.0.attn.q.w"].data
    bound = math.sqrt(6.0 / 1536.0)
    assert abs(bound - 0.0625) < 1e-4
    assert (np.abs(q) <= bound).all()
    assert np.abs(q).max() > 0.9 * bound  # actually fills the range


def test_init_biases_zero_and_bounds_hold_everywhere():
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(1))
    for name, t in w.params.items():
        if name.endswith(".b") and not name.endswith("norm.b") and "ln" not in name:
            assert (t.data == 0).all(), name
        if name.endswith(".w"):
            fi, fo = t.data.shape
            bound = math.sqrt(6.0 / (fi + fo))
            assert (np.abs(t.data) <= bound).all(), name
    tok = w.params["dec.mask_token"].data
    assert (np.abs(tok) <= 2 * 0.02).all()
    assert tok.std() > 0


# ---------------------------------------------------------------------------
# checkpoints


def test_save_load_roundtrip_bitwise(tmp_path):
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_weights(w, path)
    back = load_weights(path)
    assert back.config == cfg
    for name in w.params:
        assert np.ascontiguousarray(w.params[name].data, dtype="<f4").tobytes() == \
            np.ascontiguousarray(back.params[name].data, dtype="<f4").tobytes(), name


def test_encoder_only_load_keeps_fresh_head(tmp_path):
    cfg_pre = tiny_config()
    pre = init_weights(cfg_pre, np.random.default_rng(0))
    path = tmp_path / "pre.ckpt"
    save_weights(pre, path)

    cfg_ft = tiny_config(task="detect")
    loaded = load_encoder_only(path, cfg_ft, np.random.default_rng(42))
    fresh = init_weights(cfg_ft, np.random.default_rng(42))
    for name, t in loaded.params.items():
        if name.startswith(("patch_embed.", "enc.")):
            assert np.allclose(t.data, pre.params[name].data, atol=1e-7), name
        else:
            assert np.array_equal(t.data, fresh.params[name].data), name


def test_encoder_only_load_reports_shape_mismatches(tmp_path):
    pre = init_weights(tiny_config(), np.random.default_rng(0))
    path = tmp_path / "pre.ckpt"
    save_weights(pre, path)
    wider = tiny_config(task="detect", enc_width=16, enc_heads=2)
    with pytest.raises(CheckpointError) as ei:
        load_encoder_only(path, wider, np.random.default_rng(0))
    assert "patch_embed.w" in str(ei.value)


def test_encoder_only_load_rejects_a_deeper_encoder(tmp_path):
    # every encoder array of the file must land in the model: a pre-trained
    # encoder deeper than the fine-tune model is not cut to its first blocks
    path = tmp_path / "pre.ckpt"
    save_weights(init_weights(tiny_config(enc_depth=2), np.random.default_rng(0)), path)
    with pytest.raises(CheckpointError) as ei:
        load_encoder_only(path, tiny_config(task="detect"), np.random.default_rng(0))
    assert "enc.blocks.1.ln1.g: unexpected" in str(ei.value)


def test_truncated_checkpoint_rejected(tmp_path):
    w = init_weights(tiny_config(), np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_weights(w, path)
    raw = path.read_bytes()
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_weights(bad)


def test_wrong_magic_and_garbage_rejected(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_weights(p)
    p2 = tmp_path / "tiny.ckpt"
    p2.write_bytes(b"\x01\x02")
    with pytest.raises(CheckpointError):
        load_weights(p2)


def test_corrupted_byte_fails_checksum(tmp_path):
    w = init_weights(tiny_config(), np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_weights(w, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bad = tmp_path / "flip.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_weights(bad)


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_weights(init_weights(tiny_config(), np.random.default_rng(0)), path)
    old = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before rename")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError):
        save_weights(init_weights(tiny_config(), np.random.default_rng(1)), path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    monkeypatch.undo()

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:10])
            raise OSError("no space left on device")

    monkeypatch.setattr(mdl, "open", lambda *a: FullDisk(open(*a)), raising=False)
    with pytest.raises(OSError):
        save_weights(init_weights(tiny_config(), np.random.default_rng(1)), path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    load_weights(path)


def test_container_is_written_one_array_at_a_time(tmp_path, monkeypatch):
    writes = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(len(data))
            if fail_at is not None and len(writes) == fail_at:
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(mdl, "open", lambda *a: Counting(open(*a)), raising=False)
    weights = init_weights(tiny_config(), np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    fail_at = None
    save_weights(weights, path)
    # header, each array, CRC trailer: nothing is written twice
    assert sum(writes) == path.stat().st_size
    assert len(writes) == len(weights.params) + 2
    assert writes[-1] == 4
    old = path.read_bytes()
    writes.clear()
    fail_at = 3  # after the header and the first array are on disk
    with pytest.raises(OSError):
        save_weights(init_weights(tiny_config(), np.random.default_rng(1)), path)
    assert len(writes) == 3
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_desk_sample_tape_sizes():
    # one training sample as the training loop records it: forward, loss
    # and the sample's share of the batch mean, on fused ops
    rng = np.random.default_rng(0)
    patches = patchify(rng.random((1, 32, 32)), 4)
    cfg = preset("desk", task="pretrain")
    w = init_weights(cfg, rng)
    plan = sample_mask(cfg.num_patches, cfg.mask_ratio, rng)
    with Tape() as tape:
        pred = decoder_forward(w, encoder_forward(w, patches, plan), plan)
        ng.scale(loss_pretrain(pred, patch_normalize(patches), plan), 1.0 / 16)
    assert len(tape.nodes) <= 66
    w = init_weights(preset("desk", task="detect"), rng)
    with Tape() as tape:
        labels = AULabels(occurrence=np.array([1, 0, 1, 0]))
        ng.scale(loss_detection(classifier_forward(w, patches), labels), 1.0 / 16)
    assert len(tape.nodes) <= 50


def test_backward_through_masked_pipeline_populates_grads():
    cfg = tiny_config()
    w = init_weights(cfg, np.random.default_rng(0))
    patches = np.random.default_rng(1).standard_normal((cfg.num_patches, cfg.patch_dim))
    plan = sample_mask(cfg.num_patches, 0.75, np.random.default_rng(2))
    with Tape() as tape:
        pred = decoder_forward(w, encoder_forward(w, patches, plan), plan)
        loss = ng.mean(ng.square(pred))
    backward(loss, tape)
    grads = [t.grad for t in w.params.values()]
    assert all(g is not None for g in grads)
    assert any(np.abs(g).sum() > 0 for g in grads)


def _desk_detect_grads(seed, steps=4, barrier=None):
    """Gradient bytes of `steps` tapes over one 2-sample desk detect chunk,
    each waiting at `barrier` (if given) before it starts."""
    cfg = preset("desk", task="detect")
    rng = np.random.default_rng(seed)
    w = init_weights(cfg, rng)
    patches = rng.standard_normal((2, cfg.num_patches, cfg.patch_dim))
    labels = AULabels(occurrence=rng.integers(0, 2, (2, cfg.num_aus)))
    grads = []
    for _ in range(steps):
        if barrier is not None:
            barrier.wait()
        w.zero_grad()
        with Tape() as tape:
            loss = ng.sum(loss_detection(classifier_forward(w, patches), labels))
        backward(loss, tape)
        grads.append(b"".join(t.grad.tobytes() for t in w.params.values()))
    return grads


def test_two_threads_record_tapes_at_once():
    # each thread records on its own tape: its gradients are a lone run's
    alone = {seed: _desk_detect_grads(seed) for seed in (0, 1)}
    barrier = threading.Barrier(2, timeout=60)
    got, errors = {}, []

    def run(seed):
        try:
            got[seed] = _desk_detect_grads(seed, barrier=barrier)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(seed,)) for seed in alone]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, inside every op
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == alone
