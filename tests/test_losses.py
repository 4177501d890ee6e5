"""Objectives: formula oracles, stability, masking semantics, grad checks."""

import math

import numpy as np
import pytest

from faceau import losses as ls
from faceau import model as mdl
from faceau import ndgrad as ng
from faceau.losses import (
    AULabels,
    LossError,
    denormalize_intensity,
    denormalize_patches,
    loss_detection,
    loss_intensity,
    loss_pretrain,
    patch_normalize,
    raw_targets,
)
from faceau.model import full_plan, sample_mask
from faceau.ndgrad import Tape, Tensor, backward


# ---------------------------------------------------------------------------
# patch normalization


def test_patch_normalize_constant_row_collapses_to_zero():
    out = patch_normalize(np.array([[5.0, 5.0, 5.0, 5.0]]))
    assert np.allclose(out.patches, 0.0, atol=1e-3)
    assert out.normalized


def test_patch_normalize_standard_row_is_fixed_point():
    out = patch_normalize(np.array([[-1.0, 1.0]]))
    assert np.allclose(out.patches, [[-1.0, 1.0]], atol=1e-5)


def test_patch_normalize_moments():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((10, 16)) * 3 + 1
    out = patch_normalize(rows)
    assert np.abs(out.patches.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.patches.var(axis=-1) - 1.0).max() < 1e-4


def test_denormalize_patches_inverts():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((6, 8)) * 2 + 0.3
    out = patch_normalize(rows)
    back = denormalize_patches(out.patches, out)
    assert np.allclose(back, rows, atol=1e-6)
    raw = raw_targets(rows)
    assert np.array_equal(denormalize_patches(rows, raw), rows)


# ---------------------------------------------------------------------------
# reconstruction loss


def _random_pred_targets(seed, n=16, d=8):
    rng = np.random.default_rng(seed)
    tgt = raw_targets(rng.standard_normal((n, d)))
    pred = Tensor(rng.standard_normal((n, d)))
    plan = sample_mask(n, 0.75, rng)
    return pred, tgt, plan


def test_loss_pretrain_zero_at_perfect_prediction():
    with ng.precision("float64"):
        _, tgt, plan = _random_pred_targets(0)
        pred = Tensor(tgt.patches.copy())
        val = loss_pretrain(pred, tgt, plan).item()
    assert val == pytest.approx(0.0, abs=1e-12)


def test_loss_pretrain_constant_offset_gives_offset():
    with ng.precision("float64"):
        rng = np.random.default_rng(1)
        tgt = raw_targets(rng.standard_normal((4, 6)))
        c = -0.37
        pred = Tensor(tgt.patches + c)
        plan = mdl.MaskPlan(permutation=np.array([1, 2, 3, 0]), num_visible=3)  # one masked
        assert loss_pretrain(pred, tgt, plan, "L1").item() == pytest.approx(abs(c), abs=1e-9)
        assert loss_pretrain(pred, tgt, plan, "L2").item() == pytest.approx(c * c, abs=1e-9)


@pytest.mark.parametrize("flavor", ["L1", "L2"])
def test_loss_pretrain_matches_loop_oracle(flavor):
    with ng.precision("float64"):
        pred, tgt, plan = _random_pred_targets(7)
        got = loss_pretrain(pred, tgt, plan, flavor).item()
    total, count = 0.0, 0
    for i in plan.masked_idx:
        for j in range(tgt.patches.shape[1]):
            d = float(pred.data[i, j]) - float(tgt.patches[i, j])
            total += abs(d) if flavor == "L1" else d * d
            count += 1
    assert got == pytest.approx(total / count, abs=1e-12)


def test_loss_pretrain_sum_reduction_is_literal_total():
    with ng.precision("float64"):
        pred, tgt, plan = _random_pred_targets(8)
        m = loss_pretrain(pred, tgt, plan, "L1", reduction="mean").item()
        s = loss_pretrain(pred, tgt, plan, "L1", reduction="sum").item()
    n_elem = plan.masked_idx.size * tgt.patches.shape[1]
    assert s == pytest.approx(m * n_elem, rel=1e-12)


def test_loss_pretrain_ignores_visible_patches_exactly():
    with ng.precision("float64"):
        pred, tgt, plan = _random_pred_targets(9)
        base = loss_pretrain(pred, tgt, plan).item()
        poked = pred.data.copy()
        poked[plan.visible_idx] += 1e3
        val = loss_pretrain(Tensor(poked), tgt, plan).item()
    assert val == base


def test_loss_pretrain_rejects_empty_mask():
    pred, tgt, _ = _random_pred_targets(10)
    with pytest.raises(LossError):
        loss_pretrain(pred, tgt, full_plan(16))


def test_loss_pretrain_rejects_bad_flavor_and_reduction():
    pred, tgt, plan = _random_pred_targets(11)
    with pytest.raises(ValueError):
        loss_pretrain(pred, tgt, plan, flavor="huber")
    with pytest.raises(ValueError):
        loss_pretrain(pred, tgt, plan, reduction="max")


# ---------------------------------------------------------------------------
# detection loss


def test_detection_zero_logits_give_n_ln2():
    with ng.precision("float64"):
        logits = Tensor(np.zeros(12))
        labels = AULabels(occurrence=np.array([1, 0] * 6))
        val = loss_detection(logits, labels).item()
    assert val == pytest.approx(12 * math.log(2.0), abs=1e-9)
    assert abs(val - 8.3178) < 1e-3


def test_detection_saturated_logits_stay_finite():
    with ng.precision("float64"):
        labels1 = AULabels(occurrence=np.array([1.0]))
        labels0 = AULabels(occurrence=np.array([0.0]))
        near_zero = loss_detection(Tensor(np.array([40.0])), labels1).item()
        big = loss_detection(Tensor(np.array([40.0])), labels0).item()
        far = loss_detection(Tensor(np.array([-700.0])), labels1).item()
    assert near_zero == pytest.approx(0.0, abs=1e-12)
    assert big == pytest.approx(40.0, rel=1e-9)
    assert math.isfinite(far) and far == pytest.approx(700.0, rel=1e-9)


def test_detection_matches_direct_formula_oracle():
    rng = np.random.default_rng(13)
    with ng.precision("float64"):
        logits = rng.standard_normal(8) * 2
        labels = AULabels(occurrence=(rng.random(8) < 0.5).astype(float))
        got = loss_detection(Tensor(logits), labels).item()
    want = 0.0
    for x, p in zip(logits, labels.occurrence):
        s = 1.0 / (1.0 + math.exp(-x))
        want += -(p * math.log(s) + (1 - p) * math.log(1 - s))
    assert got == pytest.approx(want, abs=1e-9)


def test_detection_loss_nonnegative():
    rng = np.random.default_rng(14)
    with ng.precision("float64"):
        for _ in range(50):
            logits = Tensor(rng.standard_normal(6) * 10)
            labels = AULabels(occurrence=(rng.random(6) < 0.5).astype(float))
            assert loss_detection(logits, labels).item() >= 0.0


def test_detection_gradient_at_zero_logit():
    # d/dx BCE(sigmoid(x), p) = sigmoid(x) - p -> -0.5 at x=0, p=1
    with ng.precision("float64"):
        logits = Tensor(np.array([0.0]), requires_grad=True)
        labels = AULabels(occurrence=np.array([1.0]))
        with Tape() as tape:
            loss = loss_detection(logits, labels)
        backward(loss, tape)
        assert logits.grad[0] == pytest.approx(-0.5, abs=1e-12)
        # cross-check by central difference
        h = 1e-6
        up = loss_detection(Tensor(np.array([h])), labels).item()
        dn = loss_detection(Tensor(np.array([-h])), labels).item()
        assert (up - dn) / (2 * h) == pytest.approx(-0.5, abs=1e-6)


def test_detection_accepts_soft_targets():
    with ng.precision("float64"):
        logits = Tensor(np.array([0.0]))
        labels = AULabels(occurrence=np.array([0.3]))
        val = loss_detection(logits, labels).item()
    assert val == pytest.approx(math.log(2.0), abs=1e-9)  # symmetric at logit 0


def test_labels_reject_out_of_range():
    with pytest.raises(LossError):
        AULabels(occurrence=np.array([0.0, 2.0]))
    with pytest.raises(LossError):
        AULabels(intensity=np.array([0, 6]))
    with pytest.raises(LossError):
        AULabels(intensity=np.array([1.5, 2]))
    with pytest.raises(LossError):
        AULabels()


def test_detection_requires_occurrence():
    with pytest.raises(LossError):
        loss_detection(Tensor(np.zeros(2)), AULabels(intensity=np.array([1, 2])))


# ---------------------------------------------------------------------------
# intensity loss


def test_intensity_perfect_prediction_zero():
    with ng.precision("float64"):
        labels = AULabels(intensity=np.array([0, 2, 5]))
        pred = Tensor(labels.intensity / 5.0)
        assert loss_intensity(pred, labels).item() == pytest.approx(0.0, abs=1e-15)


def test_intensity_single_au_arithmetic():
    with ng.precision("float64"):
        labels = AULabels(intensity=np.array([2]))
        val = loss_intensity(Tensor(np.array([0.5])), labels).item()
    assert val == pytest.approx(0.01, abs=1e-12)


def test_intensity_matches_loop_oracle():
    rng = np.random.default_rng(17)
    with ng.precision("float64"):
        levels = rng.integers(0, 6, size=5)
        pred = rng.random(5)
        labels = AULabels(intensity=levels)
        got = loss_intensity(Tensor(pred), labels).item()
    want = 0.0
    for p, l in zip(pred, levels):
        want += (float(l) / 5.0 - p) ** 2
    assert got == pytest.approx(want, abs=1e-12)


def test_intensity_requires_intensity_labels():
    with pytest.raises(LossError):
        loss_intensity(Tensor(np.zeros(2)), AULabels(occurrence=np.array([0.0, 1.0])))


def test_intensity_round_trip_exact_for_all_levels():
    for l in range(6):
        assert denormalize_intensity(np.array([l / 5.0]))[0] == float(l)


def test_denormalize_intensity_endpoints_and_clamp():
    got = denormalize_intensity(np.array([0.0, 1.0, 0.4, 1.2, -0.1]))
    assert got.tolist() == [0.0, 5.0, 2.0, 5.0, 0.0]


# ---------------------------------------------------------------------------
# gradients through the full desk-scale model


def _desk_model(task, seed):
    cfg = mdl.preset("desk", task=task)
    return cfg, mdl.init_weights(cfg, np.random.default_rng(seed))


def test_pretrain_loss_grad_check_through_model():
    with ng.precision("float64"):
        cfg, w = _desk_model("pretrain", 0)
        rng = np.random.default_rng(1)
        patches = rng.standard_normal((cfg.num_patches, cfg.patch_dim))
        tgt = patch_normalize(patches)
        plan = sample_mask(cfg.num_patches, 0.75, rng)
        tensors = list(w.params.values())

        def f(*ts):
            pred = mdl.decoder_forward(w, mdl.encoder_forward(w, patches, plan), plan)
            return loss_pretrain(pred, tgt, plan, "L1")

        report = ng.grad_check(f, tensors, sample=1, tol=1e-4, rng=rng)
    assert report.passed, f"max rel error {report.max_rel_error}"


@pytest.mark.parametrize("task", ["detect", "intensity"])
def test_task_loss_grad_check_through_model(task):
    with ng.precision("float64"):
        cfg, w = _desk_model(task, 3)
        rng = np.random.default_rng(4)
        patches = rng.standard_normal((cfg.num_patches, cfg.patch_dim))
        if task == "detect":
            labels = AULabels(occurrence=(rng.random(cfg.num_aus) < 0.5).astype(float))
        else:
            labels = AULabels(intensity=rng.integers(0, 6, size=cfg.num_aus))
        tensors = list(w.params.values())

        def f(*ts):
            logits = mdl.classifier_forward(w, patches)
            if task == "detect":
                return loss_detection(logits, labels)
            return loss_intensity(ng.sigmoid(logits), labels)

        report = ng.grad_check(f, tensors, sample=1, tol=1e-4, rng=rng)
    assert report.passed, f"max rel error {report.max_rel_error}"
