"""Schedule endpoints and AdamW update rules."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from faceau.model import ModelWeights, init_weights, preset
from faceau.ndgrad import Tensor
from faceau.optim import NumericalError, adamw_step, decays, init_optim, lr_at, peak_lr


def sched(base_lr=1.5e-4, batch_size=4096, epochs=800, warmup_epochs=40, min_lr=0.0):
    return SimpleNamespace(base_lr=base_lr, batch_size=batch_size, epochs=epochs,
                           warmup_epochs=warmup_epochs, min_lr=min_lr)


def test_linear_scaling_rule_peak():
    cfg = sched()
    assert peak_lr(cfg.base_lr, cfg.batch_size) == pytest.approx(2.4e-3, rel=1e-12)
    spe = 10
    warm_end = cfg.warmup_epochs * spe
    assert lr_at(cfg, warm_end, spe) == pytest.approx(2.4e-3, rel=1e-12)


def test_warmup_ramp_endpoints():
    cfg = sched(base_lr=2.56e-1, batch_size=256, epochs=10, warmup_epochs=2)
    spe = 5
    assert lr_at(cfg, 0, spe) == 0.0
    assert lr_at(cfg, 5, spe) == pytest.approx(0.128, rel=1e-12)
    assert lr_at(cfg, 10, spe) == pytest.approx(0.256, rel=1e-12)


def test_warmup_decay_boundary_continuous():
    cfg = sched(epochs=100, warmup_epochs=10, min_lr=1e-5)
    spe = 7
    warm = cfg.warmup_epochs * spe
    peak = peak_lr(cfg.base_lr, cfg.batch_size)
    left = lr_at(cfg, warm, spe)
    right = lr_at(cfg, warm + 1, spe)
    assert left == pytest.approx(peak, abs=1e-12)
    # first decay step within one cosine increment of the peak
    assert right < left
    assert left - right < peak * math.pi / (2 * (cfg.epochs - cfg.warmup_epochs) * spe) * 2


def test_cosine_midpoint_and_tail():
    cfg = sched(epochs=100, warmup_epochs=20, min_lr=2e-4)
    spe = 10
    warm = cfg.warmup_epochs * spe
    total = cfg.epochs * spe
    mid = warm + (total - warm) // 2
    peak = peak_lr(cfg.base_lr, cfg.batch_size)
    assert lr_at(cfg, mid, spe) == pytest.approx((peak + cfg.min_lr) / 2, abs=1e-12)
    assert lr_at(cfg, total, spe) == cfg.min_lr
    assert lr_at(cfg, total + 999, spe) == cfg.min_lr


def test_lr_monotone_after_warmup():
    cfg = sched(epochs=20, warmup_epochs=5)
    spe = 4
    values = [lr_at(cfg, s, spe) for s in range(cfg.epochs * spe + 1)]
    warm = cfg.warmup_epochs * spe
    assert all(a <= b for a, b in zip(values[:warm], values[1:warm + 1]))
    assert all(a >= b for a, b in zip(values[warm:-1], values[warm + 1:]))


def _scalar_weights(value, ndim):
    data = np.full((1,) * ndim, value)
    params = {"p.w" if ndim >= 2 else "p.b": Tensor(data, requires_grad=True)}
    return ModelWeights(config=None, params=params, enc_pos=None, dec_pos=None)


def test_adamw_zero_grads_fixed_point():
    w = _scalar_weights(0.7, 2)
    state = init_optim(w)
    name = next(iter(w.params))
    before = w.params[name].data.copy()
    w.params[name].grad = np.zeros_like(w.params[name].data)
    adamw_step(w, state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(w.params[name].data, before)


def test_adamw_first_step_closed_form():
    w = _scalar_weights(1.0, 2)
    name = next(iter(w.params))
    state = init_optim(w)
    w.params[name].grad = np.ones_like(w.params[name].data)
    adamw_step(w, state, lr=0.1, weight_decay=0.0, beta1=0.9, beta2=0.999)
    # bias correction makes the first update exactly g/(|g| + eps)
    assert w.params[name].data.item() == pytest.approx(0.9, abs=1e-6)
    assert state.step == 1


def test_adamw_pure_decay_on_matrices_only():
    w = ModelWeights(config=None, params={
        "fc.w": Tensor(np.full((2, 2), 1.0), requires_grad=True),
        "fc.b": Tensor(np.full(2, 1.0), requires_grad=True),
    }, enc_pos=None, dec_pos=None)
    state = init_optim(w)
    for t in w.params.values():
        t.grad = np.zeros_like(t.data)
    adamw_step(w, state, lr=0.1, weight_decay=0.05)
    assert np.allclose(w.params["fc.w"].data, 1.0 - 0.005)
    assert np.allclose(w.params["fc.b"].data, 1.0)


def test_decay_exclusions_on_real_model():
    w = init_weights(preset("desk"), np.random.default_rng(0))
    assert decays("patch_embed.w", w.params["patch_embed.w"])
    assert not decays("patch_embed.b", w.params["patch_embed.b"])
    assert not decays("enc.norm.g", w.params["enc.norm.g"])
    assert not decays("dec.mask_token", w.params["dec.mask_token"])


def test_adamw_leaves_parameter_without_gradient_untouched():
    w = ModelWeights(config=None, params={
        "enc.fc.w": Tensor(np.full((2, 2), 1.0), requires_grad=False),
        "head.fc.w": Tensor(np.full((2, 2), 1.0), requires_grad=True),
    }, enc_pos=None, dec_pos=None)
    state = init_optim(w)
    w.params["head.fc.w"].grad = np.ones((2, 2))
    adamw_step(w, state, lr=0.1, weight_decay=0.05)
    assert np.array_equal(w.params["enc.fc.w"].data, np.full((2, 2), 1.0))
    assert not np.array_equal(w.params["head.fc.w"].data, np.full((2, 2), 1.0))
    assert np.all(state.m["enc.fc.w"] == 0.0)


def test_adamw_nonfinite_gradient_names_step():
    w = _scalar_weights(1.0, 2)
    name = next(iter(w.params))
    state = init_optim(w)
    state.step = 41
    w.params[name].grad = np.full_like(w.params[name].data, np.nan)
    with pytest.raises(NumericalError) as ei:
        adamw_step(w, state, lr=0.1, weight_decay=0.0)
    assert "42" in str(ei.value)


def test_adamw_descends_convex_quadratic_monotonically():
    w = _scalar_weights(0.0, 2)
    name = next(iter(w.params))
    w.params[name].data = np.array([[3.0]])
    state = init_optim(w)
    losses = []
    for _ in range(200):
        x = w.params[name].data
        losses.append(0.5 * float((x ** 2).sum()))
        w.params[name].grad = x.copy()
        adamw_step(w, state, lr=0.01, weight_decay=0.0)
    warm = 3
    assert all(a >= b for a, b in zip(losses[warm:-1], losses[warm + 1:])), losses[:10]
    assert losses[-1] < losses[warm] / 2
