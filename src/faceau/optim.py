"""AdamW with decoupled decay and the warmup + cosine learning-rate schedule.

The schedule applies the linear scaling rule: peak = base_lr * batch / 256.
Weight decay touches only rank >= 2 parameters (projection matrices); biases,
norm scales, and the mask token are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericalError(RuntimeError):
    """Training produced a non-finite quantity; message carries the step."""


def peak_lr(base_lr, batch_size):
    return base_lr * batch_size / 256.0


def lr_at(config, step, steps_per_epoch):
    """Learning rate at a global step: linear warmup to the scaled peak,
    half-cosine decay to min_lr, clamped past the schedule end."""
    if steps_per_epoch < 1:
        raise ValueError("steps_per_epoch must be >= 1")
    peak = peak_lr(config.base_lr, config.batch_size)
    min_lr = config.min_lr
    warmup_steps = config.warmup_epochs * steps_per_epoch
    total_steps = config.epochs * steps_per_epoch
    if step < 0:
        raise ValueError("step must be >= 0")
    if warmup_steps > 0 and step <= warmup_steps:
        return peak * step / warmup_steps
    if step >= total_steps:
        return min_lr
    span = total_steps - warmup_steps
    t = (step - warmup_steps) / span
    return min_lr + (peak - min_lr) * 0.5 * (1.0 + math.cos(math.pi * t))


def decays(name, tensor):
    """Weight-decay eligibility: matrices yes; vectors (biases, norms,
    the mask token) no."""
    return tensor.data.ndim >= 2


@dataclass
class OptimState:
    m: dict = field(default_factory=dict)  # name -> first-moment buffer
    v: dict = field(default_factory=dict)  # name -> second-moment buffer
    step: int = 0


def init_optim(weights):
    state = OptimState()
    for name, t in weights.param_items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


_EPS = 1e-8  # Adam's denominator floor


def adamw_step(weights, state, lr, weight_decay, beta1=0.9, beta2=0.999):
    """One bias-corrected Adam step with decoupled weight decay, in place.

    A parameter without a gradient (a frozen one: it does not require one)
    is left untouched: no moments, no decay.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in weights.param_items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in {name!r} at optimizer step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        if weight_decay and decays(name, p):
            update = update + weight_decay * p.data
        p.data = p.data - lr * update
    return state
