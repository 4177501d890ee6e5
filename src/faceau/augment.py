"""Training-time augmentation: stochastic depth, sample mixing, cut-and-paste
mixing, a light 6-op random-augmentation policy, and the pre-training random
crop. Everything draws from an explicit generator and is identity in
evaluation mode.

Images here are float32 [C, H, W] in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from . import ndgrad as ng
from .data import bilinear_sample, resize_bilinear, rotate_about


def drop_path(x, rate, rng, training):
    """Per-sample stochastic depth on a residual branch.

    Keeps the branch with probability 1-rate, scaled by 1/(1-rate) so the
    expectation is unchanged; identity when not training or rate is 0.
    """
    if rate >= 1.0:
        raise ValueError(f"drop rate {rate} must be < 1")
    if rate < 0.0:
        raise ValueError(f"drop rate {rate} must be >= 0")
    if not training or rate == 0.0:
        return x
    keep = rng.random() >= rate
    return ng.scale(x, 1.0 / (1.0 - rate) if keep else 0.0)


def mixup(images, labels, alpha, rng):
    """Blend each sample with a permuted partner; the [B, A] label rows
    blend identically.

    Returns (images, labels, lam). Identity for a batch of one or alpha 0.
    """
    images = np.asarray(images)
    b = images.shape[0]
    if b <= 1 or alpha <= 0:
        return images, labels, 1.0
    lam = float(rng.beta(alpha, alpha))
    partner = rng.permutation(b)
    mixed = lam * images + (1.0 - lam) * images[partner]
    return (mixed.astype(images.dtype),
            lam * labels + (1.0 - lam) * labels[partner], lam)


def cutmix(images, labels, alpha, rng):
    """Paste one rectangle from a permuted partner; the [B, A] label rows mix
    by the exact realized pixel fraction. Returns (images, labels,
    pasted_fraction)."""
    images = np.asarray(images)
    b = images.shape[0]
    if b <= 1 or alpha <= 0:
        return images, labels, 0.0
    h, w = images.shape[2], images.shape[3]
    lam = float(rng.beta(alpha, alpha))
    cut = math.sqrt(max(0.0, 1.0 - lam))
    cut_h = int(round(h * cut))
    cut_w = int(round(w * cut))
    cy = int(rng.integers(0, h))
    cx = int(rng.integers(0, w))
    y0, y1 = max(cy - cut_h // 2, 0), min(cy + (cut_h + 1) // 2, h)
    x0, x1 = max(cx - cut_w // 2, 0), min(cx + (cut_w + 1) // 2, w)
    frac = max(0, y1 - y0) * max(0, x1 - x0) / (h * w)
    if frac == 0.0:
        return images, labels, 0.0
    partner = rng.permutation(b)
    mixed = images.copy()
    mixed[:, :, y0:y1, x0:x1] = images[partner][:, :, y0:y1, x0:x1]
    return mixed, (1.0 - frac) * labels + frac * labels[partner], frac


def _translate(image, dx, dy):
    if dx == 0.0 and dy == 0.0:
        return image.copy()
    c, h, w = image.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    return bilinear_sample(image.astype(np.float64), xs - dx, ys - dy)


def _crop_resize(image, side, top, left):
    c, h, w = image.shape
    crop = image[:, top:top + side, left:left + side]
    if side == h:
        return crop.copy()
    return resize_bilinear(crop.astype(np.float64), h)


RANDAUG_OPS = ("hflip", "translate", "rotate", "brightness", "contrast", "crop_resize")


def _apply_op(image, op, m01, rng):
    c, h, w = image.shape
    if op == "hflip":
        # gated by magnitude so a zero-magnitude policy stays an identity
        return image[:, :, ::-1].copy() if m01 > 0 else image.copy()
    if op == "translate":
        limit = 0.30 * m01 * h
        dx, dy = rng.uniform(-limit, limit, size=2)
        return _translate(image, dx, dy)
    if op == "rotate":
        limit = math.radians(15.0) * m01
        angle = float(rng.uniform(-limit, limit))
        if angle == 0.0:
            return image.copy()
        return rotate_about(image.astype(np.float64), ((w - 1) / 2, (h - 1) / 2), angle)
    if op == "brightness":
        delta = float(rng.uniform(-0.3, 0.3)) * m01
        return np.clip(image + delta, 0.0, 1.0)
    if op == "contrast":
        factor = 1.0 + float(rng.uniform(-0.5, 0.5)) * m01
        mean = image.mean()
        return np.clip((image - mean) * factor + mean, 0.0, 1.0)
    if op == "crop_resize":
        scale = 1.0 - float(rng.uniform(0.0, 0.4)) * m01
        side = max(1, int(round(scale * h)))
        top = int(rng.integers(0, h - side + 1))
        left = int(rng.integers(0, w - side + 1))
        return _crop_resize(image, side, top, left)
    raise ValueError(f"unknown op {op!r}")


def randaug_light(image, magnitude, prob, rng):
    """With probability `prob`, apply two random ops from a 6-op catalog,
    magnitudes scaled by magnitude/10. Deterministic per generator state."""
    if not (0 <= magnitude <= 10):
        raise ValueError(f"magnitude {magnitude} outside 0..10")
    image = np.asarray(image, dtype=np.float32)
    if rng.random() >= prob:
        return image.copy()
    m01 = magnitude / 10.0
    out = image
    for op in rng.choice(len(RANDAUG_OPS), size=2, replace=True):
        out = _apply_op(out, RANDAUG_OPS[int(op)], m01, rng)
    return np.asarray(out, dtype=np.float32)


def random_crop_resize(image, rng, min_scale=0.6, max_scale=1.0):
    """Pre-training crop: random square window, resized back to full size."""
    image = np.asarray(image, dtype=np.float32)
    c, h, w = image.shape
    scale = float(rng.uniform(min_scale, max_scale))
    side = max(1, int(round(scale * h)))
    top = int(rng.integers(0, h - side + 1))
    left = int(rng.integers(0, w - side + 1))
    return np.asarray(_crop_resize(image, side, top, left), dtype=np.float32)
