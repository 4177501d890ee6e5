"""Training objectives: masked-patch reconstruction, occurrence BCE,
intensity regression, plus patch-wise target normalization.

Reduction convention: reconstruction averages over masked elements and the
per-sample task losses sum over action units; batch averaging happens in the
training loop. `reduction="sum"` on the reconstruction loss reproduces the
plain summed form instead. Each loss is one value per sample: shape [1] for
one sample, [K] for a batch of K (a leading axis on its inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad as ng
from .ndgrad import Tensor


class LossError(ValueError):
    """Loss inputs are structurally unusable (empty mask, missing labels)."""


@dataclass
class PretrainTargets:
    """Ground-truth patch rows for reconstruction, optionally standardized."""

    patches: np.ndarray  # [N, p*p*C], or [K, N, p*p*C] for a batch
    normalized: bool = False
    mean: np.ndarray | None = None  # [N, 1] caches for de-normalization
    var: np.ndarray | None = None


def raw_targets(patches):
    return PretrainTargets(patches=np.asarray(patches, dtype=np.float64))


# guards a flat patch's zero variance; patch_normalize and its inverse share it
_PATCH_EPS = 1e-6


def patch_normalize(patches):
    """Standardize each patch row to mean 0 / variance 1 (eps-guarded)."""
    patches = np.asarray(patches, dtype=np.float64)
    mean = patches.mean(axis=-1, keepdims=True)
    var = patches.var(axis=-1, keepdims=True)
    normed = (patches - mean) / np.sqrt(var + _PATCH_EPS)
    return PretrainTargets(patches=normed, normalized=True, mean=mean, var=var)


def denormalize_patches(pred, targets):
    """Map predicted patch rows back to raw pixel scale for rendering."""
    pred = np.asarray(pred, dtype=np.float64)
    if not targets.normalized:
        return pred
    return pred * np.sqrt(targets.var + _PATCH_EPS) + targets.mean


@dataclass
class AULabels:
    """Per-sample action-unit labels.

    occurrence holds reals in [0, 1]: hard bits from a manifest, or soft
    targets after mixing. intensity holds integer levels 0..5.
    """

    occurrence: np.ndarray | None = None
    intensity: np.ndarray | None = None

    def __post_init__(self):
        if self.occurrence is None and self.intensity is None:
            raise LossError("labels need occurrence or intensity values")
        if self.occurrence is not None:
            self.occurrence = np.asarray(self.occurrence, dtype=np.float64)
            if ((self.occurrence < 0) | (self.occurrence > 1)).any():
                raise LossError(f"occurrence values outside [0, 1]: {self.occurrence}")
        if self.intensity is not None:
            lv = self.intensity = np.asarray(self.intensity, dtype=np.float64)
            if ((lv < 0) | (lv > 5) | (lv != np.round(lv))).any():
                raise LossError(f"intensity levels must be integers in 0..5: {self.intensity}")


def loss_pretrain(pred, targets, plan, flavor="L1", reduction="mean"):
    """Reconstruction loss over MASKED patches only.

    Mean over masked elements by default; "sum" gives the plain summed form.
    Visible patches never contribute.
    """
    if flavor not in ("L1", "L2"):
        raise ValueError(f"flavor must be L1 or L2, got {flavor!r}")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be mean or sum, got {reduction!r}")
    masked = plan.masked_idx
    if masked.size == 0:
        raise LossError("mask plan has no masked patches; reconstruction loss is degenerate")
    if pred.shape != targets.patches.shape:
        raise ng.ShapeError(f"pred {pred.shape} vs targets {targets.patches.shape}")
    pred_m = ng.index_select(pred, masked)
    tgt_m = Tensor(np.take_along_axis(targets.patches, masked[..., None], axis=-2))
    diff = ng.sub(pred_m, tgt_m)
    per_elem = ng.abs(diff) if flavor == "L1" else ng.square(diff)
    reduce = ng.mean if reduction == "mean" else ng.sum
    return reduce(per_elem, axis=(-2, -1))


def loss_detection(logits, labels):
    """Sigmoid binary cross-entropy summed over action units."""
    if labels.occurrence is None:
        raise LossError("detection loss needs occurrence labels")
    if logits.shape != labels.occurrence.shape:
        raise ng.ShapeError(f"logits {logits.shape} vs labels {labels.occurrence.shape}")
    return ng.sum(ng.bce_with_logits(logits, labels.occurrence), axis=-1)


def loss_intensity(pred, labels):
    """Squared error against levels normalized to [0, 1], summed over AUs.

    `pred` must already be on the [0, 1] scale (sigmoid applied upstream).
    """
    if labels.intensity is None:
        raise LossError("intensity loss needs intensity labels")
    if pred.shape != labels.intensity.shape:
        raise ng.ShapeError(f"pred {pred.shape} vs labels {labels.intensity.shape}")
    target = labels.intensity / 5.0
    return ng.sum(ng.square(ng.sub(pred, Tensor(target))), axis=-1)


def denormalize_intensity(pred01):
    """[0,1]-scale predictions -> 0-5 scale, clamped."""
    arr = pred01.data if isinstance(pred01, Tensor) else np.asarray(pred01, dtype=np.float64)
    return np.clip(arr * 5.0, 0.0, 5.0)
