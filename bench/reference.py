"""Independent float64 reference for what the benchmark checks.

Nothing here imports faceau. The model forward passes, losses, metrics and
learning-rate schedule are written from the method's definitions (ViT-MAE
encoder/decoder, pre-norm blocks, mean-pooled classifier, warmup + cosine
with the linear scaling rule) and batched over samples with numpy, so they
share no code path with the program's per-sample autodiff engine.
"""

from __future__ import annotations

import binascii
import json
import math
import struct

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6
PATCH_NORM_EPS = 1e-6

# sparse-frames protocol: training-set fraction -> fine-tune epochs
PROTOCOL_EPOCHS = {0.1: 200, 0.01: 2000, 0.005: 4000, 0.002: 10000, 0.001: 20000}


class FormatError(ValueError):
    """A program output does not follow its documented layout."""


# ---------------------------------------------------------------------------
# MAEF weights file:
#   "MAEF" | u32 version | u32 cfg_len | cfg JSON | u32 n
#   | n x (u16 name_len, name, u8 ndim, u32 dims.., u64 offset)
#   | u64 data_len | float32 LE data | u32 crc32 of everything before it


def read_maef(path):
    """(config dict, {name: float32 array}) from a weights file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"MAEF":
        raise FormatError(f"{path}: not a MAEF file")
    body = raw[:-4]
    if binascii.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", raw[-4:])[0]:
        raise FormatError(f"{path}: crc mismatch")
    pos = 8
    (cfg_len,) = struct.unpack_from("<I", body, pos)
    pos += 4
    config = json.loads(body[pos:pos + cfg_len].decode())
    pos += cfg_len
    (count,) = struct.unpack_from("<I", body, pos)
    pos += 4
    table = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", body, pos)
        pos += 2
        name = body[pos:pos + name_len].decode()
        pos += name_len
        ndim = body[pos]
        pos += 1
        shape = struct.unpack_from("<" + "I" * ndim, body, pos)
        pos += 4 * ndim
        (offset,) = struct.unpack_from("<Q", body, pos)
        pos += 8
        table.append((name, shape, offset))
    (data_len,) = struct.unpack_from("<Q", body, pos)
    pos += 8
    data = body[pos:pos + data_len]
    arrays = {}
    for name, shape, offset in table:
        n = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(data, "<f4", n, offset).reshape(shape)
    return config, arrays


def as_float64(arrays):
    return {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}


# ---------------------------------------------------------------------------
# inputs


def image_to_float(image_u8):
    """uint8 [C,H,W] -> [0,1] floats, rounded through float32 as the
    training pipeline stores them, then widened to float64."""
    return (np.asarray(image_u8, np.float32) / np.float32(255.0)).astype(np.float64)


def patch_rows(image, p):
    """[C,H,W] -> [N, p*p*C]: raster grid order, pixels row-major inside a
    patch, channels fastest."""
    c, h, w = image.shape
    g = h // p
    rows = np.empty((g * g, p * p * c))
    for gy in range(g):
        for gx in range(g):
            tile = image[:, gy * p:(gy + 1) * p, gx * p:(gx + 1) * p]
            rows[gy * g + gx] = tile.transpose(1, 2, 0).reshape(-1)
    return rows


def sincos_table(n_tokens, dim):
    """2-D sine-cosine positions: first half of the width encodes the grid
    row, second half the column; each half is [sin | cos] over the
    base-10000 frequency ladder."""
    g = math.isqrt(n_tokens)
    quarter = dim // 4
    omega = 10000.0 ** (-np.arange(quarter) / quarter)
    out = np.empty((n_tokens, dim))
    for t in range(n_tokens):
        row, col = divmod(t, g)
        out[t] = np.concatenate([np.sin(row * omega), np.cos(row * omega),
                                 np.sin(col * omega), np.cos(col * omega)])
    return out


# ---------------------------------------------------------------------------
# transformer, batched over samples: activations are [B, T, D]


def layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _dense(x, w, name):
    return x @ w[name + ".w"] + w[name + ".b"]


def _attention(x, w, prefix, heads):
    b, t, d = x.shape
    dh = d // heads

    def split(name):
        return _dense(x, w, f"{prefix}.{name}").reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split("q"), split("k"), split("v")
    att = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh))
    ctx = (att @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return _dense(ctx, w, f"{prefix}.out")


def transformer(x, w, prefix, depth, heads):
    for i in range(depth):
        blk = f"{prefix}.blocks.{i}"
        x = x + _attention(layer_norm(x, w[blk + ".ln1.g"], w[blk + ".ln1.b"]),
                           w, blk + ".attn", heads)
        h = layer_norm(x, w[blk + ".ln2.g"], w[blk + ".ln2.b"])
        x = x + _dense(gelu(_dense(h, w, blk + ".mlp.fc1")), w, blk + ".mlp.fc2")
    return x


def encode(w, cfg, patches, visible=None):
    """patches [B,N,P]; visible [B,V] token ids or None for all tokens."""
    x = _dense(patches, w, "patch_embed") + sincos_table(patches.shape[1], cfg["enc_width"])
    if visible is not None:
        x = np.take_along_axis(x, visible[:, :, None], axis=1)
    x = transformer(x, w, "enc", cfg["enc_depth"], cfg["enc_heads"])
    return layer_norm(x, w["enc.norm.g"], w["enc.norm.b"])


def decode(w, cfg, latent, perms, num_visible):
    """latent [B,V,E] from `encode`; perms [B,N] with the visible ids first.
    Masked slots take the shared mask token; returns [B,N,P] predictions."""
    b, n = perms.shape
    x_vis = _dense(latent, w, "dec.embed")
    full = np.empty((b, n, cfg["dec_width"]))
    full[:] = w["dec.mask_token"]
    rows = np.arange(b)[:, None]
    full[rows, perms[:, :num_visible]] = x_vis
    x = full + sincos_table(n, cfg["dec_width"])
    x = transformer(x, w, "dec", cfg["dec_depth"], cfg["dec_heads"])
    x = layer_norm(x, w["dec.norm.g"], w["dec.norm.b"])
    return _dense(x, w, "dec.head")


def classify(w, cfg, patches):
    """All-token encoder, mean over tokens, norm, linear head: [B, num_aus]."""
    pooled = encode(w, cfg, patches).mean(axis=1)
    pooled = layer_norm(pooled, w["head.norm.g"], w["head.norm.b"])
    return pooled @ w["head.fc.w"] + w["head.fc.b"]


# ---------------------------------------------------------------------------
# losses (per sample, then averaged over the batch)


def normalized_targets(patches):
    mu = patches.mean(axis=-1, keepdims=True)
    var = ((patches - mu) ** 2).mean(axis=-1, keepdims=True)
    return (patches - mu) / np.sqrt(var + PATCH_NORM_EPS)


def masked_l1_residuals(pred, patches, perms, num_visible):
    """pred - normalized target on the masked patches: [B, M, P]."""
    masked = perms[:, num_visible:]
    rows = np.arange(pred.shape[0])[:, None]
    return pred[rows, masked] - normalized_targets(patches)[rows, masked]


def bce_loss(logits, occurrence):
    # -[y log s + (1-y) log(1-s)] = softplus(x) - x*y, summed over AUs
    per_au = np.logaddexp(0.0, logits) - logits * occurrence
    return float(per_au.sum(axis=1).mean())


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def intensity_loss(logits, levels):
    return float(((sigmoid(logits) - levels / 5.0) ** 2).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# metrics


def f1_per_au(pred, gt):
    """Sample-pooled F1 per AU column; an AU with no positive anywhere
    (no TP, FP or FN) scores 0."""
    out = []
    for j in range(gt.shape[1]):
        tp = np.sum((pred[:, j] == 1) & (gt[:, j] == 1))
        wrong = np.sum(pred[:, j] != gt[:, j])
        out.append(0.0 if tp + wrong == 0 else 2.0 * tp / (2.0 * tp + wrong))
    return out


def icc_3_1(a, b):
    """Two-way mixed, consistency, single-rater ICC for two raters, from the
    rows x raters ANOVA; None where the ratings carry no variance."""
    y = np.stack([a, b], axis=1).astype(np.float64)
    n, k = y.shape
    resid = y - y.mean(axis=1, keepdims=True) - y.mean(axis=0, keepdims=True) + y.mean()
    ms_rows = k * np.sum((y.mean(axis=1) - y.mean()) ** 2) / (n - 1)
    ms_err = np.sum(resid ** 2) / ((n - 1) * (k - 1))
    total = np.sum((y - y.mean()) ** 2)
    denom = ms_rows + (k - 1) * ms_err
    if total < 1e-12 or abs(denom) < 1e-12:
        return None
    return float((ms_rows - ms_err) / denom)


def intensity_metrics(pred, gt):
    diff = pred - gt
    return {"icc": [icc_3_1(pred[:, j], gt[:, j]) for j in range(gt.shape[1])],
            "mse": list((diff ** 2).mean(axis=0)),
            "mae": list(np.abs(diff).mean(axis=0))}


# ---------------------------------------------------------------------------
# schedule


def scheduled_lr(step, base_lr, batch_size, warmup_epochs, epochs,
                 steps_per_epoch, min_lr=0.0):
    """Linear warmup to base_lr * batch / 256, then half-cosine to min_lr."""
    peak = base_lr * batch_size / 256.0
    warm = warmup_epochs * steps_per_epoch
    total = epochs * steps_per_epoch
    if warm > 0 and step <= warm:
        return peak * step / warm
    if step >= total:
        return min_lr
    frac = (step - warm) / (total - warm)
    return min_lr + (peak - min_lr) * 0.5 * (1.0 + math.cos(math.pi * frac))
