"""Masked-autoencoder model: patch pipeline, masking, encoder/decoder/head.

Patch matrices are [N, p*p*C] for one image or [K, N, p*p*C] for a batch
of K; the encoder sees the visible subset, the decoder fills masked slots
with one shared learned token and predicts pixels for every patch. The
classifier path runs the encoder on all tokens, mean-pools, and applies a
norm + linear head. A batch gives each sample the bits it would get alone
(see faceau.ndgrad), so the training loop runs K samples per tape, K
following from the model's shape (faceau.train.chunk_size).

Weights live in a flat name->Tensor dict so the optimizer and the checkpoint
format can treat them uniformly. Positional tables are fixed sin-cos and are
recomputed from the config rather than serialized.

This module also holds the one checkpoint container both file formats use:
"MAEF" model weights (save_weights / load_weights / load_encoder_only) and
"MAET" run state (faceau.train.save_run_state / load_run_state). One atomic
writer, one checksum-verifying reader, and one check of the stored arrays
against the parameter layout serve both.
"""

from __future__ import annotations

import binascii
import contextlib
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import ndgrad as ng
from .ndgrad import ShapeError, Tensor

TASKS = ("pretrain", "detect", "intensity")

# encoder parameter namespaces, shared between pre-training and fine-tuning
ENCODER_PREFIXES = ("patch_embed.", "enc.")


class ConfigError(ValueError):
    """Model configuration violates a structural constraint."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed, truncated, or incompatible."""


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    channels: int = 1
    patch_size: int = 4
    enc_depth: int = 4
    enc_width: int = 128
    enc_heads: int = 4
    dec_depth: int = 2
    dec_width: int = 64
    dec_heads: int = 4
    mlp_ratio: float = 4.0
    num_aus: int = 4
    mask_ratio: float = 0.75
    norm_pix_target: bool = True
    task: str = "pretrain"

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be > 0, got {self.mlp_ratio}")
        least = {"image_size": 1, "patch_size": 1, "enc_depth": 0, "enc_width": 1,
                 "enc_heads": 1, "dec_depth": 0, "dec_width": 1, "dec_heads": 1}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("enc_width", "dec_width"):
            width = getattr(self, name)
            if width % 4 != 0:  # the sine-cosine position table splits it in four
                raise ConfigError(f"{name} {width} not divisible by 4")
            if int(width * self.mlp_ratio) < 1:  # the MLP's hidden width
                raise ConfigError(f"{name} {width} x mlp_ratio {self.mlp_ratio} "
                                  "gives an MLP hidden width below 1")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.enc_width % self.enc_heads != 0:
            raise ConfigError(f"enc_width {self.enc_width} not divisible by enc_heads {self.enc_heads}")
        if self.dec_width % self.dec_heads != 0:
            raise ConfigError(f"dec_width {self.dec_width} not divisible by dec_heads {self.dec_heads}")
        if not (0.0 <= self.mask_ratio < 1.0):
            raise ConfigError(f"mask_ratio {self.mask_ratio} outside [0, 1)")
        if self.num_aus < 1:
            raise ConfigError("num_aus must be >= 1")
        if self.channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3, got {self.channels}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")

    @property
    def grid_size(self):
        return self.image_size // self.patch_size

    @property
    def num_patches(self):
        return self.grid_size ** 2

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * self.channels


_PRESETS = {
    # GPU-scale geometry; too heavy to train on a desk CPU
    "full": dict(
        image_size=224, channels=3, patch_size=16,
        enc_depth=12, enc_width=768, enc_heads=12,
        dec_depth=8, dec_width=512, dec_heads=16,
        mlp_ratio=4.0, num_aus=12, mask_ratio=0.75,
    ),
    # CPU-sized twin for tests and the synthetic corpus: the ModelConfig
    # defaults
    "desk": {},
}


def preset(name, **overrides):
    """Named ModelConfig preset ('full' or 'desk'), with field overrides."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(_PRESETS)}")
    return ModelConfig(**{**_PRESETS[name], **overrides})


# ---------------------------------------------------------------------------
# patch pipeline


def patchify(image, patch_size):
    """[C,H,W] image -> [N, p*p*C] patch rows, raster grid order.

    Within a patch, pixels are row-major with channels fastest.
    """
    image = np.asarray(image)
    if image.ndim != 3:
        raise ShapeError(f"patchify expects [C,H,W], got shape {image.shape}")
    c, h, w = image.shape
    if h != w:
        raise ShapeError(f"patchify expects a square image, got {h}x{w}")
    if h % patch_size != 0:
        raise ShapeError(f"image side {h} not divisible by patch size {patch_size}")
    g = h // patch_size
    x = image.reshape(c, g, patch_size, g, patch_size)
    x = x.transpose(1, 3, 2, 4, 0)  # gy, gx, py, px, c
    return np.ascontiguousarray(x.reshape(g * g, patch_size * patch_size * c))


def unpatchify(patches, patch_size, channels):
    """Inverse of patchify: [N, p*p*C] -> [C,H,W]."""
    patches = np.asarray(patches)
    n, d = patches.shape
    g = math.isqrt(n)
    if g * g != n:
        raise ShapeError(f"patch count {n} is not a perfect square")
    if d != patch_size * patch_size * channels:
        raise ShapeError(f"patch row width {d} does not match p={patch_size}, C={channels}")
    x = patches.reshape(g, g, patch_size, patch_size, channels)
    x = x.transpose(4, 0, 2, 1, 3)  # c, gy, py, gx, px
    return np.ascontiguousarray(x.reshape(channels, g * patch_size, g * patch_size))


def pos_embed_sincos(n_tokens, dim):
    """Fixed 2-D sine-cosine table [n_tokens, dim], float64.

    Half the width encodes the row coordinate, half the column, each with
    the standard base-10000 frequency ladder.
    """
    g = math.isqrt(n_tokens)
    if g * g != n_tokens:
        raise ShapeError(f"token count {n_tokens} is not a perfect square")
    if dim % 4 != 0:
        raise ShapeError(f"embedding width {dim} must be divisible by 4")

    def axis_table(positions, d):
        half = d // 2
        omega = 1.0 / (10000.0 ** (np.arange(half, dtype=np.float64) / half))
        args = np.outer(positions.astype(np.float64), omega)
        return np.concatenate([np.sin(args), np.cos(args)], axis=1)

    ys, xs = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    emb_y = axis_table(ys.reshape(-1), dim // 2)
    emb_x = axis_table(xs.reshape(-1), dim // 2)
    return np.concatenate([emb_y, emb_x], axis=1)


# ---------------------------------------------------------------------------
# masking


@dataclass(frozen=True)
class MaskPlan:
    # int64 bijection on [0, N), or [K, N]: one per sample of a batch
    permutation: np.ndarray
    num_visible: int

    def __post_init__(self):
        perm = np.asarray(self.permutation, dtype=np.int64)
        if perm.ndim not in (1, 2):
            raise ValueError(f"permutation must be [N] or [K, N], got shape {perm.shape}")
        n = perm.shape[-1]
        if not (0 <= self.num_visible <= n):
            raise ValueError(f"num_visible {self.num_visible} outside [0, {n}]")
        if not (np.sort(perm, axis=-1) == np.arange(n)).all():
            raise ValueError("permutation is not a bijection on [0, N)")
        object.__setattr__(self, "permutation", perm)

    @property
    def num_tokens(self):
        return int(self.permutation.shape[-1])

    @property
    def visible_idx(self):
        return self.permutation[..., :self.num_visible]

    @property
    def masked_idx(self):
        return self.permutation[..., self.num_visible:]


def stack_plans(plans):
    """One batch plan from per-sample plans that keep the same count visible."""
    if len({p.num_visible for p in plans}) != 1:
        raise ValueError("plans of one batch must keep the same number of tokens visible")
    return MaskPlan(np.stack([p.permutation for p in plans]), plans[0].num_visible)


def num_visible(n_tokens, mask_ratio):
    """Tokens a mask ratio leaves visible; ValueError when the ratio is
    outside [0, 1) or leaves none."""
    if not (0.0 <= mask_ratio < 1.0):
        raise ValueError(f"mask_ratio {mask_ratio} outside [0, 1)")
    # tiny slack so ratios like 0.9 with an exact-integer product don't
    # floor one token low from float rounding
    visible = int(math.floor(n_tokens * (1.0 - mask_ratio) + 1e-9))
    if visible == 0:
        raise ValueError(f"mask_ratio {mask_ratio} leaves none of {n_tokens} tokens visible")
    return visible


def sample_mask(n_tokens, mask_ratio, rng):
    """Uniform random mask plan via an explicit Fisher-Yates shuffle."""
    if n_tokens < 1:
        raise ValueError("need at least one token")
    visible = num_visible(n_tokens, mask_ratio)
    # one call draws what rng.integers(0, i + 1) draws for i = n-1 .. 1, in
    # that order, and leaves the generator in the same state
    draws = rng.integers(0, np.arange(n_tokens, 1, -1)).tolist()
    perm = list(range(n_tokens))
    for i, j in zip(range(n_tokens - 1, 0, -1), draws):
        perm[i], perm[j] = perm[j], perm[i]
    return MaskPlan(permutation=np.array(perm, dtype=np.int64), num_visible=visible)


def full_plan(n_tokens):
    """Identity plan with nothing masked (fine-tuning path)."""
    return MaskPlan(permutation=np.arange(n_tokens, dtype=np.int64), num_visible=n_tokens)


# ---------------------------------------------------------------------------
# weights


@dataclass
class ModelWeights:
    config: ModelConfig
    params: dict  # name -> Tensor, insertion-ordered
    enc_pos: np.ndarray
    dec_pos: np.ndarray | None

    def param_items(self):
        return list(self.params.items())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()


def _xavier(rng, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _trunc_normal(rng, size, std):
    out = rng.standard_normal(size) * std
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out


def param_layout(config):
    """(name, shape, init) of every parameter in creation order, `init` one
    of "xavier", "zeros", "ones" or "token" (the decoder's mask token). The
    one definition of the parameter set: init_weights draws it, and the
    checkpoint readers take names and shapes from it without drawing."""
    layout = []

    def linear(name, fan_in, fan_out):
        layout.extend([(f"{name}.w", (fan_in, fan_out), "xavier"),
                       (f"{name}.b", (fan_out,), "zeros")])

    def norm(name, width):
        layout.extend([(f"{name}.g", (width,), "ones"), (f"{name}.b", (width,), "zeros")])

    def blocks(prefix, depth, width):
        hidden = int(width * config.mlp_ratio)
        for i in range(depth):
            b = f"{prefix}.blocks.{i}"
            norm(f"{b}.ln1", width)
            for proj in ("q", "k", "v", "out"):
                linear(f"{b}.attn.{proj}", width, width)
            norm(f"{b}.ln2", width)
            linear(f"{b}.mlp.fc1", width, hidden)
            linear(f"{b}.mlp.fc2", hidden, width)

    linear("patch_embed", config.patch_dim, config.enc_width)
    blocks("enc", config.enc_depth, config.enc_width)
    norm("enc.norm", config.enc_width)
    if config.task == "pretrain":
        linear("dec.embed", config.enc_width, config.dec_width)
        layout.append(("dec.mask_token", (config.dec_width,), "token"))
        blocks("dec", config.dec_depth, config.dec_width)
        norm("dec.norm", config.dec_width)
        linear("dec.head", config.dec_width, config.patch_dim)
    else:
        norm("head.norm", config.enc_width)
        linear("head.fc", config.enc_width, config.num_aus)
    return layout


def param_shapes(config):
    return {name: shape for name, shape, _ in param_layout(config)}


def build_weights(config, arrays):
    """ModelWeights over `arrays`, (name, array) pairs in layout order, with
    the positional tables recomputed from the config."""
    params = {name: Tensor(arr, requires_grad=True) for name, arr in arrays}
    def table(width):
        return pos_embed_sincos(config.num_patches, width).astype(ng.default_dtype())

    dec_pos = table(config.dec_width) if config.task == "pretrain" else None
    return ModelWeights(config, params, enc_pos=table(config.enc_width), dec_pos=dec_pos)


def init_weights(config, rng):
    """Fresh weights: Xavier-uniform linears, zero biases, unit norms and a
    truncated-normal mask token.

    Parameters are drawn in layout order, so a given rng state yields
    bit-identical weights.
    """
    draw = {"xavier": lambda shape: _xavier(rng, *shape), "zeros": np.zeros,
            "ones": np.ones, "token": lambda shape: _trunc_normal(rng, shape, 0.02)}
    return build_weights(config, ((name, draw[init](shape))
                                  for name, shape, init in param_layout(config)))


# ---------------------------------------------------------------------------
# forward passes


def _linear(x, params, name):
    return ng.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _norm(x, params, name):
    return ng.layer_norm(x, params[f"{name}.g"], params[f"{name}.b"])


def _attention(x, params, prefix, heads):
    return ng.attention(x, *(params[f"{prefix}.{proj}.{kind}"]
                             for proj in ("q", "k", "v", "out") for kind in "wb"), heads)


def _mlp(x, params, prefix):
    return _linear(ng.gelu(_linear(x, params, f"{prefix}.fc1")), params, f"{prefix}.fc2")


def _blocks(x, params, prefix, depth, heads, branch_hook=None):
    # pre-norm blocks; branch_hook wraps each residual branch (drop path)
    hook = branch_hook or (lambda branch: branch)
    for i in range(depth):
        b = f"{prefix}.blocks.{i}"
        x = ng.add(x, hook(_attention(_norm(x, params, f"{b}.ln1"), params, f"{b}.attn", heads)))
        x = ng.add(x, hook(_mlp(_norm(x, params, f"{b}.ln2"), params, f"{b}.mlp")))
    return x


def _as_patch_tensor(patches, config):
    patches = patches if isinstance(patches, Tensor) else Tensor(patches)
    if patches.ndim not in (2, 3) or patches.shape[-2:] != (config.num_patches,
                                                            config.patch_dim):
        raise ShapeError(f"expected patches [{config.num_patches}, {config.patch_dim}] "
                         f"or a batch of them, got {patches.shape}")
    return patches


def _add_positions(x, table):
    return ng.add(x, Tensor(np.broadcast_to(table, x.shape)))


def encoder_forward(weights, patches, plan, branch_hook=None):
    """Visible-token encoder: project, add positions, keep visible rows, blocks.
    A batch of patches [K, N, P] takes a plan of K permutations."""
    cfg = weights.config
    patches = _as_patch_tensor(patches, cfg)
    if plan.num_tokens != cfg.num_patches:
        raise ShapeError(f"plan covers {plan.num_tokens} tokens, model has {cfg.num_patches}")
    x = _linear(patches, weights.params, "patch_embed")
    x = _add_positions(x, weights.enc_pos)
    if not np.array_equal(plan.visible_idx, np.arange(cfg.num_patches)):
        x = ng.index_select(x, plan.visible_idx)  # the full plan keeps every row in order
    x = _blocks(x, weights.params, "enc", cfg.enc_depth, cfg.enc_heads, branch_hook)
    return _norm(x, weights.params, "enc.norm")


def decoder_forward(weights, latent, plan):
    """Reconstruct all N patch rows from visible latents plus mask tokens
    (of each sample, for a batch of latents and plans)."""
    cfg = weights.config
    if cfg.task != "pretrain":
        raise ValueError(f"decoder requires task 'pretrain', model is {cfg.task!r}")
    want = (*plan.permutation.shape[:-1], plan.num_visible, cfg.enc_width)
    if latent.shape != want:
        raise ShapeError(f"latent shape {latent.shape} != {want}")
    params = weights.params
    x = _linear(latent, params, "dec.embed")
    x = ng.scatter_rows(x, params["dec.mask_token"], plan.visible_idx, plan.num_tokens)
    x = _add_positions(x, weights.dec_pos)
    x = _blocks(x, params, "dec", cfg.dec_depth, cfg.dec_heads)
    x = _norm(x, params, "dec.norm")
    return _linear(x, params, "dec.head")


def classifier_forward(weights, patches, branch_hook=None):
    """All-token encoder, mean pool, norm, linear head -> [num_aus] logits,
    or [K, num_aus] for a batch of patches."""
    cfg = weights.config
    if cfg.task not in ("detect", "intensity"):
        raise ValueError(f"classifier requires a fine-tune task, model is {cfg.task!r}")
    latent = encoder_forward(weights, patches, full_plan(cfg.num_patches), branch_hook)
    batch = latent.ndim == 3
    # a batch's head runs on [K, 1, D], one matrix-vector product per sample,
    # as a single sample's pooled [D] vector does
    pooled = ng.mean(latent, axis=-2, keepdims=batch)
    logits = _linear(_norm(pooled, weights.params, "head.norm"), weights.params, "head.fc")
    return ng.reshape(logits, (latent.shape[0], cfg.num_aus)) if batch else logits


# ---------------------------------------------------------------------------
# checkpoint container
#
# Both checkpoint files share one frame:
#
#   magic | u32 version | u32 meta_len | meta JSON
#   | u32 n_arrays | per array: u16 key_len, key, u8 ndim, u32 dims.., u64 offset
#   | u64 blob_len | float32 LE arrays | u32 crc32 of everything before it
#
# "MAEF" model weights: meta is the ModelConfig.
# "MAET" run state (train.save_run_state): meta carries both configs, progress
#   counters, rng states and trace rows. Version 1 kept its array table in the
#   meta; version 2 has the binary table above.

WEIGHTS_MAGIC = b"MAEF"
RUN_STATE_MAGIC = b"MAET"
_VERSIONS = {WEIGHTS_MAGIC: 1, RUN_STATE_MAGIC: 2}

# what a malformed but checksum-valid container raises while it is decoded
_MALFORMED = (LookupError, TypeError, ValueError, ArithmeticError, RecursionError)


def write_file(path, chunks):
    """The program's one file writer: `chunks` (bytes, or str as UTF-8)
    stream into `path.tmp`, renamed over `path` once whole; on any failure
    the temp file goes and `path` keeps its old bytes."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, magic, meta, arrays):
    """Write (key, ndarray) pairs as float32 under `meta` through write_file;
    the table is laid out from the shapes, so no whole-file copy is made."""
    arrays = list(arrays)
    table, blob_len = [struct.pack("<I", len(arrays))], 0
    for key, arr in arrays:
        name = key.encode()
        table.append(struct.pack(f"<H{len(name)}sB{arr.ndim}IQ",
                                 len(name), name, arr.ndim, *arr.shape, blob_len))
        blob_len += 4 * arr.size
    meta_json = json.dumps(meta, sort_keys=True).encode()
    header = b"".join([magic, struct.pack("<II", _VERSIONS[magic], len(meta_json)),
                       meta_json, *table, struct.pack("<Q", blob_len)])

    def chunks():
        yield header
        crc = binascii.crc32(header)
        for _, arr in arrays:
            # a flat uint8 view: len() of each chunk is its byte count
            chunk = np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8)
            crc = binascii.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc & 0xFFFFFFFF)
    write_file(path, chunks())


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.buf)}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))[0]


def _cap(key):
    """A stored key as an error message quotes it: at most 80 characters,
    as a key may be 65,535 bytes long."""
    return key if len(key) <= 80 else key[:80] + "..."


def read_container(path, magic, decode):
    """Checksum-, magic- and version-checked read of a container; returns
    decode(meta, arrays) with arrays as {key: float32 ndarray}. Anything
    malformed, in the frame or in what `decode` builds from the meta,
    raises CheckpointError."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())  # slices below are views, not copies
    if len(raw) < 12:
        raise CheckpointError(f"{path}: file too small to be a checkpoint")
    body, trailer = raw[:-4], raw[-4:]
    if binascii.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", trailer)[0]:
        raise CheckpointError(f"{path}: checksum mismatch: file is corrupt or truncated")
    r = _Reader(body)
    if r.take(4) != magic:
        raise CheckpointError(f"{path}: bad magic: not a {magic.decode()} file")
    version, expected = r.u("<I"), _VERSIONS[magic]
    if version != expected:
        raise CheckpointError(f"{path}: unsupported version {version}, expected {expected}")
    try:
        meta = json.loads(bytes(r.take(r.u("<I"))).decode())
        table = []
        for _ in range(r.u("<I")):
            key = bytes(r.take(r.u("<H"))).decode()
            shape = tuple(r.u("<I") for _ in range(r.u("<B")))
            table.append((key, shape, r.u("<Q")))
        blob = r.take(r.u("<Q"))
        arrays = {}
        for key, shape, offset in table:
            count = math.prod(shape)
            if offset + 4 * count > len(blob):
                raise CheckpointError(f"{path}: array {_cap(key)!r} extends past the data block")
            arrays[key] = np.frombuffer(blob, dtype="<f4", count=count,
                                        offset=offset).reshape(shape).copy()
        return decode(meta, arrays)
    except CheckpointError:
        raise
    except _MALFORMED as exc:
        raise CheckpointError(f"{path}: malformed {magic.decode()} file: "
                              f"{type(exc).__name__}: {exc}") from exc


def match_arrays(arrays, expected):
    """Check file arrays against `expected` {key: shape}, read off the
    parameter layout; returns the expected arrays in the default dtype.
    Fails whole, naming every missing, unexpected or mis-shaped key."""
    problems = [f"{key}: missing" for key in expected if key not in arrays]
    problems += [f"{key}: file {arrays[key].shape} vs model {shape}"
                 for key, shape in expected.items()
                 if key in arrays and arrays[key].shape != shape]
    problems += [f"{_cap(key)}: unexpected" for key in arrays if key not in expected]
    if problems:
        raise CheckpointError("parameter mismatch; " + "; ".join(problems))
    return {key: arrays[key].astype(ng.default_dtype(), copy=False) for key in expected}


def save_weights(weights, path):
    write_container(path, WEIGHTS_MAGIC, dataclasses.asdict(weights.config),
                    ((name, t.data) for name, t in weights.params.items()))


def load_weights(path):
    """Full checkpoint -> ModelWeights; fails whole, never partially."""
    def decode(meta, arrays):
        config = ModelConfig(**meta)
        return build_weights(config, match_arrays(arrays, param_shapes(config)).items())
    return read_container(path, WEIGHTS_MAGIC, decode)


def load_encoder_only(path, config, rng):
    """Checkpoint encoder + fresh everything else, for the fine-tune handoff."""
    def decode(meta, arrays):
        ModelConfig(**meta)  # the file's own config must be valid too
        weights = init_weights(config, rng)
        encoder = {n: shape for n, shape in param_shapes(config).items()
                   if n.startswith(ENCODER_PREFIXES)}
        stored = {n: arr for n, arr in arrays.items() if n.startswith(ENCODER_PREFIXES)}
        for name, arr in match_arrays(stored, encoder).items():
            weights.params[name].data = arr
        return weights
    return read_container(path, WEIGHTS_MAGIC, decode)
