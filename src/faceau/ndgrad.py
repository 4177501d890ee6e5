"""Differentiable n-dimensional array core.

A small reverse-mode engine on top of dense numpy arrays. It
implements exactly the ops the transformer model, its losses and the
training loop call, plus a tape that records operations and replays them
backwards. Each op is one tape node with a hand-written backward:

- elementwise: `add`, `sub`, `scale` (by a python constant), `gelu`,
  `sigmoid`, `abs`, `square`
- reductions: `sum`, `mean` (all elements or some axes); `reshape`
- fused: `linear` (matmul + bias), multi-head `attention` (q/k/v
  projections through the output projection), `layer_norm`,
  `bce_with_logits`
- rows: `index_select` (gather) and `scatter_rows` (visible rows plus the
  shared mask token in restore order)

Ops take Tensors; `Tensor(data)` wraps an array of the default dtype and
converts anything else. Binary ops take equal shapes; anything else raises
ShapeError. Each thread has its own tape slot and default dtype: tapes do
not nest, and `precision` switches only the calling thread's dtype.

A recorded output carries its `origin`, (tape, node index). A node records,
per input, where its gradient goes: nowhere, to an earlier node's index, or
into the leaf Tensor itself; and its backward keeps only the arrays and
shapes it reads. So the tape frees every intermediate that no backward
reads, and `backward` is one reverse pass.

Batches: `linear`, `attention`, `layer_norm`, `index_select` and
`scatter_rows` read a 3-D input `[K, T, D]` as K samples of T rows, and a
2-D one (or a vector) as one sample. On a batch they hand each parameter one
gradient per sample, `[K, *shape]`, and `backward` adds those into the
parameter's buffer one sample at a time, in sample order. So for a
parameter that one node reads, as each model parameter is, a tape over K
samples leaves the same gradient bits as K one-sample tapes run in turn.
Every product of a batch is numpy's stacked matmul, which calls BLAS once
per sample with the shapes a lone sample's product has, so its rows keep
their bits. One [K·T, k] GEMM would be faster, but its rows differ from the
T-row products for some shapes: OpenBLAS 0.3.31 (Haswell kernels) gives a
[2·16, 512] @ [512, 64] product other bits than two [16, 512] ones. A
one-row batch `[K, 1, D]` is K matrix-vector products, as a single vector
`[D]` is.

Default precision is float32. Gradient checking runs under float64 via
`precision("float64")`.

`gelu` is the erf form, with an `erf` of its own in numpy: Abramowitz &
Stegun 7.1.26 (`_erf`), in the input's dtype. The formula's error is at most
1.5e-7; against `math.erf` on a dense grid over [-10, 10] it is 1.4e-7 in
float64 and 5.4e-7 in float32 (float32 rounding), and GELU's is 2.1e-7 in
float64. It is not bit-equal to libm's or scipy's `erf`, so training outputs
differ in bytes from versions that used scipy's; the same seed still gives
the same bytes.
"""

from __future__ import annotations

import builtins
import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


_DTYPES = {"float32": np.float32, "float64": np.float64}


class _ThreadState(threading.local):
    tape = None  # the Tape this thread records on
    dtype = np.float32  # this thread's default dtype


_state = _ThreadState()


def default_dtype():
    return _state.dtype


@contextlib.contextmanager
def precision(name):
    """Temporarily switch this thread's default dtype ('float32' or 'float64')."""
    if name not in _DTYPES:
        raise ValueError(f"unsupported dtype {name!r}, expected one of {sorted(_DTYPES)}")
    saved = _state.dtype
    _state.dtype = _DTYPES[name]
    try:
        yield
    finally:
        _state.dtype = saved


class Tensor:
    """Dense array with an optional gradient buffer. Wraps an array of the
    default dtype (sharing its memory); ops never mutate their inputs."""

    __slots__ = ("data", "requires_grad", "grad", "origin")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=_state.dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.origin = None  # (tape, node index) of a recorded output

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g  # in place: the buffer is this tensor's own copy

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad)


@dataclass
class _Node:
    targets: tuple  # per input: None, an earlier node's index, or the leaf Tensor
    backward: object  # callable(grad) -> tuple of arrays/None, aligned with targets
    name: str


@dataclass
class Tape:
    """Ordered record of operations; topological by construction."""

    nodes: list = field(default_factory=list)

    def __enter__(self):
        if _state.tape is not None:
            raise RuntimeError("a tape is already recording on this thread; tapes do not nest")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None

    def record(self, out, inputs, backward, name):
        targets = tuple(None if not t.requires_grad
                        else t.origin[1] if t.origin and t.origin[0] is self else t
                        for t in inputs)
        out.origin = (self, len(self.nodes))
        self.nodes.append(_Node(targets, backward, name))


def _result(arr, inputs, backward, name):
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = builtins.any(t.requires_grad for t in inputs)
    out.grad = None
    out.origin = None
    if _state.tape is not None and out.requires_grad:
        _state.tape.record(out, inputs, backward, name)
    return out


def backward(loss, tape):
    """Populate grads of every requires_grad leaf with d(loss)/d(leaf).

    Repeated calls (on new tapes) without zero_grad accumulate. Each node's
    input gradients go where it recorded: an earlier output's is summed until
    that output's node is passed; a leaf's goes into its buffer at once, one
    sample at a time in sample order if a batched op handed it one per
    sample. The pass uses the tape up: each node is dropped once passed, with
    the activations its backward kept.
    """
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.origin or loss.origin[0] is not tape:
        raise ValueError("loss was not produced on this tape")
    if not tape.nodes:
        raise ValueError("backward already ran on this tape")
    grads = {loss.origin[1]: np.ones_like(loss.data)}
    while tape.nodes:
        node = tape.nodes.pop()
        g = grads.pop(len(tape.nodes), None)
        if g is None:
            continue
        for target, ig in zip(node.targets, node.backward(g)):
            if isinstance(target, Tensor):
                for part in (ig if ig.ndim > target.ndim else (ig,)):
                    target.accumulate_grad(part)
            elif target is not None:
                grads[target] = grads[target] + ig if target in grads else ig


# ---------------------------------------------------------------------------
# binary elementwise, equal shapes only


def _same_shape(a, b, name):
    if a.shape != b.shape:
        raise ShapeError(f"{name}: operand shapes {a.shape} and {b.shape} differ")


def add(a, b):
    _same_shape(a, b, "add")
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a, b):
    _same_shape(a, b, "sub")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def scale(x, c):
    """Multiply by a python scalar constant, or a batch [K, ...] by one
    constant per sample (a [K] array)."""
    if np.ndim(c):
        c = np.asarray(c, dtype=x.data.dtype)
        if c.shape != x.shape[:1]:
            raise ShapeError(f"scale: {c.shape} factors for a batch of shape {x.shape}")
        c = c.reshape(-1, *[1] * (x.ndim - 1))
    else:
        c = float(c)
    return _result(x.data * c, (x,), lambda g: (g * c,), "scale")


# ---------------------------------------------------------------------------
# unary elementwise


def _unary(x, fwd, dfn, name):
    arr = fwd(x.data)

    def back(g, _x=x.data, _y=arr):
        return (dfn(g, _x, _y),)

    return _result(arr, (x,), back, name)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Abramowitz & Stegun 7.1.26: erf(z) = 1 - t·P(t)·exp(-z²) for z >= 0, with
# t = 1 / (1 + p·z) and P(t) = a1 + a2·t + ... + a5·t⁴; |error| <= 1.5e-7.
# _AS_A runs from a5 down to a1, for Horner's rule.
_AS_P = 0.3275911
_AS_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)


def _erf(z):
    """erf by A&S 7.1.26, odd by copysign, in z's dtype (python constants
    are weak scalars, so float32 stays float32). ±inf give ±1, NaN gives NaN."""
    a = np.abs(z)
    t = 1.0 / (1.0 + _AS_P * a)
    poly = _AS_A[0]
    for coef in _AS_A[1:]:
        poly = poly * t + coef
    return np.copysign(1.0 - poly * t * np.exp(-a * a), z)


def gelu(x):
    """GELU in the erf form, x·Φ(x), with the A&S `_erf`: within 2.5e-7 of
    the exact value in float64 and 5e-7·max(1, |value|) in float32, on
    [-10, 10]. A recording tape keeps one array, the derivative Φ(x) + x·φ(x),
    computed only then."""
    v = x.data
    cdf = 0.5 * (1.0 + _erf(v * _INV_SQRT2))
    d = None
    if _state.tape is not None and x.requires_grad:
        d = cdf + v * np.exp(-0.5 * v * v) * _INV_SQRT_2PI
    return _result(v * cdf, (x,), lambda g: (g * d,), "gelu")


def _sigmoid(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x):
    return _unary(x, _sigmoid, lambda g, v, y: g * y * (1.0 - y), "sigmoid")


def abs(x):  # noqa: A001 - mirrors np.abs naming
    return _unary(x, np.abs, lambda g, v, y: g * np.sign(v), "abs")


def square(x):
    return _unary(x, np.square, lambda g, v, y: g * 2.0 * v, "square")


# ---------------------------------------------------------------------------
# reductions


def _axes(x, axis):
    """`axis` (None, an int or a tuple of ints) as a tuple of axes of x."""
    if axis is None:
        return tuple(range(x.ndim))
    axes = axis if isinstance(axis, tuple) else (axis,)
    for a in axes:
        if not (-x.ndim <= a < x.ndim):
            raise ShapeError(f"axis {a} out of range for rank {x.ndim}")
    return tuple(a % x.ndim for a in axes)


def _reduce(x, axis, keepdims, mean):
    axes = _axes(x, axis)
    n = math.prod(x.shape[a] for a in axes)
    reduce = x.data.mean if mean else x.data.sum
    arr = np.asarray(reduce(axis=axis, keepdims=keepdims))
    if arr.ndim == 0:
        arr = arr.reshape(1)
    kept = tuple(1 if a in axes else size for a, size in enumerate(x.shape))

    def back(g, shape=x.shape):
        spread = np.broadcast_to(g.reshape(kept), shape).copy()
        return (spread / n if mean else spread,)

    return _result(arr, (x,), back, "mean" if mean else "sum")


def sum(x, axis=None, keepdims=False):  # noqa: A001
    return _reduce(x, axis, keepdims, mean=False)


def mean(x, axis=None, keepdims=False):
    return _reduce(x, axis, keepdims, mean=True)


def reshape(x, shape):
    return _result(x.data.reshape(shape), (x,), lambda g, s=x.shape: (g.reshape(s),), "reshape")


# ---------------------------------------------------------------------------
# structured ops


def _rows(a):
    # a vector is a one-row sample
    return a.reshape(1, -1) if a.ndim == 1 else a


def _column_sums(g):
    """Sum over a sample's rows: [d] for one sample, [K, d] for a batch."""
    return _rows(g).sum(axis=-2)


def _param_grads(x, g):
    """(xᵀ g, column sums of g): the weight and bias gradients of x @ w + b,
    one pair per sample of a batch."""
    return _rows(x).swapaxes(-1, -2) @ _rows(g), _column_sums(g)


def linear(x, w, b):
    """x @ w + b for x of shape [k], [n, k] or a batch [K, n, k]; w [k, m], b [m]."""
    if x.ndim > 3 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
    xd, wd, needs_gx = x.data, w.data, x.requires_grad
    arr = xd @ wd + b.data

    def back(g):
        return (g @ wd.T if needs_gx else None, *_param_grads(xd, g))

    return _result(arr, (x, w, b), back, "linear")


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Multi-head self-attention of x [T, D] (or a batch [K, T, D]) through
    its output projection.

    One node owns softmax(Q Kᵀ / sqrt(dh)) V and its backward: the q/k/v
    projections run as one [D, 3D] matmul, heads are strided views of its
    result (no transposed copies), and backward keeps only q/k/v, the
    probabilities and the context.
    """
    params = (wq, bq, wk, bk, wv, bv, wo, bo)
    if x.ndim not in (2, 3) or heads < 1 or x.shape[-1] % heads:
        raise ShapeError(f"attention: cannot split {x.shape} into {heads} heads")
    *lead, t, d = x.shape
    dh = d // heads
    for p, want in zip(params, [(d, d), (d,)] * 4):
        if p.shape != want:
            raise ShapeError(f"attention: parameter shape {p.shape}, expected {want}")
    wq, bq, wk, bk, wv, bv, wo, bo = (p.data for p in params)
    scale = 1.0 / math.sqrt(dh)
    # [..., T, 3, H, dh] -> [3, ..., H, T, dh]: q, k and v
    n = len(lead)
    split = (n + 1, *range(n), n + 2, n, n + 3)
    qkv = x.data @ np.concatenate([wq, wk, wv], axis=1) + np.concatenate([bq, bk, bv])
    q, k, v = qkv.reshape(*lead, t, 3, heads, dh).transpose(split)
    p = (q @ k.swapaxes(-1, -2)) * scale
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    ctx = (p @ v).swapaxes(-2, -3).reshape(x.shape)

    def back(g):
        gctx = (g @ wo.T).reshape(*lead, t, heads, dh).swapaxes(-2, -3)
        gp = gctx @ v.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gs *= scale
        gqkv = np.empty_like(qkv)
        gq, gk, gv = gqkv.reshape(*lead, t, 3, heads, dh).transpose(split)
        gq[...] = gs @ k
        gk[...] = gs.swapaxes(-1, -2) @ q
        gv[...] = p.swapaxes(-1, -2) @ gctx
        gw, gb = _param_grads(x.data, gqkv)
        gx = gqkv[..., :d] @ wq.T + gqkv[..., d:2 * d] @ wk.T + gqkv[..., 2 * d:] @ wv.T
        gwo, gbo = _param_grads(ctx, g)
        return (gx, gw[..., :d], gb[..., :d], gw[..., d:2 * d], gb[..., d:2 * d],
                gw[..., 2 * d:], gb[..., 2 * d:], gwo, gbo)

    return _result(ctx @ wo + bo, (x,) + params, back, "attention")


def bce_with_logits(logits, target):
    """Elementwise sigmoid cross-entropy of logits against constant targets,
    max(x, 0) - x*t + log(1 + exp(-|x|)): finite for any logit magnitude."""
    v = logits.data
    t = np.asarray(target, dtype=v.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.shape} vs targets {t.shape}")
    arr = np.maximum(v, 0.0) - v * t + np.log1p(np.exp(-np.abs(v)))
    return _result(arr, (logits,), lambda g: (g * (_sigmoid(v) - t),), "bce_with_logits")


def _batch_rows(x, rows, name):
    """(rows, index): rows [M] of one sample x [N, D], or rows [K, M] of a
    batch x [K, N, D], and the index of x's leading axes they make."""
    rows = np.asarray(rows, dtype=np.int64)
    if x.ndim not in (2, 3) or rows.ndim != x.ndim - 1 or rows.shape[:-1] != x.shape[:-2]:
        raise ShapeError(f"{name}: rows {rows.shape} of a {x.shape} tensor")
    return rows, (np.arange(len(rows))[:, None], rows) if rows.ndim == 2 else rows


def scatter_rows(x, fill, rows, n):
    """[n, D] tensor holding x's rows at the distinct positions `rows` and
    the vector `fill` in every other row (the decoder's mask tokens); for a
    batch x [K, M, D], rows [K, M] gives each sample's positions."""
    rows, at = _batch_rows(x, rows, "scatter_rows")
    if fill.shape != x.shape[-1:] or rows.shape != x.shape[:-1]:
        raise ShapeError(f"scatter_rows: rows {rows.shape} of {x.shape} with fill "
                         f"{fill.shape} into {n} rows")
    if rows.size and (rows.min() < 0 or rows.max() >= n
                      or (np.diff(np.sort(rows, axis=-1), axis=-1) == 0).any()):
        raise IndexError(f"scatter_rows: row indices must be distinct and in [0, {n})")
    others = np.ones((*x.shape[:-2], n), dtype=bool)
    others[at] = False
    arr = np.empty((*others.shape, x.shape[-1]), dtype=np.result_type(x.data, fill.data))
    arr[at] = x.data
    arr[others] = fill.data

    def back(g):
        # per sample: the rows that hold the token, summed in row order
        return g[at], g[others].reshape(*others.shape[:-1], -1, g.shape[-1]).sum(axis=-2)

    return _result(arr, (x, fill), back, "scatter_rows")


def index_select(x, idx):
    """Gather rows of a [N, D] tensor, or rows idx[k] of each sample k of a
    batch [K, N, D]; backward scatters additively."""
    idx, at = _batch_rows(x, idx, "index_select")
    n = x.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index_select: indices outside [0, {n})")
    arr = x.data[at]

    def back(g, shape=x.shape, dtype=x.data.dtype):
        gx = np.zeros(shape, dtype)
        np.add.at(gx, at, g)
        return (gx,)

    return _result(arr, (x,), back, "index_select")


def _row_mean(a):
    # a.mean(axis=-1, keepdims=True), bit for bit, without numpy's Python-level wrapper
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


_LN_EPS = 1e-6


def layer_norm(x, gamma, beta):
    """Normalize over the last axis of x [d], [T, d] or a batch [K, T, d],
    then scale/shift."""
    d = x.shape[-1]
    if x.ndim > 3:
        raise ShapeError(f"layer_norm: expected [d], [T, d] or [K, T, d], got {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape}/{beta.shape}")
    xc = x.data - _row_mean(x.data)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + _LN_EPS)
    xhat = xc * inv
    g_data = gamma.data
    arr = xhat * g_data + beta.data

    def back(g):
        dxhat = g * g_data
        gx = (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat)) * inv
        return gx, _column_sums(g * xhat), _column_sums(g)

    return _result(arr, (x, gamma, beta), back, "layer_norm")


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    per_input: list

    @property
    def passed(self):
        return self.max_rel_error <= self.tol


def grad_check(f, inputs, h=1e-5, tol=1e-4, sample=None, rng=None):
    """Compare analytic gradients of a scalar function against central differences.

    `inputs` is a Tensor or a sequence of Tensors; each is marked
    requires_grad for the check. With `sample`, only that many randomly
    chosen elements per input are probed (for large parameter sets);
    otherwise every element is. Relative error uses a denominator floored
    at 1 so near-zero gradients are compared absolutely.
    """
    single = isinstance(inputs, Tensor)
    xs = [inputs] if single else list(inputs)
    for x in xs:
        x.requires_grad = True
        x.zero_grad()

    with Tape() as tape:
        out = f(*xs)
    backward(out, tape)
    analytic = [np.zeros_like(x.data) if x.grad is None else x.grad.copy() for x in xs]
    for x in xs:
        x.zero_grad()

    rng = rng or np.random.default_rng(0)
    per_input = []
    worst = 0.0
    for x, an in zip(xs, analytic):
        # .flat writes through for any layout; reshape(-1) copies a strided array
        flat = x.data.flat
        n = x.data.size
        if sample is not None and sample < n:
            positions = rng.choice(n, size=sample, replace=False)
        else:
            positions = np.arange(n)
        err = 0.0
        for pos in positions:
            saved = flat[pos]
            flat[pos] = saved + h
            fp = f(*xs).item()
            flat[pos] = saved - h
            fm = f(*xs).item()
            flat[pos] = saved
            numeric = (fp - fm) / (2.0 * h)
            a = an.reshape(-1)[pos]
            denom = builtins.max(np.abs(a), np.abs(numeric), 1.0)
            err = builtins.max(err, np.abs(a - numeric) / denom)
        per_input.append(float(err))
        worst = builtins.max(worst, err)
    return GradCheckReport(max_rel_error=float(worst), tol=tol, per_input=per_input)
