"""Autodiff core: forward oracles, gradient checks, shape rules, the op set."""

import gc
import math
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from faceau import ndgrad as ng
from faceau.ndgrad import (
    GradCheckReport,
    ShapeError,
    Tape,
    Tensor,
    backward,
    grad_check,
)


def test_sigmoid_forward_matches_scalar_formula():
    xs = np.array([-30.0, -2.0, -0.5, 0.0, 0.5, 2.0, 30.0])
    with ng.precision("float64"):
        got = ng.sigmoid(Tensor(xs)).data
    want = np.array([1.0 / (1.0 + math.exp(-float(v))) for v in xs])
    assert np.allclose(got, want, atol=1e-12)
    # extreme inputs must not overflow
    far = ng.sigmoid(Tensor(np.array([-500.0, 500.0]))).data
    assert np.isfinite(far).all()


def test_gelu_forward_matches_scalar_formula():
    # the bounds gelu's docstring states, against math.erf on a dense grid
    xs = np.linspace(-10.0, 10.0, 200_001)
    with ng.precision("float64"):
        got = ng.gelu(Tensor(xs)).data
    assert got.dtype == np.float64
    want = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in xs])
    assert np.abs(got - want).max() <= 2.5e-7
    xs32 = xs.astype(np.float32)
    got32 = ng.gelu(Tensor(xs32)).data
    assert got32.dtype == np.float32
    want32 = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))
                       for v in xs32.astype(np.float64)])
    assert (np.abs(got32 - want32) <= 5e-7 * np.maximum(1.0, np.abs(want32))).all()
    # odd symmetry of erf: gelu(x) - gelu(-x) = x
    assert np.allclose(got - got[::-1], xs, atol=1e-12)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gelu_non_finite_inputs(dtype):
    # +inf passes through, -inf gives inf·0 and NaN stays NaN, as x·Φ(x) does
    with ng.precision(dtype), np.errstate(invalid="ignore"):
        got = ng.gelu(Tensor(np.array([np.inf, -np.inf, np.nan]))).data
    assert got[0] == np.inf
    assert np.isnan(got[1:]).all()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gelu_forward_is_the_same_taped_or_not(dtype):
    # the derivative is computed only when a tape records; the forward must
    # not depend on it
    with ng.precision(dtype):
        x = Tensor(np.random.default_rng(3).standard_normal((4, 16)), requires_grad=True)
        untaped = ng.gelu(x).data
        with Tape() as tape:
            taped = ng.gelu(x).data
    assert taped.tobytes() == untaped.tobytes()
    assert len(tape.nodes) == 1


def test_index_select_matches_loop_gather_and_scatter():
    rng = np.random.default_rng(5)
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        idx = np.array([4, 0, 4, 2])
        with Tape() as tape:
            y = ng.index_select(x, idx)
            loss = ng.sum(ng.square(y))
        backward(loss, tape)
    # forward: loop gather
    for row, i in enumerate(idx):
        assert np.allclose(y.data[row], x.data[i])
    # backward: loop scatter of 2*x[idx]
    want = np.zeros_like(x.data)
    for row, i in enumerate(idx):
        want[i] += 2.0 * x.data[i]
    assert np.allclose(x.grad, want, atol=1e-12)


def test_index_select_rejects_out_of_range():
    x = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        ng.index_select(x, [0, 3])


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_composite_expression(seed):
    rng = np.random.default_rng(seed)
    with ng.precision("float64"):
        a = Tensor(rng.standard_normal((4, 5)))
        w = Tensor(rng.standard_normal((5, 3)))
        b = Tensor(rng.standard_normal(3))

        def f(a, w, b):
            return ng.mean(ng.square(ng.gelu(ng.linear(a, w, b))))

        report = grad_check(f, [a, w, b], tol=1e-4, rng=rng)
    assert report.passed, f"max rel error {report.max_rel_error}"


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_layer_norm_softmax(seed):
    rng = np.random.default_rng(100 + seed)
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal((3, 6)))
        g = Tensor(1.0 + 0.1 * rng.standard_normal(6))
        b = Tensor(0.1 * rng.standard_normal(6))
        _, params = _attention_inputs(rng, 3, 6)

        def f(x, g, b):
            # the pre-norm attention sublayer: layer norm feeding attention's softmax
            return ng.sum(ng.square(ng.attention(ng.layer_norm(x, g, b), *params, 2)))

        report = grad_check(f, [x, g, b], tol=1e-4, rng=rng)
    assert report.passed, f"max rel error {report.max_rel_error}"


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_elementwise_chain(seed):
    rng = np.random.default_rng(200 + seed)
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal((7,)) * 0.5)

        def f(x):
            y = ng.add(ng.sigmoid(x), ng.gelu(ng.scale(x, -0.3)))
            z = ng.sub(ng.square(y), ng.abs(x))
            return ng.sum(ng.square(z))

        report = grad_check(f, x, tol=1e-4, rng=rng)
    assert report.passed, f"max rel error {report.max_rel_error}"


def test_grad_check_catches_wrong_gradient():
    # negative control: sabotage one backward rule and expect failure
    with ng.precision("float64"):
        x = Tensor(np.array([0.3, -0.7, 1.2]))

        def wrong(x):
            # mean() but pretending the gradient of square is 3x
            y = ng._unary(x, np.square, lambda g, v, _y: g * 3.0 * v, "bad_square")
            return ng.mean(y)

        report = grad_check(wrong, x, tol=1e-4)
    assert not report.passed


@pytest.mark.parametrize(
    "sa,sb",
    [((3, 4), (4, 3)), ((2, 3), (2, 2)), ((4,), (3,)), ((2, 3, 4), (3, 5)),
     ((4, 3), (3,)), ((2, 3), (1,))],
)
def test_elementwise_rejects_incompatible_shapes(sa, sb):
    # binary ops take equal shapes only: no row or scalar broadcasting
    a = Tensor(np.zeros(sa))
    b = Tensor(np.zeros(sb))
    for op in (ng.add, ng.sub):
        with pytest.raises(ShapeError):
            op(a, b)
        with pytest.raises(ShapeError):
            op(b, a)


def test_backward_accumulates_until_zero_grad():
    with ng.precision("float64"):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = ng.sum(ng.square(x))
            backward(loss, tape)
        assert np.allclose(x.grad, 2 * 2.0 * x.data)
        x.zero_grad()
        with Tape() as tape:
            loss = ng.sum(ng.square(x))
        backward(loss, tape)
        assert np.allclose(x.grad, 2.0 * x.data)


def test_shared_subexpression_grad_sums_both_paths():
    with ng.precision("float64"):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            y = ng.square(x)          # y = x^2
            loss = ng.sum(ng.add(y, y))  # 2x^2 -> d/dx = 4x
        backward(loss, tape)
        assert np.allclose(x.grad, [8.0])


def test_backward_requires_scalar_and_on_tape_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = ng.square(x)
    with pytest.raises(ShapeError):
        backward(y, tape)
    with Tape() as other:
        z = ng.sum(ng.square(x))
    with pytest.raises(ValueError):
        backward(z, tape)  # z lives on `other`, not `tape`


def test_backward_uses_the_tape_up():
    # each node, and what it kept for its backward, goes once passed
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = ng.sum(ng.square(x))
    backward(loss, tape)
    assert tape.nodes == [] and np.array_equal(x.grad, [2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        backward(loss, tape)


def test_no_tape_forward_is_untracked():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ng.sum(ng.square(x))  # outside any tape
    assert y.item() == pytest.approx(3.0)
    assert x.grad is None


@pytest.mark.parametrize("read", [False, True], ids=["never-read", "read"])
def test_leaf_that_reuses_a_dead_outputs_id_gets_its_own_gradient(read):
    # an output that dies frees its id, which a leaf made next may take; the
    # leaf's gradient must reach the leaf, not the dead output's node
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ng.square(x)
        if read:
            ng.sum(y)
        del y
        leaf = Tensor(np.full(3, 2.0), requires_grad=True)
        loss = ng.sum(ng.square(leaf))
    backward(loss, tape)
    assert np.array_equal(leaf.grad, [4.0, 4.0, 4.0])
    assert x.grad is None


def test_output_of_an_earlier_tape_is_a_leaf_on_the_next():
    # y was recorded on `first`; on `tape` it is a leaf: its gradient lands in
    # y.grad, and none reaches x through `first`
    with ng.precision("float64"):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as first:
            y = ng.square(x)
        with Tape() as tape:
            loss = ng.sum(ng.scale(y, 3.0))
        backward(loss, tape)
    assert np.array_equal(y.grad, [3.0, 3.0])
    assert x.grad is None
    assert len(first.nodes) == 1


# ops whose backward does not read the input `h` [K=2, T=3, D=4]; `leaf`
# makes each op's other inputs
READS_NOT_ITS_INPUT = {
    "add": lambda h, leaf: ng.add(leaf(h.shape), h),
    "sub": lambda h, leaf: ng.sub(leaf(h.shape), h),
    "scale": lambda h, leaf: ng.scale(h, 3.0),
    "sum": lambda h, leaf: ng.sum(h, axis=-1),
    "mean": lambda h, leaf: ng.mean(h, axis=(0, 2)),
    "reshape": lambda h, leaf: ng.reshape(h, (6, 4)),
    "layer_norm": lambda h, leaf: ng.layer_norm(h, leaf(4), leaf(4)),
    "index_select": lambda h, leaf: ng.index_select(h, [[2, 0], [1, 1]]),
    "scatter_rows": lambda h, leaf: ng.scatter_rows(h, leaf(4), [[3, 0, 1], [2, 4, 0]], 5),
}


@pytest.mark.parametrize("op", READS_NOT_ITS_INPUT)
def test_tape_does_not_keep_an_input_backward_does_not_read(op):
    # h, an intermediate, is dropped before backward: its array must be
    # freed, and the gradients must be those of a run that kept it
    grads = []
    for keep in (True, False):
        rng = np.random.default_rng(17)

        def leaf(shape):
            return Tensor(rng.standard_normal(shape), requires_grad=True)

        x = leaf((2, 3, 4))
        with Tape() as tape:
            h = ng.scale(x, 2.0)
            data = weakref.ref(h.data)
            # scale copies: square keeps a copy, not a view of h (reshape's)
            loss = ng.sum(ng.square(ng.scale(READS_NOT_ITS_INPUT[op](h, leaf), 1.0)))
            if not keep:
                del h
        gc.collect()
        assert (data() is not None) == keep
        backward(loss, tape)
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_reductions_over_axis():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        m = ng.mean(x, axis=0)          # shape (4,)
        loss = ng.sum(m)
    backward(loss, tape)
    assert m.shape == (4,)
    assert np.allclose(x.grad, np.full((3, 4), 1.0 / 3.0))
    with pytest.raises(ShapeError):
        ng.sum(x, axis=2)


def test_default_dtype_is_float32_and_precision_context_switches():
    x = Tensor([1.0, 2.0])
    assert x.data.dtype == np.float32
    with ng.precision("float64"):
        y = Tensor([1.0])
        assert y.data.dtype == np.float64
    z = Tensor([1.0])
    assert z.data.dtype == np.float32


def test_precision_switches_only_the_calling_threads_dtype():
    seen = {}
    inside, done = threading.Event(), threading.Event()

    def other():
        with ng.precision("float64"):
            seen["other"] = Tensor([1.0]).data.dtype
            inside.set()
            done.wait(30)

    thread = threading.Thread(target=other)
    thread.start()
    assert inside.wait(30)
    seen["main"] = Tensor([1.0]).data.dtype
    done.set()
    thread.join(30)
    assert not thread.is_alive()
    assert seen == {"other": np.float64, "main": np.float32}


def test_a_nested_tape_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as outer:
        with pytest.raises(RuntimeError):
            with Tape():
                pass
        loss = ng.sum(ng.square(x))  # still recorded on the outer tape
    backward(loss, outer)
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
    with Tape():  # the thread's slot is free again
        pass


def test_tensor_wraps_an_array_of_its_dtype_and_converts_any_other():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert np.shares_memory(Tensor(a).data, a)
    b = a.astype(np.float64)
    t = Tensor(b)
    assert t.data.dtype == np.float32 and not np.shares_memory(t.data, b)
    with ng.precision("float64"):
        assert np.shares_memory(Tensor(b).data, b)
        assert not np.shares_memory(Tensor(a).data, a)


def test_grad_check_on_a_transposed_input():
    # a.T is F-ordered: the probe must perturb the tensor's own elements
    a = np.random.default_rng(5).standard_normal((3, 4))
    with ng.precision("float64"):
        report = grad_check(lambda t: ng.sum(ng.square(t)), Tensor(a.T))
    assert report.passed, report


def test_grad_check_report_fields():
    r = GradCheckReport(max_rel_error=2e-5, tol=1e-4, per_input=[2e-5])
    assert r.passed
    r2 = GradCheckReport(max_rel_error=5e-4, tol=1e-4, per_input=[5e-4])
    assert not r2.passed


# ---------------------------------------------------------------------------
# fused ops


def _attention_reference(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    # plain per-head loop: project, slice a head, softmax(q kT / sqrt(dh)) v
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    dh = x.shape[1] // heads
    ctx = np.zeros_like(q)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
    return ctx @ wo + bo


def _attention_inputs(rng, t, d):
    x = Tensor(rng.standard_normal((t, d)))
    params = [Tensor(rng.standard_normal(shape) * 0.4) for _ in range(4)
              for shape in ((d, d), (d,))]
    return x, params


def test_attention_matches_per_head_reference():
    rng = np.random.default_rng(31)
    with ng.precision("float64"):
        x, params = _attention_inputs(rng, 5, 12)  # 3 heads of width 4, 5 tokens
        got = ng.attention(x, *params, 3).data
    want = _attention_reference(x.data, *(p.data for p in params), 3)
    assert got.shape == (5, 12)
    assert np.allclose(got, want, atol=1e-12)


def test_attention_float32_by_default_and_rejects_bad_shapes():
    x, params = _attention_inputs(np.random.default_rng(1), 3, 8)
    assert ng.attention(x, *params, 2).data.dtype == np.float32
    with pytest.raises(ShapeError):
        ng.attention(x, *params, 3)  # 8 is not divisible by 3
    with pytest.raises(ShapeError):
        ng.attention(x, *params[:6], params[6], Tensor(np.zeros(7)), 2)


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_attention(seed):
    rng = np.random.default_rng(300 + seed)
    with ng.precision("float64"):
        x, params = _attention_inputs(rng, 5, 12)

        def f(x, *params):
            return ng.sum(ng.square(ng.attention(x, *params, 3)))

        report = grad_check(f, [x] + params, tol=1e-4, rng=rng)
    assert report.passed, f"max rel error {report.max_rel_error}"


@pytest.mark.parametrize("shape", [(4, 3), (3,)])
def test_grad_check_linear(shape):
    rng = np.random.default_rng(41)
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal(shape))
        w = Tensor(rng.standard_normal((3, 5)))
        b = Tensor(rng.standard_normal(5))
        want = x.data @ w.data + b.data
        assert np.allclose(ng.linear(x, w, b).data, want, atol=1e-12)

        def f(x, w, b):
            return ng.sum(ng.square(ng.linear(x, w, b)))

        report = grad_check(f, [x, w, b], tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"
    with pytest.raises(ShapeError):
        ng.linear(Tensor(np.zeros((2, 4))), w, b)


def test_grad_check_gelu():
    rng = np.random.default_rng(51)
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal((3, 4)) * 2.0)
        report = grad_check(lambda x: ng.sum(ng.square(ng.gelu(x))), x, tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"


def _bce_chain(x, t):
    # the unfused formula the fused op replaced, in numpy
    ax = np.abs(x)
    return 0.5 * (x + ax) - x * t + np.log(np.exp(-ax) + 1.0)


def test_bce_with_logits_finite_and_matches_chain_formula():
    x = np.array([0.0, 1e4, -1e4, 0.0, 1e4, -1e4, 2.5, -0.3])
    t = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.25, 0.9])
    with ng.precision("float64"):
        got = ng.bce_with_logits(Tensor(x), t).data
    assert np.isfinite(got).all()
    assert np.allclose(got, _bce_chain(x, t), rtol=1e-12, atol=1e-12)
    assert got[0] == pytest.approx(math.log(2.0))
    assert got[1] == 0.0 and got[2] == pytest.approx(1e4)


def test_grad_check_bce_with_logits():
    rng = np.random.default_rng(61)
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal(6) * 3.0)
        t = rng.random(6)
        report = grad_check(lambda x: ng.sum(ng.bce_with_logits(x, t)), x, tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"
    with pytest.raises(ShapeError):
        ng.bce_with_logits(Tensor(np.zeros(3)), np.zeros(4))


def test_scatter_rows_places_rows_and_token_with_grads():
    rng = np.random.default_rng(71)
    rows = np.array([4, 1])
    with ng.precision("float64"):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        token = Tensor(rng.standard_normal(3), requires_grad=True)
        w = rng.standard_normal((5, 3))
        with Tape() as tape:
            y = ng.scatter_rows(x, token, rows, 5)
            loss = ng.sum(ng.square(ng.sub(y, Tensor(w))))
        backward(loss, tape)
    assert np.array_equal(y.data[rows], x.data)
    for r in (0, 2, 3):
        assert np.array_equal(y.data[r], token.data)
    assert np.allclose(x.grad, 2.0 * (x.data - w[rows]), atol=1e-12)
    assert np.allclose(token.grad, 2.0 * (3.0 * token.data - w[0] - w[2] - w[3]), atol=1e-12)

    with ng.precision("float64"):
        report = grad_check(
            lambda x, token: ng.sum(ng.square(ng.sub(ng.scatter_rows(x, token, rows, 5),
                                                     Tensor(w)))),
            [x, token], tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"


def test_scatter_rows_rejects_bad_rows():
    x, token = Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))
    with pytest.raises(IndexError):
        ng.scatter_rows(x, token, [0, 5], 5)
    with pytest.raises(IndexError):
        ng.scatter_rows(x, token, [1, 1], 5)
    with pytest.raises(ShapeError):
        ng.scatter_rows(x, Tensor(np.zeros(2)), [0, 1], 5)


# ---------------------------------------------------------------------------
# batches: a leading sample axis


K, T, D = 3, 4, 6


def _batched_case(op, rng):
    """(fn, inputs, rows): fn(rows, x, *params) runs one op on a batch x
    [K, T, D] (rows[k] are sample k's rows) or on one sample."""
    x = Tensor(rng.standard_normal((K, T, D)))
    rows = np.stack([rng.permutation(T)[:2] for _ in range(K)])
    if op == "linear":
        params = [Tensor(rng.standard_normal((D, 5))), Tensor(rng.standard_normal(5))]
        return (lambda r, x, w, b: ng.linear(x, w, b)), [x] + params, rows
    if op == "attention":
        _, params = _attention_inputs(rng, T, D)
        return (lambda r, x, *p: ng.attention(x, *p, 2)), [x] + params, rows
    if op == "layer_norm":
        params = [Tensor(1.0 + 0.1 * rng.standard_normal(D)), Tensor(0.1 * rng.standard_normal(D))]
        return (lambda r, x, g, b: ng.layer_norm(x, g, b)), [x] + params, rows
    if op == "gelu":
        return (lambda r, x: ng.gelu(x)), [x], rows
    if op == "index_select":
        return (lambda r, x: ng.index_select(x, r)), [x], rows
    # each sample's T rows land at distinct places among T + 2
    rows = np.stack([rng.permutation(T + 2)[:T] for _ in range(K)])
    token = Tensor(rng.standard_normal(D))
    return (lambda r, x, token: ng.scatter_rows(x, token, r, T + 2)), [x, token], rows


BATCHED = ("linear", "attention", "layer_norm", "gelu", "index_select", "scatter_rows")


@pytest.mark.parametrize("op", BATCHED)
def test_grad_check_batched(op):
    rng = np.random.default_rng(81)
    with ng.precision("float64"):
        fn, inputs, rows = _batched_case(op, rng)
        report = grad_check(lambda *xs: ng.sum(ng.square(fn(rows, *xs))), inputs, tol=1e-4)
    assert report.passed, f"max rel error {report.max_rel_error}"


@pytest.mark.parametrize("op", BATCHED)
def test_batched_op_equals_one_sample_calls_bit_for_bit(op):
    # float32 tapes over two chunks of K samples, each sample's loss scaled by
    # 1/2K, against 2K one-sample tapes run in turn: same outputs, losses and
    # gradients. The second chunk shows that parameter gradients are added one
    # sample at a time: summing a chunk's K gradients first would differ.
    rng = np.random.default_rng(91)
    chunks = [_batched_case(op, rng) for _ in range(2)]
    params = chunks[0][1][1:]
    for t in params:
        t.requires_grad = True

    def scaled(rows, x):
        out = chunks[0][0](rows, x, *params)
        loss = ng.sum(ng.square(out), axis=(-2, -1))
        return out, loss, ng.sum(ng.scale(loss, 1.0 / (2 * K)))

    outs, losses, x_grads = [], [], []
    for _, (x, *_), rows in chunks:
        x.requires_grad = True
        with Tape() as tape:
            out, loss, share = scaled(rows, x)
        backward(share, tape)
        outs.append(out.data)
        losses += loss.data.tolist()
        x_grads.append(x.grad)
    batched = [t.grad for t in params]
    for t in params:
        t.zero_grad()
    for n, (_, (x, *_), rows) in enumerate(chunks):
        for k in range(K):
            xk = Tensor(x.data[k], requires_grad=True)
            with Tape() as tape:
                out, loss, share = scaled(rows[k], xk)
            backward(share, tape)
            assert loss.item() == losses[n * K + k]
            assert out.data.tobytes() == outs[n][k].tobytes()
            assert xk.grad.tobytes() == x_grads[n][k].tobytes()
    for got, t in zip(batched, params):
        assert got.tobytes() == t.grad.tobytes()


# ---------------------------------------------------------------------------
# op set

OPS = {"add", "sub", "scale", "gelu", "sigmoid", "abs", "square", "sum", "mean",
       "reshape", "linear", "attention", "bce_with_logits", "scatter_rows", "index_select",
       "layer_norm"}
ENGINE = {"default_dtype", "precision", "tensor", "backward", "grad_check"}


def test_op_set_is_what_the_program_calls():
    # every public function of the engine is either engine plumbing or an op,
    # and every op is called by the model, losses, augmentation or training
    public = {name for name, obj in vars(ng).items()
              if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
              and getattr(obj, "__module__", None) == ng.__name__}
    assert public - ENGINE == OPS
    src = Path(ng.__file__).parent
    callers = "".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "ndgrad.py")
    uncalled = sorted(op for op in OPS if not re.search(rf"\bng\.{op}\(", callers))
    assert not uncalled, f"ops no program path calls: {uncalled}"
