"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

The run-based tests execute each workload twice with the same seed (one
command each, traced), about two minutes in all.
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import instrument  # noqa: E402
import run as bench  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def twin_runs(request, tmp_path_factory):
    """Two traced same-seed runs of one workload, one command each."""
    runs = []
    for name in ("a", "b"):
        work = str(tmp_path_factory.mktemp(f"{request.param}-{name}"))
        runs.append(bench.run_benchmark(request.param, SEED, 1, 1, work_dir=work))
    return runs


def test_runs_are_correct_and_report_every_metric(twin_runs):
    for result in twin_runs:
        failed = [c for c in result["checks"] if not c["ok"]]
        assert result["correct"], failed
        assert result["failed"] == 0
        assert list(result["per_layer"]) == list(instrument.PER_LAYER)
        assert set(result["end_to_end"]) == set(bench.END_TO_END_UNITS)


def test_count_metrics_repeat_exactly(twin_runs):
    a, b = twin_runs
    for name in instrument.COUNT_METRICS:
        assert a["per_layer"][name] == b["per_layer"][name], name
    assert a["end_to_end"]["write_mb"] == b["end_to_end"]["write_mb"]
    assert a["per_layer"]["train.steps"]["value"] >= 1


def test_same_seed_writes_identical_trace_and_checkpoint(twin_runs):
    a, b = twin_runs
    for name in ("trace.csv", "model.ckpt"):
        with open(os.path.join(a["last_out"], name), "rb") as fa, \
                open(os.path.join(b["last_out"], name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_spans_account_for_command_wall_time(twin_runs):
    result = twin_runs[0]
    total_self = sum(own for _, _, own in result["self_time"])
    assert math.isclose(total_self, result["wall_ms"], rel_tol=1e-9)


# ---------------------------------------------------------------------------
# each check fails on a perturbed output


@pytest.fixture(scope="module")
def trace_rows():
    # 3 epochs x 2 steps of a warmup + cosine schedule with falling loss
    rows = []
    for step in range(6):
        lr = checks.ref.scheduled_lr(step, 0.032, 16, 1, 3, 2)
        rows.append((step, step // 2, lr, 1.0 / (1 + step)))
    return rows


def test_row_count_check(trace_rows):
    assert checks.check_row_count(trace_rows, 3, 32, 16).ok
    assert not checks.check_row_count(trace_rows[:-1], 3, 32, 16).ok
    shifted = [(s, e + (s == 3), lr, loss) for s, e, lr, loss in trace_rows]
    assert not checks.check_row_count(shifted, 3, 32, 16).ok


def test_lr_check(trace_rows):
    assert checks.check_lr(trace_rows, 0.032, 16, 1, 3, 32).ok
    bumped = list(trace_rows)
    s, e, lr, loss = bumped[4]
    bumped[4] = (s, e, lr * (1 + 1e-9), loss)
    assert not checks.check_lr(bumped, 0.032, 16, 1, 3, 32).ok
    assert not checks.check_lr(trace_rows, 0.032, 32, 1, 3, 32).ok


def test_loss_check(trace_rows):
    assert checks.check_losses(trace_rows).ok
    rising = [(s, e, lr, float(s)) for s, e, lr, _ in trace_rows]
    assert not checks.check_losses(rising).ok
    nan = list(trace_rows)
    nan[2] = nan[2][:3] + (float("nan"),)
    assert not checks.check_losses(nan).ok


def test_forward_and_prediction_checks():
    rng = np.random.default_rng(0)
    ref_logits = rng.normal(size=(10, 4))
    assert checks.check_close("f", ref_logits + 1e-7, ref_logits).ok
    off = ref_logits.copy()
    off[3, 2] += 1e-2
    assert not checks.check_close("f", off, ref_logits).ok
    pred = (ref_logits >= 0).astype(np.int64)
    assert checks.check_detect_predictions(pred, ref_logits).ok
    flipped = pred.copy()
    i, j = np.unravel_index(np.argmax(np.abs(ref_logits)), ref_logits.shape)
    flipped[i, j] ^= 1
    assert not checks.check_detect_predictions(flipped, ref_logits).ok


def test_metrics_checks():
    gt = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    pred = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
    want = checks.recompute_detect(pred, gt)
    assert want["f1"][:2] == [0.5, 1.0]
    assert checks.check_metrics({"f1": [round(v, 6) for v in want["f1"]]}, want).ok
    assert not checks.check_metrics({"f1": [want["f1"][0] + 1e-5] + want["f1"][1:]}, want).ok

    levels = np.array([[0, 5], [1, 4], [3, 3], [5, 0]], dtype=float)
    scores = levels + np.array([[0.1, -0.2], [0.3, 0.1], [-0.4, 0.2], [0.0, 0.3]])
    want = checks.recompute_intensity(scores, levels)
    assert checks.check_metrics(want, want).ok
    worse = dict(want, mse=[v * 1.01 for v in want["mse"]])
    assert not checks.check_metrics(worse, want).ok
    undefined = dict(want, icc=[None] + want["icc"][1:])
    assert not checks.check_metrics(undefined, want).ok


def test_sparse_protocol_check():
    frames = {"s00": 10, "s01": 13}
    rows = [(e, e, 0.0, 1.0) for e in range(200)]
    line = "fraction 0.1: every 10-th frame (23 -> 3 records), 200 epochs\n"
    assert checks.check_sparse_protocol(line, frames, 0.1, rows, 16).ok
    assert not checks.check_sparse_protocol(line.replace("-> 3", "-> 2"), frames, 0.1,
                                            rows, 16).ok
    assert not checks.check_sparse_protocol(line.replace("200 epochs", "20 epochs"), frames,
                                            0.1, rows, 16).ok
    assert not checks.check_sparse_protocol(line, frames, 0.1, rows[:-1], 16).ok


def test_held_out_and_repeat_checks():
    stdout = "eval epoch 1: f1 0.1\neval epoch 2: f1 0.2\neval epoch 3: f1 0.3\n"
    train, held = ["s0", "s1", "s2", "s3"], ["s4", "s5"]
    assert checks.check_held_out(train, held, 40, stdout, 3).ok
    assert not checks.check_held_out(train, held + ["s0"], 40, stdout, 3).ok
    assert not checks.check_held_out(train, held, 39, stdout, 3).ok
    assert not checks.check_held_out(train, held, 40, stdout, 4).ok
    same = [{"trace_sha": "x", "ckpt_sha": "y"}] * 2
    assert checks.check_repeats(same).ok
    assert not checks.check_repeats(same + [{"trace_sha": "x", "ckpt_sha": "z"}]).ok


def test_gradient_check():
    weights = {"a": np.array([0.3, -0.7]), "b": np.array([[1.5]])}

    def loss(w):
        return float((w["a"] ** 2).sum() * w["b"][0, 0] + np.abs(w["a"]).sum()), np.sign(w["a"])

    true = {"a": 2 * weights["a"] * 1.5 + np.sign(weights["a"]),
            "b": np.array([[(weights["a"] ** 2).sum()]])}
    positions = [("a", 0), ("a", 1), ("b", 0)]
    assert checks.check_gradients(true, loss, weights, positions).ok
    wrong = dict(true, a=true["a"] * 1.01)
    assert not checks.check_gradients(wrong, loss, weights, positions).ok
    # a probe that straddles the kink of |a| moves to the next index
    kinked = {"a": np.array([0.0, 0.4]), "b": np.array([[1.0]])}
    grad = {"a": 2 * kinked["a"] + np.sign(kinked["a"]), "b": np.array([[0.16]])}
    result = checks.check_gradients(grad, loss, kinked, [("a", 0)])
    assert result.ok and "a[1]" in result.detail


# ---------------------------------------------------------------------------


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pretrain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
