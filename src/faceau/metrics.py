"""Evaluation metrics: per-AU F1, ICC(3,1), MSE/MAE, label-distribution
statistics, and subject-exclusive k-fold assignment.

Conventions: F1 is pooled over samples within an evaluation (micro per AU)
with threshold 0.5; cross-validation averages per-fold values. Degenerate
cases are explicit: an AU with no positives anywhere gets F1 = 0 plus a
flag, and ICC over constant ratings is a flagged null, never a silent 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MetricsError(ValueError):
    """Metric inputs are empty or structurally invalid."""


@dataclass
class MetricsReport:
    au_names: list
    columns: dict  # metric name -> list of float | None, aligned with au_names
    flags: dict = field(default_factory=dict)  # metric -> list of str | None
    num_samples: int = 0
    task: str = ""
    dataset: str = ""
    fold: int | None = None
    threshold: float | None = None

    def average(self, metric):
        vals = [v for v in self.columns[metric] if v is not None]
        if not vals:
            return None
        return float(np.mean(vals))

    def averages(self):
        return {m: self.average(m) for m in self.columns}

    def to_csv(self):
        metrics = list(self.columns)
        lines = ["au," + ",".join(metrics)]
        for i, au in enumerate(self.au_names):
            cells = []
            for m in metrics:
                v = self.columns[m][i]
                cells.append("" if v is None else f"{v:.6f}")
            lines.append(f"{au}," + ",".join(cells))
        avg_cells = []
        for m in metrics:
            a = self.average(m)
            avg_cells.append("" if a is None else f"{a:.6f}")
        lines.append("avg," + ",".join(avg_cells))
        return "\n".join(lines) + "\n"

    def to_table(self):
        metrics = list(self.columns)
        names = self.au_names + ["Avg."]
        width = max(8, max(len(n) for n in names) + 2)
        head = "metric".ljust(10) + "".join(n.rjust(width) for n in names)
        lines = [head, "-" * len(head)]
        for m in metrics:
            cells = []
            for i in range(len(self.au_names)):
                v = self.columns[m][i]
                flag = (self.flags.get(m) or [None] * len(self.au_names))[i]
                cells.append("null" if v is None else
                             f"{v:.3f}" + ("*" if flag else ""))
            a = self.average(m)
            cells.append("null" if a is None else f"{a:.3f}")
            lines.append(m.ljust(10) + "".join(c.rjust(width) for c in cells))
        if any(f for fl in self.flags.values() for f in (fl or []) if f):
            lines.append("* degenerate entry, see CSV flags")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# detection


def f1_scores(pred_binary, gt, au_names=None, **meta):
    """Micro (sample-pooled) per-AU F1 = 2TP / (2TP + FP + FN)."""
    pred = np.asarray(pred_binary)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise MetricsError(f"need matching [samples, aus] arrays, got {pred.shape}/{gt.shape}")
    if pred.shape[0] == 0:
        raise MetricsError("no samples to score")
    if not np.isin(pred, (0, 1)).all() or not np.isin(gt, (0, 1)).all():
        raise MetricsError("f1_scores expects thresholded binary values")
    n_aus = pred.shape[1]
    au_names = list(au_names) if au_names else [f"au{i}" for i in range(n_aus)]
    values, flags = [], []
    for j in range(n_aus):
        tp = int(((pred[:, j] == 1) & (gt[:, j] == 1)).sum())
        fp = int(((pred[:, j] == 1) & (gt[:, j] == 0)).sum())
        fn = int(((pred[:, j] == 0) & (gt[:, j] == 1)).sum())
        if tp + fp + fn == 0:
            values.append(0.0)
            flags.append("no-positives")
        else:
            values.append(2.0 * tp / (2.0 * tp + fp + fn))
            flags.append(None)
    return MetricsReport(au_names=au_names, columns={"f1": values},
                         flags={"f1": flags}, num_samples=pred.shape[0],
                         threshold=0.5, **meta)


# ---------------------------------------------------------------------------
# intensity


def icc31(pred, gt):
    """Two-way mixed, single-rater, consistency ICC for two raters.

    Returns (value, flag): flag is None normally, a reason string when the
    statistic is undefined (value is then None).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise MetricsError(f"need matching 1-D ratings, got {pred.shape}/{gt.shape}")
    n = pred.size
    if n < 2:
        raise MetricsError("ICC needs at least 2 samples")
    k = 2
    data = np.stack([pred, gt], axis=1)  # n targets x k raters
    grand = data.mean()
    row_means = data.mean(axis=1)
    col_means = data.mean(axis=0)
    ss_total = ((data - grand) ** 2).sum()
    ss_rows = k * ((row_means - grand) ** 2).sum()
    ss_cols = n * ((col_means - grand) ** 2).sum()
    ss_err = ss_total - ss_rows - ss_cols
    bms = ss_rows / (n - 1)
    ems = ss_err / ((n - 1) * (k - 1))
    denom = bms + (k - 1) * ems
    if ss_total < 1e-12 or abs(denom) < 1e-12:
        return None, "constant-ratings"
    return float((bms - ems) / denom), None


def mse_mae(pred, gt, au_names=None, **meta):
    """Per-AU mean squared / absolute error on the 0-5 scale."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise MetricsError(f"need matching [samples, aus] arrays, got {pred.shape}/{gt.shape}")
    if pred.shape[0] == 0:
        raise MetricsError("no samples to score")
    diff = pred - gt
    mse = (diff ** 2).mean(axis=0)
    mae = np.abs(diff).mean(axis=0)
    n_aus = pred.shape[1]
    au_names = list(au_names) if au_names else [f"au{i}" for i in range(n_aus)]
    return MetricsReport(au_names=au_names,
                         columns={"mse": mse.tolist(), "mae": mae.tolist()},
                         num_samples=pred.shape[0], **meta)


def intensity_report(pred, gt, au_names=None, **meta):
    """Combined ICC / MSE / MAE report on 0-5 scale predictions."""
    report = mse_mae(pred, gt, au_names=au_names, **meta)
    iccs, flags = [], []
    for j in range(np.asarray(pred).shape[1]):
        val, flag = icc31(np.asarray(pred)[:, j], np.asarray(gt)[:, j])
        iccs.append(val)
        flags.append(flag)
    report.columns = {"icc": iccs, **report.columns}
    report.flags["icc"] = flags
    return report


# ---------------------------------------------------------------------------
# label statistics


@dataclass
class LabelStats:
    au_names: list
    positive_counts: np.ndarray
    positive_rates: np.ndarray
    num_records: int
    combo_histogram: list  # (bitmask tuple, count), sorted descending
    num_combinations: int
    frac_combos_below_50: float
    frac_combos_above_1000: float

    def to_csv(self):
        lines = ["au,positives,rate"]
        for name, c, r in zip(self.au_names, self.positive_counts, self.positive_rates):
            lines.append(f"{name},{c},{r:.6f}")
        lines.append("")
        lines.append("combination,count")
        for mask, count in self.combo_histogram:
            label = "+".join(self.au_names[i] for i, b in enumerate(mask) if b) or "none"
            lines.append(f"{label},{count}")
        lines.append("")
        lines.append(f"combinations,{self.num_combinations}")
        lines.append(f"frac_below_50,{self.frac_combos_below_50:.6f}")
        lines.append(f"frac_above_1000,{self.frac_combos_above_1000:.6f}")
        return "\n".join(lines) + "\n"


def label_stats(manifest):
    labeled = [r for r in manifest.records if r.occurrence is not None]
    n_aus = manifest.num_aus
    counts = np.zeros(n_aus, dtype=np.int64)
    combos = {}
    for rec in labeled:
        counts += rec.occurrence
        key = tuple(int(v) for v in rec.occurrence)
        combos[key] = combos.get(key, 0) + 1
    n = len(labeled)
    rates = counts / n if n else np.zeros(n_aus)
    hist = sorted(combos.items(), key=lambda kv: (-kv[1], kv[0]))
    n_combo = len(hist)
    below = sum(1 for _, c in hist if c < 50) / n_combo if n_combo else 0.0
    above = sum(1 for _, c in hist if c > 1000) / n_combo if n_combo else 0.0
    return LabelStats(au_names=list(manifest.au_names), positive_counts=counts,
                      positive_rates=rates, num_records=n, combo_histogram=hist,
                      num_combinations=n_combo, frac_combos_below_50=below,
                      frac_combos_above_1000=above)


# ---------------------------------------------------------------------------
# cross-validation


def kfold_by_subject(manifest, k, seed):
    """Partition subjects (never frames) into k folds, sizes within 1."""
    if k < 1:
        raise MetricsError(f"fold count must be at least 1, got {k}")
    subjects = manifest.subjects()
    if len(subjects) < k:
        raise MetricsError(f"{len(subjects)} subjects cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    order = sorted(subjects)
    rng.shuffle(order)
    assignment = {}
    base = len(order) // k
    extra = len(order) % k
    pos = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        for s in order[pos:pos + size]:
            assignment[s] = fold
        pos += size
    return assignment


def split_by_fold(manifest, assignment, fold):
    """(train manifest, eval manifest) for one held-out fold id."""
    from .data import Manifest

    if fold not in assignment.values():
        last = max(assignment.values(), default=-1)
        raise MetricsError(f"fold {fold} has no subjects; valid folds are 0..{last}")
    train = [r for r in manifest.records if assignment[r.subject] != fold]
    test = [r for r in manifest.records if assignment[r.subject] == fold]
    mk = lambda recs: Manifest(records=recs, au_names=manifest.au_names,
                               dataset=manifest.dataset,
                               image_size=manifest.image_size,
                               base_dir=manifest.base_dir)
    return mk(train), mk(test)
