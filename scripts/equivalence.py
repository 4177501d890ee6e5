"""Do two faceau checkouts train to the same outcomes? An outcome oracle for
changes that alter training bytes on purpose (a new kernel, a new
summation order), where `same_bytes.py` can only say "different".

    python3 scripts/equivalence.py PARENT_DIR [CHANGE_DIR] --seeds A-B
                                   [--work DIR] [--out FILE --label NAME]

For each seed S in A..B, the script runs one short desk-preset pipeline in
each checkout, the parent first on even pairs and the change first on odd
ones (as `bench_pairs.py` alternates), through `same_bytes.py`'s
`run_chain`: each command in its own subprocess under
`OPENBLAS_NUM_THREADS=1`, with the checkout's `src` first on `PYTHONPATH`,
in the same work path on both sides.
The pipeline (`pipeline`), about 67 s per seed and checkout on a 2-core VM:

- `synth`: 120 images of 6 subjects at 32 pixels, corpus seed 20 for every
  S, so that seeds differ in training randomness only
- `pretrain` on all of them: 10 epochs, batch 16, seed S
- a detect `finetune` from the pre-trained weights on subject fold 0 of 3
  (80 training images of 4 subjects, 40 held out), 10 epochs, batch 16,
  without augmentation (criterion 7's recipe), seed S
- an intensity `finetune --fraction 0.1` from the pre-trained weights on the
  same fold (every 10th frame per subject: 8 images, 200 epochs)
- both fine-tunes again from `--init scratch`

It records per seed: `pretrain_loss`, the mean step loss of the last
pre-training epoch; `f1`, the detect model's held-out average F1; `icc` and
`mae`, the intensity model's held-out averages; and `f1_gap`, `icc_gap` and
`mae_gap`, pretrained minus scratch. At this size detection barely leaves
the label base rates: both arms mostly predict the frequent AUs everywhere,
so `f1_gap` was 0 on 5 of the 6 calibration seeds, and its bound is tight.

The pass rule was fixed from the parent alone, before any change was run:
`python3 scripts/equivalence.py PARENT --seeds 1-6` on the last commit with
scipy's `erf`. `SPREAD` holds each metric's seed-to-seed standard deviation
over those 6 seeds. A change is outcome-equivalent when, for every metric
m, the mean over the n seeds of the paired difference change - parent lies
within `TOLERANCE` · SPREAD[m] · sqrt(2 / n). A change that perturbs
training no more than a new seed does has paired differences of standard
deviation at most SPREAD · sqrt(2), so the bound is 3 standard errors of
their mean. At 4 seeds it is 2.1 · SPREAD: 0.0039 on the pre-training loss.

With one checkout the script runs only that side and prints each metric's
mean and seed-to-seed standard deviation: the calibration. With --out FILE
the record is stored in FILE under "equivalence" -> NAME. Exits 1 if the
rule fails, 0 if it holds (or when calibrating).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

from bench_pairs import alternate, parse_seeds, store
from same_bytes import run_chain

METRICS = ("pretrain_loss", "f1", "icc", "mae", "f1_gap", "icc_gap", "mae_gap")
# seed-to-seed standard deviation of each metric at the parent, seeds 1-6
SPREAD = {"pretrain_loss": 0.00184, "f1": 0.0952, "icc": 0.124, "mae": 0.322,
          "f1_gap": 0.00500, "icc_gap": 0.107, "mae_gap": 0.206}
TOLERANCE = 3.0

MANIFEST = ["--manifest", "data/manifest.jsonl"]
FOLD = ["--fold", "0", "--num-folds", "3"]
FINETUNE = ["--warmup-epochs", "2", "--batch-size", "16", "--base-lr", "1.6e-2",
            "--drop-path-rate", "0", "--randaug-prob", "0", "--mixup-alpha", "0",
            "--cutmix-alpha", "0"]


def pipeline(seed):
    """(name, argv) of one seed's commands, in order, in the run directory."""
    s = str(seed)
    steps = [
        ("synth", ["synth", "--seed", "20", "--count", "120", "--num-subjects", "6",
                   "--image-size", "32", "--out", "data"]),
        ("pretrain", ["pretrain", *MANIFEST, "--out", "pre", "--seed", s, "--epochs", "10",
                      "--warmup-epochs", "2", "--batch-size", "16", "--base-lr", "3.2e-2",
                      "--random-crop", "false"]),
    ]
    for arm, init in (("pretrained", "checkpoint:pre/model.ckpt"), ("scratch", "scratch")):
        steps += [
            (f"detect-{arm}", ["finetune", "--task", "detect", "--init", init, *MANIFEST,
                               *FOLD, "--out", f"detect_{arm}", "--seed", s,
                               "--epochs", "10", *FINETUNE]),
            (f"intensity-{arm}", ["finetune", "--task", "intensity", "--init", init,
                                  *MANIFEST, *FOLD, "--fraction", "0.1",
                                  "--out", f"intensity_{arm}", "--seed", s, *FINETUNE]),
        ]
    return steps


def read_average(path, metric):
    with open(path, newline="") as fh:
        rows = {row["au"]: row for row in csv.DictReader(fh)}
    return float(rows["avg"][metric])


def last_epoch_loss(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]["epoch"]
    return statistics.fmean(float(r["loss"]) for r in rows if r["epoch"] == last)


def run_seed(checkout, seed, run_dir):
    """One seed's pipeline from `checkout` in a fresh `run_dir`: its metrics."""
    start = time.time()
    results, _ = run_chain(checkout, run_dir, pipeline(seed))
    failed = [name for name, (code, _) in results.items() if code != 0]
    if failed:
        raise SystemExit(f"{checkout}: seed {seed}: {', '.join(failed)} failed")
    got = {"pretrain_loss": last_epoch_loss(os.path.join(run_dir, "pre", "trace.csv"))}
    for arm in ("pretrained", "scratch"):
        got[f"f1_{arm}"] = read_average(
            os.path.join(run_dir, f"detect_{arm}", "metrics.csv"), "f1")
        for metric in ("icc", "mae"):
            got[f"{metric}_{arm}"] = read_average(
                os.path.join(run_dir, f"intensity_{arm}", "metrics.csv"), metric)
    for metric in ("f1", "icc", "mae"):
        got[metric] = got[f"{metric}_pretrained"]
        got[f"{metric}_gap"] = got[f"{metric}_pretrained"] - got[f"{metric}_scratch"]
    got["wall_s"] = time.time() - start
    return got


def spread(runs):
    """Each metric's mean and seed-to-seed standard deviation over runs."""
    return {m: {"mean": statistics.fmean(r[m] for r in runs),
                "sd": statistics.stdev(r[m] for r in runs) if len(runs) > 1 else None}
            for m in METRICS}


def judge(parent, change):
    """Per metric: the mean paired difference, its bound, and whether it holds."""
    n = len(parent)
    verdict = {}
    for m in METRICS:
        diffs = [c[m] - p[m] for p, c in zip(parent, change)]
        mean = statistics.fmean(diffs)
        bound = TOLERANCE * SPREAD[m] * math.sqrt(2.0 / n)
        verdict[m] = {"mean_diff": mean, "diffs": diffs, "bound": bound,
                      "holds": abs(mean) <= bound}
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", help="omit to calibrate on the parent alone")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--work", help="scratch directory (default: a temporary one)")
    parser.add_argument("--out", help="JSON file to store the record in")
    parser.add_argument("--label", default="change", help="record name under 'equivalence'")
    args = parser.parse_args(argv)
    if args.change and len(args.seeds) < 2:
        parser.error("a comparison needs at least 2 seeds")
    sides = {"parent": args.parent}
    if args.change:
        sides["change"] = args.change
    work = args.work or tempfile.mkdtemp(prefix="equivalence_")
    run_dir = os.path.join(work, "run")
    runs = {side: [] for side in sides}
    for seed, side, _ in alternate(args.seeds, sides):
        got = run_seed(sides[side], seed, run_dir)
        runs[side].append(got)
        print(f"seed {seed} {side:<6} " + " ".join(f"{m} {got[m]:.4f}" for m in METRICS)
              + f" ({got['wall_s']:.0f} s)", file=sys.stderr, flush=True)
    if not args.work:
        shutil.rmtree(work)

    record = {"seeds": args.seeds, "runs": runs,
              "spread": {side: spread(r) for side, r in runs.items()}}
    failed = False
    if args.change:
        record["rule"] = {"tolerance": TOLERANCE, "spread": SPREAD}
        record["verdict"] = judge(runs["parent"], runs["change"])
        failed = not all(v["holds"] for v in record["verdict"].values())
        record["passed"] = not failed
        for m, v in record["verdict"].items():
            print(f"{m:<14} mean diff {v['mean_diff']:+.4f}  bound {v['bound']:.4f}  "
                  + ("holds" if v["holds"] else "FAILS"))
        print("equivalent" if not failed else "NOT equivalent")
    else:
        for m, v in record["spread"]["parent"].items():
            print(f"{m:<14} mean {v['mean']:.4f}  sd {v['sd']}")
    if args.out:
        store(args.out, "equivalence", args.label, record)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
