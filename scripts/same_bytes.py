"""Do two faceau checkouts write the same bytes? A same-output oracle for
changes that must not alter any result.

    python3 scripts/same_bytes.py PARENT_DIR CHANGE_DIR [--work DIR]

PARENT_DIR and CHANGE_DIR are two faceau checkouts. In each, the script
runs one chain of small commands that covers all ten subcommands and each
way a training command resolves its config: `synth`; `pretrain`, its replay
from its `resolved.cfg`, a `--resume` with that snapshot and one with flags
only; a detect `finetune` from the pre-trained checkpoint, an intensity
`finetune` from scratch, a sparse-frames (`--fraction`) one and one whose
`--warmup-epochs 30` only the protocol's epoch budget admits; `eval`,
`reconstruct`, `stats`, `kfold`, `subsample`, `align`; and `ablate-loss`
and its replay from its `resolved.cfg`. Then, since a batch of the tiny
model fits one chunk of samples, it runs the desk-width model (the `desk`
preset on a second, 32-pixel `synth` corpus), whose batches span several
chunks: a `pretrain` with batch 6 (chunks of 4 and 2) and a detect
`finetune` from its checkpoint with batch 5 (chunks of 2, 2 and 1), mixup,
cutmix, drop path, RandAugment, smoothing and per-epoch held-out scoring;
and last a tiny detect `finetune --freeze-encoder true`. Every command
runs in its own subprocess under `OPENBLAS_NUM_THREADS=1`, with the
checkout's `src` first on `PYTHONPATH`, and writes under the same path
(`DIR/run`, a temporary directory by default) for both checkouts, so that
paths recorded in the outputs agree. The script then compares each
command's exit code and stdout and the sha256 of every output file, lists
each difference (a command that fails on both sides counts as one), and
exits 1 if there is any (0 if none).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

TINY_MODEL = ["--image-size", "16", "--patch-size", "4", "--enc-depth", "2",
              "--enc-width", "32", "--enc-heads", "2", "--dec-depth", "1",
              "--dec-width", "16", "--dec-heads", "2"]
TRAIN = ["--warmup-epochs", "1", "--batch-size", "4", "--base-lr", "2.56e-3"]
MANIFEST = ["--manifest", "data/manifest.jsonl"]
DESK_MANIFEST = ["--manifest", "data32/manifest.jsonl"]
# ends with --batch-size; each command gives its own
DESK_TRAIN = ["--model-preset", "desk", "--warmup-epochs", "1", "--base-lr", "2.56e-3",
              "--batch-size"]

# (name, argv): run in order, each in the run directory
COMMANDS = [
    ("synth", ["synth", "--seed", "1", "--count", "12", "--num-subjects", "3",
               "--image-size", "16", "--out", "data"]),
    ("pretrain", ["pretrain", *MANIFEST, "--out", "pre", "--seed", "0",
                  "--epochs", "2", "--random-crop", "true", *TINY_MODEL, *TRAIN]),
    # both read pre/resolved.cfg before pretrain-resume rewrites it
    ("pretrain-replay", ["pretrain", *MANIFEST, "--config", "pre/resolved.cfg",
                         "--out", "pre_replay"]),
    ("pretrain-snapshot-resume", ["pretrain", *MANIFEST, "--config", "pre/resolved.cfg",
                                  "--resume", "pre/run_state.bin", "--epochs", "3",
                                  "--out", "pre_snap"]),
    ("pretrain-resume", ["pretrain", *MANIFEST, "--out", "pre",
                         "--resume", "pre/run_state.bin", "--epochs", "3"]),
    ("finetune-detect", ["finetune", "--task", "detect",
                         "--init", "checkpoint:pre/model.ckpt", *MANIFEST,
                         "--fold", "0", "--eval-every", "1", "--out", "ft",
                         "--seed", "0", "--epochs", "2", "--mixup-alpha", "0.2",
                         "--cutmix-alpha", "0.75", "--drop-path-rate", "0.1",
                         "--label-smoothing", "0.1", *TINY_MODEL, *TRAIN]),
    ("finetune-intensity", ["finetune", "--task", "intensity", "--init", "scratch",
                            *MANIFEST, "--eval-manifest", "data/manifest.jsonl",
                            "--out", "ft_int", "--seed", "1", "--epochs", "2",
                            *TINY_MODEL, *TRAIN]),
    ("finetune-fraction", ["finetune", "--task", "detect", "--init", "scratch",
                           *MANIFEST, "--eval-manifest", "data/manifest.jsonl",
                           "--fraction", "0.1", "--out", "ft_frac", "--seed", "2",
                           *TINY_MODEL, *TRAIN]),
    # the protocol's 200-epoch budget, not TRAIN's, bounds this warmup
    ("finetune-fraction-warmup", ["finetune", "--task", "detect", "--init", "scratch",
                                  *MANIFEST, "--fraction", "0.1", "--warmup-epochs", "30",
                                  "--out", "ft_frac_warm", "--seed", "2", *TINY_MODEL,
                                  "--batch-size", "4", "--base-lr", "2.56e-3"]),
    ("eval", ["eval", "--checkpoint", "ft/model.ckpt", *MANIFEST, "--out", "ev"]),
    ("reconstruct", ["reconstruct", "--checkpoint", "pre/model.ckpt",
                     "--image", "data/img_00000.pgm", "--mask-ratio", "0", "0.5",
                     "0.75", "--seed", "3", "--out", "recon"]),
    ("stats", ["stats", *MANIFEST, "--out", "stats"]),
    ("kfold", ["kfold", *MANIFEST, "--k", "3", "--seed", "0", "--out", "folds"]),
    ("subsample", ["subsample", *MANIFEST, "--n", "2", "--out", "sub"]),
    ("align", ["align", *MANIFEST, "--out", "aligned"]),
    ("ablate-loss", ["ablate-loss", *MANIFEST, "--eval-manifest",
                     "data/manifest.jsonl", "--seed", "0", "--pretrain-epochs", "1",
                     "--finetune-epochs", "1", "--warmup-epochs", "0",
                     "--batch-size", "4", *TINY_MODEL, "--out", "abl"]),
    ("ablate-replay", ["ablate-loss", *MANIFEST, "--eval-manifest",
                       "data/manifest.jsonl", "--config", "abl/resolved.cfg",
                       "--out", "abl_replay"]),
    ("synth-desk", ["synth", "--seed", "2", "--count", "12", "--num-subjects", "3",
                    "--image-size", "32", "--out", "data32"]),
    ("pretrain-desk", ["pretrain", *DESK_MANIFEST, "--out", "pre_desk", "--seed", "0",
                       "--epochs", "1", "--random-crop", "true", *DESK_TRAIN, "6"]),
    ("finetune-desk-detect", ["finetune", "--task", "detect",
                              "--init", "checkpoint:pre_desk/model.ckpt", *DESK_MANIFEST,
                              "--eval-manifest", "data32/manifest.jsonl", "--eval-every", "1",
                              "--out", "ft_desk", "--seed", "0", "--epochs", "2",
                              "--mixup-alpha", "0.2", "--cutmix-alpha", "0.75",
                              "--drop-path-rate", "0.1", "--randaug-magnitude", "9",
                              "--randaug-prob", "0.5", "--label-smoothing", "0.1",
                              *DESK_TRAIN, "5"]),
    ("finetune-frozen", ["finetune", "--task", "detect", "--init", "checkpoint:pre/model.ckpt",
                         *MANIFEST, "--eval-manifest", "data/manifest.jsonl",
                         "--freeze-encoder", "true", "--out", "ft_frozen", "--seed", "0",
                         "--epochs", "2", *TINY_MODEL, *TRAIN]),
]


def checkout_env(checkout):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    where = subprocess.run([sys.executable, "-c", "import faceau; print(faceau.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not os.path.abspath(where.strip()).startswith(src + os.sep):
        raise SystemExit(f"{checkout}: imports faceau from {where.strip()}, not {src}")
    return env


def run_chain(checkout, run_dir, commands=COMMANDS):
    """Run `commands` from `checkout` in a fresh `run_dir`; returns
    ({command: (exit code, stdout)}, {relative path: sha256})."""
    env = checkout_env(checkout)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    results = {}
    for name, argv in commands:
        proc = subprocess.run([sys.executable, "-m", "faceau.cli", *argv], cwd=run_dir,
                              env=env, capture_output=True, text=True)
        results[name] = (proc.returncode, proc.stdout)
        if proc.returncode != 0:
            print(f"{checkout}: {name} exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
    digests = {}
    for root, _, files in os.walk(run_dir):
        for file in files:
            path = os.path.join(root, file)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, run_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return results, digests


def compare(parent, change):
    """Every difference between two run_chain results, one line each."""
    (p_runs, p_files), (c_runs, c_files) = parent, change
    diffs = []
    for name, _ in COMMANDS:
        if p_runs[name][0] != c_runs[name][0]:
            diffs.append(f"{name}: exit {p_runs[name][0]} vs {c_runs[name][0]}")
        elif p_runs[name][0] != 0:  # a chain that fails on both sides checks nothing
            diffs.append(f"{name}: exit {p_runs[name][0]} on both sides")
        if p_runs[name][1] != c_runs[name][1]:
            diffs.append(f"{name}: stdout differs")
    for path in sorted(set(p_files) | set(c_files)):
        if path not in c_files:
            diffs.append(f"{path}: only in parent")
        elif path not in p_files:
            diffs.append(f"{path}: only in change")
        elif p_files[path] != c_files[path]:
            diffs.append(f"{path}: sha256 {p_files[path][:12]} vs {c_files[path][:12]}")
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--work", help="scratch directory (default: a temporary one)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="same_bytes_")
    run_dir = os.path.join(work, "run")
    parent = run_chain(args.parent, run_dir)
    change = run_chain(args.change, run_dir)
    if not args.work:
        shutil.rmtree(work)
    diffs = compare(parent, change)
    for line in diffs:
        print(line)
    print(f"{len(COMMANDS)} commands, {len(change[1])} files: "
          + (f"{len(diffs)} differences" if diffs else "all equal"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
