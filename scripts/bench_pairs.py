"""Alternating parent/change pairs of the benchmark, summarized as JSON.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                   --seeds A-B [--out FILE]

PARENT_DIR and CHANGE_DIR are two faceau checkouts. For each seed S in A..B
the script runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, T being the `run_seconds` of the change's
BENCHMARK.json: the parent first on even pairs and the change first on odd
ones, because a shared VM's speed can drift for minutes at a time and a
fixed order would charge the drift to one side. It records
every run's metrics and outcome, each side's median and quartiles per
metric, how many pairs each side won (by the direction BENCHMARK.json gives
the metric; ties count for neither) and the machine the runs saw: core
count, numpy and BLAS versions and BLAS threads, from
`.bench_runs/W/measure.json`. With --out FILE the workload's record is
stored in FILE under "workloads" (replacing an earlier record of that
workload, keeping whatever else FILE holds); without it the record is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def parse_seeds(text):
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def alternate(seeds, sides):
    """(seed, side, ran_first) in run order: the sides in order on even pairs
    and reversed on odd ones."""
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            yield seed, side, side == order[0]


def store(path, section, key, record):
    """Set doc[section][key] = record in the JSON file at `path`, keeping
    everything else the file holds (a new file if there is none)."""
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.setdefault(section, {})[key] = record
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`; its summary line plus the machine."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    record = {"seed": seed, "exit": proc.returncode, "wall_s": time.time() - start}
    if proc.returncode != 0:
        record["stderr"] = proc.stderr[-2000:]
        return record
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record.update(correct=summary["correct"], attempted=summary["attempted"],
                  failed=summary["failed"],
                  metrics={k: v["value"] for k, v in summary["metrics"].items()})
    with open(os.path.join(checkout, ".bench_runs", workload, "measure.json")) as fh:
        record["environment"] = json.load(fh)["environment"]
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs, better):
    """Per metric: each side's median and quartiles, and pairs won."""
    out = {}
    for name, direction in better.items():
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if "metrics" in p and "metrics" in c]
        if not pairs:
            continue
        row = {"direction": direction, "pairs": len(pairs)}
        for side, values in zip(SIDES, zip(*pairs)):
            q1, q3 = quartiles(list(values))
            row[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        sign = 1 if direction == "higher" else -1
        row["change_won"] = sum(sign * (c - p) > 0 for p, c in pairs)
        row["parent_won"] = sum(sign * (p - c) > 0 for p, c in pairs)
        row["median_ratio"] = row["change"]["median"] / row["parent"]["median"]
        parent_iqr = row["parent"]["q3"] - row["parent"]["q1"]
        row["median_gap_over_parent_iqr"] = (
            abs(row["change"]["median"] - row["parent"]["median"]) / parent_iqr
            if parent_iqr else None)
        out[name] = row
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent_dir),
            "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = {side: [] for side in SIDES}
    for seed, side, first in alternate(args.seeds, SIDES):
        record = run_once(dirs[side], args.workload, seed, seconds)
        record["ran_first"] = first
        runs[side].append(record)
        shown = record.get("metrics", {}).get("samples_per_s")
        print(f"seed {seed} {side:<6} exit {record['exit']} "
              f"correct {record.get('correct')} samples/s {shown}",
              file=sys.stderr, flush=True)

    record = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "environment": next((r["environment"] for r in runs["change"]
                             if "environment" in r), None),
        "summary": summarize(runs, better),
        "runs": runs,
    }
    if args.out is None:
        print(json.dumps(record, indent=1))
    else:
        store(args.out, "workloads", args.workload, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
