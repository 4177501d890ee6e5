"""Desk-scale training benchmark for faceau.

    python3 bench/run.py --workload pretrain|finetune-detect|finetune-sparse
                         --seed N --seconds S --trace 0|1

Run from the root of a faceau source tree. The run generates the workload's
inputs from the seed (untimed, in a child process), runs the workload's
`faceau` command through `faceau.cli.main` for about S seconds in a second
child process that does nothing else, then checks the outputs against the
benchmark's own references. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics under --trace 0 and the per-layer metrics under --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_runs")

# input generation and measurement must end within this many seconds,
# which leaves the checks time to finish inside three minutes
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "samples_per_s": "samples/s", "step_ms_p50": "ms", "cpu_ms_per_sample": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "write_mb": "MB",
}


def _child(args, deadline):
    """Run a child process to completion, killing it at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for " + args[0])
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          timeout=remaining, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")


def run_benchmark(workload, seed, seconds, trace, work_dir=None):
    """Measure one workload and check its outputs; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    work_dir = work_dir or os.path.join(OUT_DIR, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    _child(["gen", "--workload", workload, "--seed", str(seed), "--dir", work_dir], deadline)
    _child(["measure", "--dir", work_dir, "--seconds", str(seconds),
            "--trace", str(trace)], deadline)
    with open(os.path.join(work_dir, "measure.json")) as fh:
        result = json.load(fh)
    with open(os.path.join(work_dir, "inputs.json")) as fh:
        inputs = json.load(fh)["inputs"]
    import checks

    if result["commands"]:
        result["checks"] = [c.as_dict() for c in checks.run_checks(workload, seed, inputs, result)]
    else:
        result["checks"] = []
    result["correct"] = bool(result["checks"]) and all(c["ok"] for c in result["checks"])
    return result


def summary_line(result):
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in result.get("end_to_end", {}).items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def report(result):
    """Human-readable lines printed before the JSON line."""
    env = result["environment"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}",
             f"nproc {env['nproc']}  numpy {env['numpy']}  {env['blas']}  "
             f"BLAS threads {env['blas_threads']}",
             f"commands {len(result['commands'])} ok, {len(result['failures'])} failed; "
             f"set-up-only runs {len(result['setup_runs_s'])}"]
    for failure in result["failures"]:
        lines.append(f"  failed command: exit {failure['code']}: {failure['stderr'].strip()}")
    steps = sum(len(c["step_ms"]) for c in result["commands"])
    for name, value in result.get("end_to_end", {}).items():
        lines.append(f"  {name:<20} {value:12.4f} {END_TO_END_UNITS[name]}")
    if result.get("end_to_end"):
        lines.append(f"  (medians over {len(result['commands'])} commands; step_ms_p50 over "
                     f"{steps} step intervals)")
    if result["trace"]:
        wall = result["wall_ms"]
        lines.append(f"span self time, {wall:.1f} ms of command wall time in total:")
        for name, calls, own in result["self_time"]:
            lines.append(f"  {name:<26} {calls:8d} calls {own:11.1f} ms {100 * own / wall:6.2f}%")
        for name, metric in result["per_layer"].items():
            lines.append(f"  {name:<38} {metric['value']:12.4f} {metric['unit']}")
    for check in result["checks"]:
        lines.append(f"check {check['name']:<18} {'ok' if check['ok'] else 'FAIL'}  "
                     f"{check['detail']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "faceau", "cli.py")):
        print(f"error: no faceau source tree at {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(result))
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
