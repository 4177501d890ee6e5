"""Child processes of the benchmark; `run.py` starts them.

    python3 bench/worker.py gen --workload W --seed N --dir D
        writes the workload's inputs under D/inputs and D/inputs.json

    python3 bench/worker.py measure --dir D --seconds S --trace 0|1
        runs the workload's command in this process through
        faceau.cli.main and writes D/measure.json (and D/spans.jsonl when
        traced)

The measuring process does nothing but the workload, so its peak resident
set is the workload's own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

# set-up-only runs of the command before the timed ones; set-up time is
# the median over these and the timed commands
SETUP_RUNS = 5


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gen(args):
    inputs = workloads.generate(args.workload, args.seed, os.path.join(args.dir, "inputs"))
    with open(os.path.join(args.dir, "inputs.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "inputs": inputs}, fh)


def _call(main, argv, tracer):
    """(exit code, stdout, stderr) of one command; an exception that escapes
    the command's own handling counts as a failed command (code None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.root(main, argv) if tracer else main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _setup_runs(main, clock, argv_for, root):
    """Set-up seconds of SETUP_RUNS commands stopped at loop entry."""
    from instrument import SetupReached

    times, failed = [], 0
    clock.stop_at_loop = True
    try:
        for k in range(SETUP_RUNS):
            clock.reset()
            start = time.perf_counter()
            try:
                _call(main, argv_for(os.path.join(root, f"setup_{k}")), None)
            except SetupReached:
                times.append(clock.loop_entry - start)
            else:
                failed += 1
    finally:
        clock.stop_at_loop = False
    return times, failed


def measure(args):
    with open(os.path.join(args.dir, "inputs.json")) as fh:
        spec = json.load(fh)
    workload, seed, inputs = spec["workload"], spec["seed"], spec["inputs"]
    from faceau.cli import main
    from instrument import Clock, Tracer, per_layer_metrics, self_time_rows

    root = os.path.join(args.dir, "runs")
    os.makedirs(root, exist_ok=True)

    def argv_for(out):
        return workloads.command_argv(workload, inputs, out, seed)

    clock = Clock()
    tracer = None
    try:
        setups, setup_failed = ([], 0) if args.trace else _setup_runs(main, clock, argv_for, root)
        tracer = Tracer() if args.trace else None
        commands, last_out, last_stdout = [], None, ""
        begin = time.perf_counter()
        while True:
            out = os.path.join(root, f"cmd_{len(commands)}")
            clock.reset()
            start = time.perf_counter()
            code, stdout, stderr = _call(main, argv_for(out), tracer)
            end, cpu_end = time.perf_counter(), time.process_time()
            rec = {"code": code, "stderr": stderr[-2000:]}
            if code == 0 and clock.loop_entry is not None:
                rec.update(
                    setup_s=clock.loop_entry - start,
                    run_s=end - clock.loop_entry,
                    cpu_s=cpu_end - clock.loop_cpu,
                    samples=clock.samples,
                    step_ms=[(b - a) * 1e3 for a, b in zip(clock.step_times, clock.step_times[1:])],
                    steps=len(clock.step_times),
                    bytes_written=clock.bytes_written,
                    trace_sha=_sha256(os.path.join(out, "trace.csv")),
                    ckpt_sha=_sha256(os.path.join(out, "model.ckpt")),
                )
                if last_out:
                    shutil.rmtree(last_out)
                last_out, last_stdout = out, stdout
            commands.append(rec)
            elapsed = time.perf_counter() - begin
            if elapsed + (end - start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.restore()
        clock.restore()

    ok = [c for c in commands if c["code"] == 0 and "samples" in c]
    result = {
        "workload": workload, "seed": seed, "trace": args.trace,
        "attempted": len(commands) + SETUP_RUNS * (not args.trace),
        "failed": len(commands) - len(ok) + setup_failed,
        "commands": ok,
        "failures": [c for c in commands if c not in ok],
        "setup_runs_s": setups,
        "peak_rss_mb": peak_rss_mb,
        "last_out": last_out,
        "last_stdout": last_stdout,
        "environment": environment(),
    }
    if ok:
        result["end_to_end"] = end_to_end(ok, setups, peak_rss_mb)
    if tracer:
        result["per_layer"] = per_layer_metrics(tracer.spans, tracer.tape_nodes)
        result["self_time"] = self_time_rows(tracer.spans)
        result["wall_ms"] = sum((s[2] - s[1]) * 1e3 for s in tracer.spans if s[3] < 0)
        with open(os.path.join(args.dir, "spans.jsonl"), "w") as fh:
            for name, start, end, parent, items in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "items": items}) + "\n")
    with open(os.path.join(args.dir, "measure.json"), "w") as fh:
        json.dump(result, fh)


def environment():
    """Core count, numpy and BLAS versions, BLAS threads (None if the BLAS
    library does not say)."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def end_to_end(commands, setups, peak_rss_mb):
    """The six end-to-end metrics. Per-command figures are medians over the
    commands; step time is the median over every step of every command."""
    steps = [ms for c in commands for ms in c["step_ms"]]
    med = statistics.median
    return {
        "samples_per_s": med(c["samples"] / c["run_s"] for c in commands),
        "step_ms_p50": med(steps),
        "cpu_ms_per_sample": med(c["cpu_s"] * 1e3 / c["samples"] for c in commands),
        "setup_s": med(setups + [c["setup_s"] for c in commands]),
        "peak_rss_mb": peak_rss_mb,
        "write_mb": med(c["bytes_written"] / 1e6 for c in commands),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="phase", required=True)
    p = sub.add_parser("gen")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=gen)
    p = sub.add_parser("measure")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=measure)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
