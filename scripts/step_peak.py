"""Peak traced memory of one batch-16 `desk` training step, and of
reloading that model's checkpoint and run state.

    python3 scripts/step_peak.py

For `pretrain` and for `detect`, the script builds the `desk` model, a
16-image `synth` corpus (seed 0) and that task's training preset for one
epoch of one batch of 16 at seed 0, then runs the training loop under
`tracemalloc` and prints the peak of the allocations traced during the step:
sample preparation, every chunk's tape and backward, and the AdamW update.
The corpus and the weights are built before tracing starts. It then writes
the trained weights (`save_weights`, an `MAEF` file) and run state
(`save_run_state`, an `MAET` file) to a temporary directory and prints the
traced peak of `load_weights` and of `load_run_state` on them, in MB and as
a multiple of the file's size. The numbers are Python and numpy
allocations only (not RSS), so they depend on the chunk size, on what each
tape keeps and on how many copies a reload makes, not on BLAS or the
machine's speed.

Last, for each task, a fresh process of its own runs the same model,
corpus and preset untraced: one warm-up epoch, then 3 more between two
readings of its own minor page faults (`ru_minflt`), and the script prints
the faults per sample of those 3 epochs. One process per task, because a
process that has already trained reuses part of its heap: on a 2-core VM
with one OpenBLAS thread, detect read 428 faults per sample after a
pretrain in the same process against 984 alone. The counts also move with
the BLAS thread count and between sets of runs, so compare two checkouts
only within one set of alternating runs.
"""

from __future__ import annotations

import os
import resource
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from faceau.model import load_weights, preset, save_weights  # noqa: E402
from faceau.synth import synth_corpus  # noqa: E402
from faceau.train import (finetune_loop, load_run_state, pretrain_loop,  # noqa: E402
                          save_run_state, start_run, train_preset)

BATCH = 16
FAULT_EPOCHS = 3


def traced_peak_mb(fn, *args):
    """tracemalloc peak, in MB, of the allocations made during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def desk_run(task, epochs):
    """The `desk` model's fresh run of `task`, its batch-16 preset for
    `epochs` epochs, its 16-image corpus and its training loop."""
    model = preset("desk", task=task)
    corpus = synth_corpus(seed=0, count=BATCH, image_size=model.image_size)
    run = start_run(model, train_preset(task, epochs=epochs, warmup_epochs=0,
                                        batch_size=BATCH, seed=0))
    return run, corpus, pretrain_loop if task == "pretrain" else finetune_loop


def peaks(task, work):
    """Lines for `task`: its batch-16 desk step, then each reload."""
    run, corpus, loop = desk_run(task, epochs=1)
    lines = [f"{task}: step {traced_peak_mb(loop, run, corpus):.2f} MB"]
    ckpt, state = os.path.join(work, f"{task}.ckpt"), os.path.join(work, f"{task}.state")
    save_weights(run.weights, ckpt)
    save_run_state(state, run)
    for load, path in ((load_weights, ckpt), (load_run_state, state)):
        mb, size = traced_peak_mb(load, path), os.path.getsize(path) / 1e6
        lines.append(f"{task}: {load.__name__} {mb:.2f} MB, "
                     f"{mb / size:.2f}x its {size:.2f} MB file")
    return lines


def faults_per_sample(task):
    """Minor page faults per sample of FAULT_EPOCHS epochs of `task`'s desk
    run, after one warm-up epoch, read in the calling process."""
    run, corpus, loop = desk_run(task, epochs=1 + FAULT_EPOCHS)
    loop(run, corpus, until_epoch=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loop(run, corpus)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / (FAULT_EPOCHS * len(corpus))


def main():
    with tempfile.TemporaryDirectory() as work:
        for task in ("pretrain", "detect"):
            print("\n".join(peaks(task, work)), flush=True)
    for task in ("pretrain", "detect"):
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as fresh:
            faults = fresh.submit(faults_per_sample, task).result()
        print(f"{task}: {faults:.2f} minor faults per sample over {FAULT_EPOCHS} "
              "epochs after a warm-up one, in a fresh process", flush=True)


if __name__ == "__main__":
    main()
