"""Peak traced memory of one batch-16 `desk` training step.

    python3 scripts/step_peak.py

For `pretrain` and for `detect`, the script builds the `desk` model, a
16-image `synth` corpus (seed 0) and that task's training preset for one
epoch of one batch of 16 at seed 0, then runs the training loop under
`tracemalloc` and prints the peak of the allocations traced during the step:
sample preparation, every chunk's tape and backward, and the AdamW update.
The corpus and the weights are built before tracing starts. The numbers are
Python and numpy allocations only (not RSS), so they depend on the chunk
size and on what each tape keeps, not on BLAS or the machine's speed.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from faceau.model import preset  # noqa: E402
from faceau.synth import synth_corpus  # noqa: E402
from faceau.train import finetune_loop, pretrain_loop, start_run, train_preset  # noqa: E402

BATCH = 16


def step_peak_mb(task):
    """tracemalloc peak, in MB, of one batch-16 desk step of `task`."""
    model = preset("desk", task=task)
    corpus = synth_corpus(seed=0, count=BATCH, image_size=model.image_size)
    run = start_run(model, train_preset(task, epochs=1, warmup_epochs=0,
                                        batch_size=BATCH, seed=0))
    loop = pretrain_loop if task == "pretrain" else finetune_loop
    tracemalloc.start()
    try:
        loop(run, corpus)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    for task in ("pretrain", "detect"):
        print(f"{task}: {step_peak_mb(task):.2f} MB")


if __name__ == "__main__":
    main()
