"""Outside-in instrumentation of faceau: nothing in the program is edited.

Each hook replaces a function under the name its caller looks it up by
(`faceau.train.encoder_forward`, `faceau.cli.pretrain_loop`, ...) and puts
the original back on `restore()`.

- `Clock` is always on and cheap: loop entry (end of set-up), one timestamp
  per optimizer step, and a byte count at every write call the program
  makes through `open`.
- `Tracer` is the traced run only: a span (name, start, end, parent) around
  every wrapped call, kept in memory, plus the tape size at each tape exit.
"""

from __future__ import annotations

import builtins
import time

import faceau.cli
import faceau.data
import faceau.model
import faceau.ndgrad
import faceau.train

# modules whose `open` calls are the program's writes
WRITER_MODULES = (faceau.cli, faceau.train, faceau.model, faceau.data)

# (owner, attribute, span name): the callers' lookups of each layer
TRACED = (
    (faceau.cli, "read_manifest", "data.read_manifest"),
    (faceau.cli, "load_corpus", "data.load_corpus"),
    (faceau.data, "read_image", "data.read_image"),
    (faceau.cli, "kfold_by_subject", "metrics.kfold"),
    (faceau.cli, "split_by_fold", "metrics.split_by_fold"),
    (faceau.cli, "partial_protocol", "train.partial_protocol"),
    (faceau.cli, "start_run", "train.start_run"),
    (faceau.train, "init_weights", "model.init_weights"),
    (faceau.train, "load_encoder_only", "model.load_checkpoint"),
    (faceau.cli, "pretrain_loop", "train.loop"),
    (faceau.cli, "finetune_loop", "train.loop"),
    (faceau.cli, "save_weights", "model.save_weights"),
    (faceau.cli, "evaluate", "train.evaluate"),
    (faceau.train, "evaluate", "train.evaluate"),
    (faceau.train, "save_run_state", "train.save_run_state"),
    (faceau.train, "adamw_step", "optim.adamw_step"),
    (faceau.train, "patchify", "model.patchify"),
    (faceau.train, "sample_mask", "model.sample_mask"),
    (faceau.train, "encoder_forward", "model.encoder_forward"),
    (faceau.model, "encoder_forward", "model.encoder_forward"),
    (faceau.train, "decoder_forward", "model.decoder_forward"),
    (faceau.train, "classifier_forward", "model.classifier_head"),
    (faceau.train, "loss_pretrain", "losses.loss"),
    (faceau.train, "loss_detection", "losses.loss"),
    (faceau.train, "loss_intensity", "losses.loss"),
    (faceau.train, "patch_normalize", "losses.targets"),
    (faceau.train, "raw_targets", "losses.targets"),
    (faceau.train, "random_crop_resize", "augment.crop"),
    (faceau.train, "randaug_light", "augment.randaug"),
    (faceau.train, "mixup", "augment.mix"),
    (faceau.train, "cutmix", "augment.mix"),
    (faceau.train, "drop_path", "augment.drop_path"),
    (faceau.ndgrad, "backward", "ndgrad.backward"),
    (faceau.train, "f1_scores", "metrics.report"),
    (faceau.train, "intensity_report", "metrics.report"),
)

LOOPS = ((faceau.cli, "pretrain_loop"), (faceau.cli, "finetune_loop"))

ROOT = "cli"


class SetupReached(BaseException):
    """Raised at loop entry to end a set-up-only run of a command. A
    BaseException, so the command's own error handling lets it through."""


class _Patches:
    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_ABSENT = object()


class _CountingFile:
    """File proxy that adds the size of every write to a counter."""

    def __init__(self, fh, clock):
        self._fh = fh
        self._clock = clock

    def write(self, data):
        self._clock.bytes_written += len(data.encode() if isinstance(data, str) else data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


class Clock(_Patches):
    """Set-up end, optimizer-step times, training-sample count and bytes
    written for the command in progress."""

    def __init__(self):
        super().__init__()
        self.stop_at_loop = False
        self.reset()
        for owner, attr in LOOPS:
            self.patch(owner, attr, self._loop(getattr(owner, attr)))
        self.patch(faceau.train, "adamw_step", self._step(faceau.train.adamw_step))
        for module in WRITER_MODULES:
            self.patch(module, "open", self._open)

    def reset(self):
        self.loop_entry = None
        self.loop_cpu = None
        self.samples = 0
        self.step_times = []
        self.bytes_written = 0

    def _loop(self, original):
        def loop(run, corpus, *args, **kwargs):
            self.loop_entry = time.perf_counter()
            self.loop_cpu = time.process_time()
            if self.stop_at_loop:
                raise SetupReached
            self.samples = len(corpus) * (run.config.epochs - run.epoch)
            return original(run, corpus, *args, **kwargs)
        return loop

    def _step(self, original):
        def step(*args, **kwargs):
            self.step_times.append(time.perf_counter())
            return original(*args, **kwargs)
        return step

    def _open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if any(c in mode for c in "wax+"):
            return _CountingFile(fh, self)
        return fh


class Tracer(_Patches):
    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index, items]
        self.tape_nodes = []
        self._stack = []
        for owner, attr, name in TRACED:
            self.patch(owner, attr, self._wrap(getattr(owner, attr), name))
        tape = faceau.ndgrad.Tape
        self.patch(tape, "__exit__", self._tape_exit(tape.__exit__))

    def _open_span(self, name, items=0):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, items]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close_span(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def root(self, fn, *args):
        """Run fn under the root span that stands for one command."""
        rec = self._open_span(ROOT)
        try:
            return fn(*args)
        finally:
            self._close_span(rec)

    def _wrap(self, original, name):
        # evaluate's corpus size is the number of held-out samples it scores
        count = (lambda args: len(args[1])) if name == "train.evaluate" else None

        def traced(*args, **kwargs):
            rec = self._open_span(name, count(args) if count else 0)
            try:
                return original(*args, **kwargs)
            finally:
                self._close_span(rec)
        return traced

    def _tape_exit(self, original):
        def tape_exit(tape, *exc):
            self.tape_nodes.append(len(tape.nodes))
            return original(tape, *exc)
        return tape_exit


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def span_table(spans):
    """Per span: (duration, self time, inside an evaluate span)."""
    child = [0.0] * len(spans)
    in_eval = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        in_eval[i] = name == "train.evaluate" or (parent >= 0 and in_eval[parent])
        if parent >= 0:
            child[parent] += end - start
    return [(end - start, end - start - child[i], in_eval[i])
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans):
    """name -> {calls, self_ms, total_ms, items}. Model spans inside
    held-out evaluation are kept apart as "eval:<name>", so the model's
    per-sample metrics describe the training path."""
    out = {}
    for (name, _, _, _, items), (dur, own, in_eval) in zip(spans, span_table(spans)):
        key = "eval:" + name if in_eval and name.startswith("model.") else name
        agg = out.setdefault(key, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "items": 0})
        agg["calls"] += 1
        agg["self_ms"] += own * 1e3
        agg["total_ms"] += dur * 1e3
        agg["items"] += items
    return out


PER_LAYER = (
    "ndgrad.backward_ms_per_sample", "ndgrad.tape_nodes_per_sample",
    "model.encoder_forward_ms_per_sample", "model.decoder_forward_ms_per_sample",
    "model.classifier_head_ms_per_sample", "model.sample_mask_ms_per_sample",
    "model.patchify_ms_per_sample", "model.save_weights_ms",
    "model.load_checkpoint_ms",
    "losses.loss_ms_per_sample", "losses.targets_ms_per_sample",
    "optim.adamw_ms_per_step",
    "augment.crop_ms_per_sample", "augment.randaug_ms_per_sample",
    "augment.mix_ms_per_step", "augment.drop_path_ms_per_sample",
    "data.read_manifest_ms", "data.load_corpus_ms", "data.images_decoded",
    "metrics.report_ms",
    "train.loop_self_ms_per_step", "train.save_run_state_ms",
    "train.run_state_writes", "train.evaluate_ms_per_sample", "train.steps",
    "cli.self_ms",
)

COUNT_METRICS = ("ndgrad.tape_nodes_per_sample", "data.images_decoded",
                 "train.run_state_writes", "train.steps")


def per_layer_metrics(spans, tape_nodes):
    """The per-layer metrics, each with its unit. A layer the workload never
    enters reads 0."""
    t = layer_totals(spans)

    def get(name, field):
        return t.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    commands = get(ROOT, "calls")
    samples = get("ndgrad.backward", "calls")
    steps = get("optim.adamw_step", "calls")

    def own_per_call(name):
        return ratio(get(name, "self_ms"), get(name, "calls"))

    def total_per_call(name):
        return ratio(get(name, "total_ms"), get(name, "calls"))

    values = {
        "ndgrad.backward_ms_per_sample": ratio(get("ndgrad.backward", "self_ms"), samples),
        "ndgrad.tape_nodes_per_sample": ratio(sum(tape_nodes), len(tape_nodes)),
        "model.encoder_forward_ms_per_sample": own_per_call("model.encoder_forward"),
        "model.decoder_forward_ms_per_sample": own_per_call("model.decoder_forward"),
        "model.classifier_head_ms_per_sample": own_per_call("model.classifier_head"),
        "model.sample_mask_ms_per_sample": own_per_call("model.sample_mask"),
        "model.patchify_ms_per_sample": own_per_call("model.patchify"),
        "model.save_weights_ms": total_per_call("model.save_weights"),
        "model.load_checkpoint_ms": total_per_call("model.load_checkpoint"),
        "losses.loss_ms_per_sample": own_per_call("losses.loss"),
        "losses.targets_ms_per_sample": own_per_call("losses.targets"),
        "optim.adamw_ms_per_step": own_per_call("optim.adamw_step"),
        "augment.crop_ms_per_sample": own_per_call("augment.crop"),
        "augment.randaug_ms_per_sample": own_per_call("augment.randaug"),
        "augment.mix_ms_per_step": ratio(get("augment.mix", "self_ms"), steps),
        "augment.drop_path_ms_per_sample": ratio(get("augment.drop_path", "self_ms"), samples),
        "data.read_manifest_ms": ratio(get("data.read_manifest", "total_ms"), commands),
        "data.load_corpus_ms": ratio(get("data.load_corpus", "total_ms"), commands),
        "data.images_decoded": ratio(get("data.read_image", "calls"), commands),
        "metrics.report_ms": total_per_call("metrics.report"),
        "train.loop_self_ms_per_step": ratio(get("train.loop", "self_ms"), steps),
        "train.save_run_state_ms": total_per_call("train.save_run_state"),
        "train.run_state_writes": ratio(get("train.save_run_state", "calls"), commands),
        "train.evaluate_ms_per_sample": ratio(get("train.evaluate", "total_ms"),
                                              get("train.evaluate", "items")),
        "train.steps": ratio(steps, commands),
        "cli.self_ms": ratio(get(ROOT, "self_ms"), commands),
    }
    return {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}


def unit_of(name):
    return "count" if name in COUNT_METRICS else "ms"


def self_time_rows(spans):
    """(name, calls, self ms) per span name, largest first."""
    t = layer_totals(spans)
    rows = [(name, agg["calls"], agg["self_ms"]) for name, agg in t.items()]
    return sorted(rows, key=lambda r: -r[2])
