"""Spans, an op profile and exact counters, recorded from outside diffctr.

Nothing under src/ knows it is measured. A Tracer replaces the names
that callers bind (diffctr.losses.encode is the name masked_field_losses
calls, diffctr.train.adam_step the name pretrain calls) with timing
wrappers, and puts the originals back on exit. Two levels:

  clock  the few boundaries the end-to-end metrics need: phase calls,
         one span per training step (adam_step) and per scoring chunk
         (ctr_score). The untraced benchmark run uses this level.
  full   a span at every layer boundary on the measured path, the
         forward and adjoint time of every tape op keyed on Tensor.op,
         and counters derived from the public inputs and outputs of the
         wrapped calls.

Spans are [id, parent id, name, phase, start, end] lists kept in memory;
write_spans puts them on disk once the run is over. The phase (pretrain,
finetune, score) is set by the innermost train.pretrain, train.finetune
or train.evaluate span, so evaluate calls inside finetune count as
scoring.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import diffctr.autodiff
import diffctr.corruption
import diffctr.experiments
import diffctr.losses
import diffctr.model
import diffctr.train

PHASE_OF = {"train.pretrain": "pretrain", "train.finetune": "finetune", "train.evaluate": "score"}

# (module, attribute, span name); the clock level installs only these
CLOCK_SITES = [
    (diffctr.experiments, "two_stage_run", "experiments.two_stage_run"),
    (diffctr.experiments, "pretrain", "train.pretrain"),
    (diffctr.train, "pretrain", "train.pretrain"),
    (diffctr.experiments, "finetune", "train.finetune"),
    (diffctr.train, "evaluate", "train.evaluate"),
    (diffctr.train, "adam_step", "optim.adam_step"),
    (diffctr.train, "ctr_score", "model.ctr_score"),
    (diffctr.train, "report_for", "metrics.report_for"),
]

FULL_SITES = [
    (diffctr.train, "batch_iter", "data.batch_iter"),
    (diffctr.train, "stream", "corruption.stream"),
    (diffctr.losses, "corrupt_batch", "corruption.corrupt_batch"),
    (diffctr.train, "pretrain_loss", "losses.pretrain_loss"),
    (diffctr.losses, "masked_field_losses", "losses.masked_field_losses"),
    (diffctr.train, "sft_loss", "losses.sft_loss"),
    (diffctr.losses, "encode", "model.encode"),
    (diffctr.model, "encode", "model.encode"),
    (diffctr.losses, "label_logit_diff", "model.label_logit_diff"),
    (diffctr.model, "label_logit_diff", "model.label_logit_diff"),
    (diffctr.experiments, "save_checkpoint", "model.checkpoint"),
    (diffctr.experiments, "load_checkpoint", "model.checkpoint"),
    (diffctr.autodiff, "forward_backward", "autodiff.forward_backward"),
    (diffctr.autodiff, "backward", "autodiff.backward"),
]

# Tape ops wrapped for the per-op profile. Composites (softmax,
# cosine_matrix, ...) are left alone: they return a primitive's tensor,
# so wrapping them would count that op twice.
# The profile covers pretraining and scoring, so the fine-tune-only ops
# (softplus, mean) are left out too.
OP_FUNCTIONS = [
    "const", "add", "sub", "mul", "smul", "matmul", "transpose", "relu", "exp",
    "sigmoid", "tsum", "gather_rows", "take_position", "stack", "l2_normalize",
    "logsumexp", "clip_unit",
]

# Tensor.op names the profile reports; "param" leaves are counted only.
PROFILED_OPS = [
    "param", "const", "add", "sub", "mul", "smul", "matmul", "transpose", "relu",
    "exp", "sigmoid", "sum", "gather_rows", "take_position", "stack",
    "l2_normalize", "logsumexp", "clip_unit",
]

# hooks that only keep a reference or take a len(); they run at both levels
CLOCK_HOOKS = {"train.pretrain", "metrics.report_for", "model.ctr_score"}

# After these calls the clock level may run the machine-speed probe.
PROBE_SITES = {"optim.adam_step", "model.ctr_score"}
PROBE_EVERY_S = 0.25

HOOK_SPAN = "trace.hooks"  # time spent computing counters, kept out of layer self time


def tape_op_counts(root) -> Counter:
    """Nodes reachable from root through .parents, by Tensor.op."""
    seen = {id(root)}
    work = [root]
    counts: Counter = Counter()
    while work:
        node = work.pop()
        counts[node.op] += 1
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                work.append(p)
    return counts


def candidate_entries(model, corrupted, cfg) -> tuple[int, int]:
    """(candidate entries, logits computed) of one masked_field_losses call.

    A field earns terms when some row has it masked and loss-eligible.
    Its logits cover the whole vocabulary for every row; its candidate
    set per row is the label's two classes, or the distinct batch tokens
    capped at the positive plus max_negatives others.
    """
    B, P = corrupted.tokens.shape
    eligible = diffctr.corruption.loss_positions(P, cfg.label_mode)
    entries = logits = 0
    for k, f in enumerate(model.schema):
        if not (corrupted.masked[:, k] & eligible[k]).any():
            continue
        logits += B * f.vocab_size
        if k == P - 1:
            entries += B * f.vocab_size
        else:
            distinct = len(set(corrupted.clean_tokens[:, k].tolist()))
            entries += B * min(distinct, 1 + cfg.max_negatives)
    return entries, logits


class Tracer:
    """Spans and counters of one run.

    probe, when given, is a fixed timing kernel run every PROBE_EVERY_S
    at step boundaries; its times go to probe_s and are taken out of
    every span, since now() stops while it runs.
    """

    def __init__(self, full: bool, probe=None):
        self.full = full
        self._probe = probe
        self._paused = 0.0
        self._last_probe = None
        self.probe_s: list[float] = []
        self.probe_at: list[float] = []  # now() when each probe started
        self.spans: list[list] = []
        self._next_id = 1
        self._stack: list[int] = [0]
        self._phase: list[str] = ["none"]
        self._saved: list[tuple] = []
        self.counting = True  # counters stop once the workload's fixed prefix is done
        self.counters: Counter = Counter()
        self.tape_ops: dict[str, Counter] = defaultdict(Counter)
        self.op_fwd: dict[tuple[str, str], float] = defaultdict(float)
        self.op_bwd: dict[tuple[str, str], float] = defaultdict(float)
        self._op_nested: list[float] = []
        # outputs the benchmark checks, captured at clock level
        self.pretrain_reports: list = []
        self.last_scores = None

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        sites = CLOCK_SITES + (FULL_SITES if self.full else [])
        for module, attr, name in sites:
            self._patch(module, attr, self._wrap_call(name, getattr(module, attr)))
        if self.full:
            for attr in OP_FUNCTIONS:
                self._patch(diffctr.autodiff, attr, self._wrap_op(getattr(diffctr.autodiff, attr)))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    # -- spans -------------------------------------------------------------

    def now(self) -> float:
        """perf_counter without the time spent in probes."""
        return perf_counter() - self._paused

    def _maybe_probe(self) -> None:
        started = perf_counter()
        if self._last_probe is not None and started - self._last_probe < PROBE_EVERY_S:
            return
        self.probe_at.append(self.now())
        self.probe_s.append(self._probe())
        self._last_probe = perf_counter()
        self._paused += self._last_probe - started

    def _open(self, name: str) -> list:
        phase = PHASE_OF.get(name, self._phase[-1])
        rec = [self._next_id, self._stack[-1], name, phase, self.now(), 0.0]
        self._next_id += 1
        self.spans.append(rec)
        self._stack.append(rec[0])
        self._phase.append(phase)
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = self.now()
        self._stack.pop()
        self._phase.pop()

    def _wrap_call(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        probe = self._probe is not None and name in PROBE_SITES
        if name == "data.batch_iter":
            return self._wrap_generator(name, fn)

        def wrapped(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if probe:
                self._maybe_probe()
            if hook is not None:
                if name in CLOCK_HOOKS:
                    hook(rec, args, out)
                elif self.full and self.counting:
                    h = self._open(HOOK_SPAN)
                    try:
                        hook(rec, args, out)
                    finally:
                        self._close(h)
            return out

        return wrapped

    def _wrap_generator(self, name: str, fn):
        def wrapped(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item

        return wrapped

    # -- per-op profile ----------------------------------------------------

    def _wrap_op(self, fn):
        nested = self._op_nested

        def wrapped(*args, **kwargs):
            start = perf_counter()
            nested.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                inner = nested.pop()
                took = perf_counter() - start
                if nested:
                    nested[-1] += took
            key = (self._phase[-1], out.op)
            self.op_fwd[key] += took - inner
            if out.vjps:
                out.vjps = tuple(self._timed_vjp(v, key) for v in out.vjps)
            return out

        return wrapped

    def _timed_vjp(self, vjp, key):
        def timed(g):
            start = perf_counter()
            out = vjp(g)
            self.op_bwd[key] += perf_counter() - start
            return out

        return timed

    # -- hooks: outputs the benchmark checks, and exact counters ------------

    def _after_train_pretrain(self, rec, args, out):
        self.pretrain_reports.append(out[1])

    def _after_metrics_report_for(self, rec, args, out):
        self.last_scores = args[0]

    def _after_model_ctr_score(self, rec, args, out):
        self.counters[f"{rec[3]}.scored_rows"] += len(args[1])

    def _after_corruption_corrupt_batch(self, rec, args, out):
        self.counters["masked"] += int(out.masked.sum())
        self.counters["positions"] += out.masked.size

    def _after_losses_masked_field_losses(self, rec, args, out):
        model, corrupted, cfg = args
        entries, logits = candidate_entries(model, corrupted, cfg)
        self.counters["candidate_entries"] += entries
        self.counters["logits_computed"] += logits

    def _after_autodiff_backward(self, rec, args, out):
        self.counters[f"{rec[3]}.backward_calls"] += 1
        self.tape_ops[rec[3]].update(tape_op_counts(args[0]))

    def _after_model_label_logit_diff(self, rec, args, out):
        if rec[3] == "score":
            self.counters["score.tape_calls"] += 1
            self.counters["score.tape_rows"] += len(args[1])
            self.tape_ops["score"].update(tape_op_counts(out))

    def _after_optim_adam_step(self, rec, args, out):
        if rec[3] != "pretrain":
            return
        for name, g in args[1].items():
            if name.startswith(("embed/input/", "embed/target/")):
                self.counters["grad_rows_touched"] += int(g.any(axis=1).sum())
                self.counters["grad_rows"] += g.shape[0]

    # -- summaries ---------------------------------------------------------

    def durations(self) -> dict[tuple[str, str], float]:
        """Total seconds per (span name, phase)."""
        out: dict[tuple[str, str], float] = defaultdict(float)
        for _, _, name, phase, start, end in self.spans:
            out[(name, phase)] += end - start
        return out

    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds per (span name, phase) not covered by child spans."""
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, _, name, phase, start, end in self.spans:
            out[(name, phase)] += end - start - child[sid]
        return out

    def count(self, name: str, phase: str | None = None) -> int:
        return sum(1 for s in self.spans if s[2] == name and (phase is None or s[3] == phase))

    def intervals(self, name: str) -> list[tuple[float, float]]:
        return [(s[4], s[5]) for s in self.spans if s[2] == name]

    def step_times(self, phase: str) -> list[tuple[float, float]]:
        """(start, end) of every training step of a phase.

        A step ends when adam_step returns; the first step of each
        train.pretrain/train.finetune call starts with the call.
        """
        root = {"pretrain": "train.pretrain", "finetune": "train.finetune"}[phase]
        steps = [s for s in self.spans if s[2] == "optim.adam_step" and s[3] == phase]
        out = []
        for _, _, name, _, start, end in self.spans:
            if name != root:
                continue
            last = start
            for s in steps:
                if start <= s[4] <= end:
                    out.append((last, s[5]))
                    last = s[5]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, phase, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "phase": phase,
                                     "start": start, "end": end}) + "\n")
