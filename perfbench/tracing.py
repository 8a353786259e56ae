"""Outside-in tracing of peftlab for the benchmark's traced run.

Wrappers are installed around the public functions and methods of each
peftlab module, from this file only; no engine code changes. Each wrapped
call records a span (name, start, end, parent span) in memory. A span's
self time is its duration minus the durations of its direct children.
Tensor ops also wrap the backward closure they attach to their output,
so forward and backward time are separated per op kind. The optimizer
and `Tensor.backward` wrappers drive a step clock that splits training
steps into forward, backward and the wait between steps.

`installed()` patches every attribute for the duration of a `with` block
and restores each one afterwards, even when the block raises.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Ops whose forward/backward self time and call count are reported.
REPORTED_OPS = (
    "gelu", "linear", "layer_norm", "softmax", "matmul",
    "transpose", "reshape", "add", "scale", "softmax_cross_entropy",
)
# Every public tape-building op of peftlab.tensor; all are counted per step.
ALL_OPS = REPORTED_OPS + ("sub", "mul", "select", "concat", "repeat0", "tsum", "tmean")

# The tiny preset has two transformer blocks.
BLOCKS = 2


def percentile(values, q: float) -> float:
    """q-th percentile, linear between the closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans) -> dict[str, list]:
    """{name: [self seconds, calls]} from (name, start, end, parent) spans.

    `parent` is the index of the enclosing span in `spans`, or -1.
    """
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for name, start, end, parent in spans:
        dur = end - start
        rec = out[name]
        rec[0] += dur
        rec[1] += 1
        if parent >= 0:
            out[spans[parent][0]][0] -= dur
    return dict(out)


def inclusive_times(spans) -> dict[str, float]:
    """{name: summed span duration}; children are not subtracted."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)


class Tracer:
    """In-memory spans around wrapped calls, plus the training-step clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self.forward_images = 0
        self.image_paths: set[str] = set()
        self.block_index: dict[int, int] = {}
        # step clock: a step runs from optimizer.zero_grad to the end of optimizer.step
        self.step_ms: list[float] = []
        self.forward_s = 0.0
        self.backward_s = 0.0
        self.batch_wait_s = 0.0
        self.eval_s = 0.0
        self.forward_ops = 0
        self._step_start: float | None = None
        self._in_forward = False
        self._backward_start = 0.0
        self._last_opt = None
        self._last_step_end = 0.0

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording one span per call.

        `name` is a string or a function of the call's positional args.
        `before(args)` runs ahead of the span; `after(args, out, span)`
        runs once the span is closed.
        """
        spans, stack, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(spans)
            span = [name if isinstance(name, str) else name(args), clock(), 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, out, span)
            return out

        traced.__wrapped__ = fn
        traced.traced_name = name
        return traced

    # -- step clock ----------------------------------------------------

    def step_begin(self, opt) -> None:
        now = self.clock()
        if opt is self._last_opt:
            self.batch_wait_s += now - self._last_step_end
        self._step_start = now
        self._in_forward = True

    def backward_begin(self) -> None:
        if self._step_start is None:
            return
        now = self.clock()
        if self._in_forward:
            self.forward_s += now - self._step_start
            self._in_forward = False
        self._backward_start = now

    def backward_end(self) -> None:
        if self._step_start is not None:
            self.backward_s += self.clock() - self._backward_start

    def step_end(self, opt) -> None:
        if self._step_start is None:
            return
        now = self.clock()
        self.step_ms.append((now - self._step_start) * 1000.0)
        self._step_start = None
        self._in_forward = False
        self._last_opt = opt
        self._last_step_end = now

    @property
    def in_step(self) -> bool:
        return self._step_start is not None

    def count_op(self) -> None:
        if self._in_forward:
            self.forward_ops += 1


class Patcher:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self.saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value, namespaces) -> int:
        """Rebind every module-level name bound to `original`; returns how many."""
        n = 0
        for ns in namespaces:
            for attr, bound in list(vars(ns).items()):
                if bound is original:
                    self.set(ns, attr, value)
                    n += 1
        return n

    def restore(self) -> None:
        while self.saved:
            owner, attr, old = self.saved.pop()
            setattr(owner, attr, old)


def _peftlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "peftlab" or name.startswith("peftlab."))]


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public entry points of every measured peftlab module."""
    from peftlab import checkpoint, data, head, lora, optim, rng, tensor, train, vit

    modules = _peftlab_modules()

    def function(module, attr, name, before=None, after=None):
        original = vars(module)[attr]
        patcher.replace_everywhere(original, tracer.wrap(name, original, before, after), modules)

    def method(cls, attr, name, before=None, after=None):
        patcher.set(cls, attr, tracer.wrap(name, vars(cls)[attr], before, after))

    def op_after(op):
        bwd_name = f"tensor.{op}.bwd"

        def after(args, out, span):
            tracer.count_op()
            fn = out._backward_fn
            # an op built from another traced op (mul by a scalar is scale) keeps the inner closure
            if fn is not None and not hasattr(fn, "traced_name"):
                out._backward_fn = tracer.wrap(bwd_name, fn)

        return after

    for op in ALL_OPS:
        function(tensor, op, f"tensor.{op}.fwd", after=op_after(op))
    method(tensor.Tensor, "backward", "tensor.backward",
           before=lambda args: tracer.backward_begin(),
           after=lambda args, out, span: tracer.backward_end())

    def forward_before(args):
        for i, blk in enumerate(args[0].blocks):
            tracer.block_index[id(blk)] = i

    def forward_after(args, out, span):
        images = args[1]
        tracer.forward_images += images.shape[0] if images.ndim == 4 else 1
        if not tracer.in_step:
            tracer.eval_s += span[2] - span[1]

    method(vit.ViTModel, "forward", "vit.forward", before=forward_before, after=forward_after)
    function(vit, "block_forward",
             lambda args: f"vit.block{tracer.block_index.get(id(args[0]), '?')}.fwd")

    method(lora.LoraPair, "adapted_forward", "lora.adapted_forward")
    method(lora.LoraPair, "merge", "lora.merge")
    function(lora, "inject", "lora.inject")

    method(head.LinearHead, "forward", "head.forward")
    function(head, "top1_accuracy", "head.top1_accuracy")

    method(optim.AdamW, "zero_grad", "optim.zero_grad", before=lambda args: tracer.step_begin(args[0]))
    method(optim.AdamW, "step", "optim.step", after=lambda args, out, span: tracer.step_end(args[0]))

    method(rng.Rng, "permutation", "rng.permutation")
    method(rng.Rng, "sample_without_replacement", "rng.sample")

    function(data, "read_image", "data.read_image",
             after=lambda args, out, span: tracer.image_paths.add(str(args[0])))
    method(data.DatasetManifest, "load_batch", "data.load_batch")
    function(data, "sample_episode", "data.sample_episode")

    function(checkpoint, "load_backbone", "checkpoint.load")
    function(checkpoint, "save_backbone", "checkpoint.save")

    function(train, "run_experiment", "train.run_experiment")
    function(train, "pretrain_backbone", "train.pretrain_backbone")


@contextmanager
def installed(tracer: Tracer):
    """Wrappers in place for the block; every patched attribute restored after."""
    patcher = Patcher()
    try:
        install(tracer, patcher)
        yield patcher
    finally:
        patcher.restore()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    st = self_times(tracer.spans)
    inc = inclusive_times(tracer.spans)

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    m: dict[str, float] = {}
    for op in REPORTED_OPS:
        m[f"tensor.{op}.fwd_s"] = self_s(f"tensor.{op}.fwd")
        m[f"tensor.{op}.bwd_s"] = self_s(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = calls(f"tensor.{op}.fwd")
    steps = len(tracer.step_ms)
    m["tensor.backward.sweep_s"] = self_s("tensor.backward")
    m["tensor.ops_per_step"] = tracer.forward_ops / steps if steps else 0.0
    for i in range(BLOCKS):
        m[f"vit.block{i}.fwd_s"] = inc.get(f"vit.block{i}.fwd", 0.0)
    m["vit.forward.images"] = tracer.forward_images
    m["lora.adapted_forward_s"] = inc.get("lora.adapted_forward", 0.0)
    m["lora.inject_s"] = inc.get("lora.inject", 0.0)
    m["lora.merge_s"] = inc.get("lora.merge", 0.0)
    m["head.forward_s"] = inc.get("head.forward", 0.0)
    m["optim.step_s"] = self_s("optim.step")
    m["optim.step.calls"] = calls("optim.step")
    m["rng.permutation_s"] = self_s("rng.permutation")
    m["rng.permutation.calls"] = calls("rng.permutation")
    m["rng.sample_s"] = self_s("rng.sample")
    m["data.read_image_s"] = self_s("data.read_image")
    m["data.read_image.calls"] = calls("data.read_image")
    distinct = len(tracer.image_paths)
    m["data.decodes_per_image"] = calls("data.read_image") / distinct if distinct else 0.0
    m["checkpoint.load_s"] = inc.get("checkpoint.load", 0.0)
    m["checkpoint.load.calls"] = calls("checkpoint.load")
    m["checkpoint.save_s"] = inc.get("checkpoint.save", 0.0)
    m["train.step_ms_p50"] = percentile(tracer.step_ms, 50) if steps else 0.0
    m["train.step_ms_p99"] = percentile(tracer.step_ms, 99) if steps else 0.0
    m["train.steps"] = steps
    m["train.batch_wait_s"] = tracer.batch_wait_s
    m["train.forward_s"] = tracer.forward_s
    m["train.backward_s"] = tracer.backward_s
    m["train.eval_s"] = tracer.eval_s
    return m


def self_time_table(tracer: Tracer, limit: int = 30) -> list[tuple[str, float, int, float]]:
    """(name, self s, calls, inclusive s) rows, largest self time first."""
    st = self_times(tracer.spans)
    inc = inclusive_times(tracer.spans)
    rows = [(name, s, n, inc[name]) for name, (s, n) in st.items()]
    rows.sort(key=lambda r: -r[1])
    return rows[:limit]
