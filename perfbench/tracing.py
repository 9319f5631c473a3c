"""Spans around the public calls into each atcnn module, and the per-layer metrics.

Spans are kept in memory as [name, start_ns, end_ns, parent, count] and
written out when the run ends. They are recorded from the benchmark side
only: the traced run replaces instance methods (layers, model, optimizer)
and the module attributes that atcnn calls by name (`atcnn.layers`'s
`im2col_batch`/`col2im_batch`, `atcnn.audio`'s `synth_dataset`,
`frame_segment` and `load_dataset`, `atcnn.checkpoint`'s save/load) with
timing wrappers. Nothing under `src/` is changed.

Per-layer times are normalised per segment that passed through
`Model.forward_batch` (forward-side spans) or `Model.backward`
(backward-side spans), so a layer's figure does not depend on how many
steps fit in the run. Mult-adds follow the paper's table: extractor rows
count per frame, the dilated rows and the classifier per segment.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from atcnn import audio, checkpoint, layers
from atcnn.layers import (
    BatchNorm,
    Conv1d,
    DepthwiseConv1d,
    DilatedConv2d,
    Flatten,
    Linear,
    PointwiseConv,
    Pool2d,
    ReLU,
)
from atcnn.model import build_model, count_resources
from atcnn.tensor_ops import conv_output_length

CONV_ROWS = tuple(f"extractor.{i}" for i in range(5)) + tuple(f"dilated.{i}" for i in range(5))
GROUPS = ("batchnorm", "relu", "pool", "classifier")
_GROUP_OF = {BatchNorm: "batchnorm", ReLU: "relu", Pool2d: "pool", Linear: "classifier"}
MB = 1024 * 1024


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, count]
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        self._open.append(len(self.spans) - 1)

    def end(self, count=0) -> None:
        span = self.spans[self._open.pop()]
        span[2] = time.perf_counter_ns()
        span[4] = count

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str, count=None):
        """`fn` inside a span; `count(args, result)` gives the span's work count."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end()
                raise
            self.end(count(args, result) if count else 0)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self milliseconds, summed count."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, count), children in zip(self.spans, child_ns):
            s = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "count": 0})
            s["calls"] += 1
            s["total_ms"] += (end - start) / 1e6
            s["self_ms"] += (end - start - children) / 1e6
            s["count"] += count
        return out

    def step_coverage(self) -> float:
        """Share of the time inside "step" spans that layer and optimizer spans cover."""
        names = [s[0] for s in self.spans]
        step_ns = sum(s[2] - s[1] for s in self.spans if s[0] == "step")
        covered = 0
        for name, start, end, parent, _ in self.spans:
            if not name.startswith(("layers.", "optim.")):
                continue
            while parent >= 0 and names[parent] != "step":
                parent = self.spans[parent][3]
            if parent >= 0:
                covered += end - start
        return covered / step_ns


def layer_plan(model) -> list[tuple[str, object, int]]:
    """(group, layer, mult-adds) for every traced layer in call order.

    Walks the built layers' own kernels, strides and dilations, not the
    config, so that `join_check` compares two independent countings. The
    group is a `count_resources` row name for convolutions.
    """
    cfg = model.config
    plan = []
    length, row = cfg.frame_length, 0
    for layer in model.extractor.layers:
        if isinstance(layer, (Conv1d, DepthwiseConv1d)):
            length = conv_output_length(length, layer.kernel, layer.stride)
        if isinstance(layer, Conv1d):
            macs = layer.out_channels * layer.in_channels * layer.kernel * length
        elif isinstance(layer, DepthwiseConv1d):
            macs = layer.channels * layer.kernel * length
        elif isinstance(layer, PointwiseConv):
            macs = layer.out_channels * layer.in_channels * length
        else:
            plan.append((_GROUP_OF[type(layer)], layer, 0))
            continue
        plan.append((f"extractor.{row}", layer, macs))
        row += 1
    h, w, row = cfg.frames_per_segment, cfg.feature_length, 0
    for layer in model.dilated.layers:
        if isinstance(layer, DilatedConv2d):
            h = conv_output_length(h, layer.kernel_h, 1, layer.dilation)
            w = conv_output_length(w, layer.kernel_w)
            macs = layer.out_channels * layer.in_channels * layer.kernel_h * layer.kernel_w * h * w
            plan.append((f"dilated.{row}", layer, macs))
            row += 1
        elif isinstance(layer, Pool2d):
            h, w = h // 2, w // 2
            plan.append(("pool", layer, 0))
        elif not isinstance(layer, Flatten):
            plan.append((_GROUP_OF[type(layer)], layer, 0))
    linear = model.classifier
    plan.append(("classifier", linear, linear.in_features * linear.out_features))
    return plan


def join_check(config) -> tuple[bool, str]:
    """The mult-adds used for GMAC/s equal `count_resources`, row by row and in total."""
    counted = {g: m for g, _, m in layer_plan(build_model(config)) if m}
    report = count_resources(config)
    table = {r.name: r.mult_adds for r in report.rows if r.mult_adds}
    ok = counted == table and sum(counted.values()) == report.total_mult_adds
    return ok, (f"{config.name}: {sum(counted.values())} counted vs "
                f"{report.total_mult_adds} in count_resources")


def _batch(args, result):
    return args[0].shape[0]


def instrument(tracer: Tracer, model, optimizer, allocs: dict[str, list]) -> None:
    """Wrap a model's layers and passes, and an optimizer's step, in spans (instance attributes)."""
    if optimizer is not None:
        optimizer.step = tracer.wrap(optimizer.step, "optim.rmsprop_step")
    if model is None:
        return
    for group, layer, _ in layer_plan(model):
        layer.forward = tracer.wrap(layer.forward, f"layers.{group}.fwd", _batch)
        layer.backward = tracer.wrap(layer.backward, f"layers.{group}.bwd", _batch)
    model.head.forward = tracer.wrap(model.head.forward, "layers.classifier.fwd", _batch)
    model.head.backward = tracer.wrap(model.head.backward, "layers.classifier.bwd",
                                      lambda args, result: result.shape[0])
    batch = [0]

    def forward_count(args, probs):
        batch[0] = probs.shape[0]
        return batch[0]

    model.forward_batch = tracer.wrap(_alloc_peak(model.forward_batch, allocs["forward"]),
                                      "model.forward", forward_count)
    model.backward = tracer.wrap(_alloc_peak(model.backward, allocs["backward"]),
                                 "model.backward", lambda args, result: batch[0])


def _alloc_peak(fn, samples: list):
    """`fn` with the tracemalloc peak it allocates above its entry level appended to `samples`."""

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        samples.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    return measured


def patch_modules(tracer: Tracer):
    """Wrap the module-level functions atcnn calls by name; returns an undo callable."""
    patches = [  # im2col/col2im are patched where atcnn.layers looks them up
        (layers, "im2col_batch", "tensor_ops.im2col_batch", lambda args, cols: cols.nbytes),
        (layers, "col2im_batch", "tensor_ops.col2im_batch", None),
        (audio, "synth_dataset", "audio.synth_dataset", lambda args, segments: len(segments)),
        (audio, "frame_segment", "audio.frame_segment", None),
        (audio, "load_dataset", "audio.load_dataset", lambda args, frames: len(frames)),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint",
         lambda args, result: Path(args[1]).stat().st_size),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    for module, attr, name, count in patches:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))

    def undo():
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return undo


def per_layer_metrics(tracer: Tracer, model, allocs: dict[str, list]) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit), from the run's spans.

    `model` is any model of the run's profile; it supplies the mult-adds per row.
    """
    s = tracer.summary()
    macs = {g: m for g, _, m in layer_plan(model) if g in CONV_ROWS}
    fwd_segments = s["model.forward"]["count"]
    bwd_segments = s["model.backward"]["count"]
    out: dict[str, tuple] = {}
    for row in CONV_ROWS:
        for side, segments, factor in (("fwd", fwd_segments, 1), ("bwd", bwd_segments, 2)):
            span = s[f"layers.{row}.{side}"]
            out[f"layers.{row}.{side}_ms"] = (span["total_ms"] / segments, "ms/segment")
            work = factor * macs[row] * span["count"]
            out[f"layers.{row}.{side}_gmacs"] = (work / (span["total_ms"] * 1e6), "GMAC/s")
    for group in GROUPS:
        out[f"layers.{group}.fwd_ms"] = (s[f"layers.{group}.fwd"]["total_ms"] / fwd_segments,
                                         "ms/segment")
        out[f"layers.{group}.bwd_ms"] = (s[f"layers.{group}.bwd"]["total_ms"] / bwd_segments,
                                         "ms/segment")
    im2col, col2im = s["tensor_ops.im2col_batch"], s["tensor_ops.col2im_batch"]
    out["tensor_ops.im2col_batch.ms"] = (im2col["total_ms"] / fwd_segments, "ms/segment")
    out["tensor_ops.im2col_batch.calls"] = (im2col["calls"] / fwd_segments, "calls/segment")
    out["tensor_ops.im2col_batch.bytes"] = (im2col["count"] / fwd_segments, "bytes/segment")
    out["tensor_ops.col2im_batch.ms"] = (col2im["total_ms"] / bwd_segments, "ms/segment")
    out["tensor_ops.col2im_batch.calls"] = (col2im["calls"] / bwd_segments, "calls/segment")
    out["model.forward_ms"] = (s["model.forward"]["total_ms"] / fwd_segments, "ms/segment")
    out["model.backward_ms"] = (s["model.backward"]["total_ms"] / bwd_segments, "ms/segment")
    out["model.forward_alloc_peak_mb"] = (max(allocs["forward"]) / MB, "MB")
    out["model.backward_alloc_peak_mb"] = (max(allocs["backward"]) / MB, "MB")
    step = s["optim.rmsprop_step"]
    out["optim.rmsprop_step_ms"] = (step["total_ms"] / step["calls"], "ms/step")
    for metric, name, per in (("synth", "audio.synth_dataset", "count"),
                              ("frame", "audio.frame_segment", "calls"),
                              ("load", "audio.load_dataset", "count")):
        out[f"audio.{metric}_ms_per_segment"] = (s[name]["total_ms"] / s[name][per],
                                                 "ms/segment")
    save, load = s["checkpoint.save_checkpoint"], s["checkpoint.load_checkpoint"]
    out["checkpoint.save_ms"] = (save["total_ms"] / save["calls"], "ms")
    out["checkpoint.load_ms"] = (load["total_ms"] / load["calls"], "ms")
    out["checkpoint.bytes"] = (save["count"] / save["calls"], "bytes")
    out["trace.step_coverage"] = (tracer.step_coverage(), "share")
    return out
