"""Network assembly: configuration, layer plan, resource counting, forward.

A model maps one 10 s segment, framed as X [T x N], to a class-probability
vector. `Model` is a `layers.Network` over four named parts, each also an
attribute: `extractor` (per-frame standard conv + two depthwise/pointwise
pairs), `integration` (a segment's T feature vectors stacked into a T x F
matrix), `dilated` (the time-dilated 2-d stack) and `classifier` (linear,
then the softmax head). `forward_batch` reshapes segments to frames
[B*T, 1, N] before the walk; no gradient flows back through that reshape,
so it is forward-only and not a part. Segments meet only in the
classifier's batch and, in train mode, in BatchNorm's batch statistics, so
eval runs every part but the classifier one segment at a time and the
classifier on the batch. The benchmark reads `extractor.layers`,
`dilated.layers`, `classifier` and `head`, and wraps methods on the
instance, so the walk looks them up at call time.

`shape_trace` is the layer plan and the one place that does shape and cost
arithmetic: one walk over the config gives every stage's shapes,
mult-adds and parameter count. `count_resources` sums its entries and
`build_model` reads its channel counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ShapeError
from .layers import (
    BatchNorm,
    Conv1d,
    DepthwiseConv1d,
    DilatedConv2d,
    Flatten,
    Integration,
    Linear,
    Network,
    Pool2d,
    PointwiseConv,
    ReLU,
    Sequential,
)
from .tensor_ops import FLOAT, conv_output_length


@dataclass(frozen=True)
class ExtractorLayerSpec:
    """One extractor stage: 'conv' (standard), 'dw' (depthwise) or 'pw' (pointwise)."""

    kind: str
    kernel: int = 1
    stride: int = 1
    out_channels: int = 0  # conv / pw only; dw keeps its channel count


@dataclass(frozen=True)
class DilatedBlockSpec:
    """One time-dilated 2-d block: conv (+BN+ReLU) and an optional 2x2 pool."""

    kernel_h: int
    kernel_w: int
    dilation: int
    out_channels: int
    pool: Optional[str] = None  # 'max' | 'avg' | None


@dataclass(frozen=True)
class ModelConfig:
    name: str
    sample_rate: int
    frame_length: int  # N, samples per frame
    frames_per_segment: int  # T
    hop: int  # samples between frame starts
    feature_length: int  # F, per-frame feature vector length
    class_count: int  # C
    extractor: tuple[ExtractorLayerSpec, ...]
    dilated: tuple[DilatedBlockSpec, ...]
    learning_rate: float = 1e-3
    rho: float = 0.9
    rms_epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 8

    @property
    def segment_samples(self) -> int:
        return 10 * self.sample_rate


def paper_profile() -> ModelConfig:
    """Full-size architecture: 48 kHz audio, 800 frames of 2176 samples."""
    return ModelConfig(
        name="paper",
        sample_rate=48000,
        frame_length=2176,
        frames_per_segment=800,
        hop=600,
        feature_length=100,
        class_count=3,
        extractor=(
            ExtractorLayerSpec("conv", kernel=204, stride=50, out_channels=64),
            ExtractorLayerSpec("dw", kernel=12, stride=2),
            ExtractorLayerSpec("pw", out_channels=128),
            ExtractorLayerSpec("dw", kernel=15, stride=1),
            ExtractorLayerSpec("pw", out_channels=100),
        ),
        dilated=(
            DilatedBlockSpec(3, 3, 12, 64, pool="max"),
            DilatedBlockSpec(3, 3, 12, 128, pool="max"),
            DilatedBlockSpec(3, 3, 12, 256, pool="avg"),
            DilatedBlockSpec(3, 3, 12, 512, pool="avg"),
            DilatedBlockSpec(3, 3, 12, 512, pool="avg"),
        ),
    )


def desk_profile() -> ModelConfig:
    """Laptop-scale architecture with the same structure at ~1/64 the compute.

    4.8 kHz audio, 100 frames of 272 samples; the dilated stack keeps five
    blocks (dilation 4, channels 16/32/64/64/64) with kernels and pool
    placement chosen so every shape closes, ending in a 3x2 -> 1x1 average
    pool like the full-size stack.
    """
    return ModelConfig(
        name="desk",
        sample_rate=4800,
        frame_length=272,
        frames_per_segment=100,
        hop=480,
        feature_length=25,
        class_count=3,
        extractor=(
            ExtractorLayerSpec("conv", kernel=26, stride=10, out_channels=16),
            ExtractorLayerSpec("dw", kernel=6, stride=2),
            ExtractorLayerSpec("pw", out_channels=32),
            ExtractorLayerSpec("dw", kernel=10, stride=1),
            ExtractorLayerSpec("pw", out_channels=25),
        ),
        dilated=(
            DilatedBlockSpec(3, 3, 4, 16, pool="max"),
            DilatedBlockSpec(3, 3, 4, 32, pool="max"),
            DilatedBlockSpec(3, 3, 4, 64, pool=None),
            DilatedBlockSpec(2, 1, 4, 64, pool=None),
            DilatedBlockSpec(2, 1, 4, 64, pool="avg"),
        ),
    )


PROFILES = {"paper": paper_profile, "desk": desk_profile}


def get_profile(name: str) -> ModelConfig:
    try:
        return PROFILES[name]()
    except KeyError:
        raise ConfigurationError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")


# ---------------------------------------------------------------------------
# Layer plan: shapes and costs


@dataclass(frozen=True)
class TraceEntry:
    """One planned stage: channel-first shapes and cost; `note` is set on violations.

    `mult_adds` counts the stage's multiply-accumulates per input it sees (one
    frame in the extractor, one segment after it); `params` counts its
    weights and biases, not those of the batch norm that follows a conv.
    """

    name: str
    kind: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    mult_adds: int = 0
    params: int = 0
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.note


def _weighted(name: str, kind: str, in_shape: tuple, out_shape: tuple, fan_in: int) -> TraceEntry:
    """A stage whose every output value is a `fan_in`-term dot product plus a bias."""
    c_out, positions = out_shape[0], math.prod(out_shape[1:])
    return TraceEntry(name, kind, in_shape, out_shape,
                      mult_adds=c_out * fan_in * positions, params=c_out * fan_in + c_out)


def shape_trace(config: ModelConfig) -> list[TraceEntry]:
    """The layer plan: shapes, mult-adds and params of every stage in call order.

    Pure arithmetic over the config; a violation becomes the last entry.
    """
    entries: list[TraceEntry] = []

    def fail(name, kind, in_shape, msg):
        entries.append(TraceEntry(name, kind, in_shape, (), note=msg))
        return entries

    channels, length = 1, config.frame_length
    for i, spec in enumerate(config.extractor):
        name = f"extractor.{i}"
        in_shape = (channels, length)
        try:
            if spec.kind == "conv":
                length = conv_output_length(length, spec.kernel, spec.stride)
                fan_in, channels = channels * spec.kernel, spec.out_channels
            elif spec.kind == "dw":
                length = conv_output_length(length, spec.kernel, spec.stride)
                fan_in = spec.kernel
            elif spec.kind == "pw":
                fan_in, channels = channels, spec.out_channels
            else:
                raise ShapeError(f"unknown extractor layer kind {spec.kind!r}")
        except ShapeError as exc:
            return fail(name, spec.kind, in_shape, str(exc))
        entries.append(_weighted(name, spec.kind, in_shape, (channels, length), fan_in))

    if channels * length != config.feature_length:
        return fail("features", "flatten", (channels, length),
                    f"extractor yields {channels * length} features, config declares "
                    f"{config.feature_length}")
    entries.append(TraceEntry("features", "flatten", (channels, length),
                              (config.feature_length,)))

    t, f = config.frames_per_segment, config.feature_length
    entries.append(TraceEntry("integration", "stack", (config.feature_length,), (1, t, f)))

    c, h, w = 1, t, f
    for j, block in enumerate(config.dilated):
        name = f"dilated.{j}"
        in_shape = (c, h, w)
        try:
            h = conv_output_length(h, block.kernel_h, 1, block.dilation)
            w = conv_output_length(w, block.kernel_w)
        except ShapeError as exc:
            return fail(name, "dconv", in_shape, str(exc))
        fan_in, c = c * block.kernel_h * block.kernel_w, block.out_channels
        entries.append(_weighted(name, "dconv", in_shape, (c, h, w), fan_in))
        if block.pool is not None:
            in_shape = (c, h, w)
            if h < 2 or w < 2:
                return fail(f"{name}.pool", block.pool, in_shape,
                            f"pooling needs H >= 2 and W >= 2, got {h}x{w}")
            h, w = h // 2, w // 2
            entries.append(TraceEntry(f"{name}.pool", block.pool, in_shape, (c, h, w)))

    flat = c * h * w
    entries.append(TraceEntry("flatten", "flatten", (c, h, w), (flat,)))
    if config.class_count < 2:
        return fail("classifier", "linear", (flat,), "class count must be >= 2")
    entries.append(_weighted("classifier", "linear", (flat,), (config.class_count,), flat))
    return entries


def _plan(config: ModelConfig) -> list[TraceEntry]:
    """The shape trace of a config whose shapes close; else ConfigurationError."""
    trace = shape_trace(config)
    if not trace[-1].ok:  # a violation ends the trace
        raise ConfigurationError(f"{trace[-1].name}: {trace[-1].note}")
    return trace


def format_trace(entries: list[TraceEntry]) -> str:
    """Human-readable trace; 1-d shapes print length x channels, 2-d print HxWxC."""

    def disp(shape):
        if len(shape) == 2:  # (C, L)
            return f"{shape[1]}x{shape[0]}"
        if len(shape) == 3:  # (C, H, W)
            return f"{shape[1]}x{shape[2]}x{shape[0]}"
        if len(shape) == 1:
            return str(shape[0])
        return "-"

    lines = []
    for e in entries:
        out = disp(e.output_shape) if e.ok else f"INVALID ({e.note})"
        lines.append(f"{e.name:<16} {e.kind:<8} {disp(e.input_shape):>12} -> {out}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Resource accounting


@dataclass(frozen=True)
class ResourceReport:
    """Per-layer multiply-accumulate and parameter counts.

    The rows are the plan's convolution, pooling and classifier entries.
    Row parameter counts include convolution biases and exclude batch-norm
    scale/shift, which are accounted separately in `bn_params` so that
    `total_params` equals the number of trainable scalars in the model.
    """

    rows: tuple[TraceEntry, ...]
    total_mult_adds: int
    conv_params: int
    bn_params: int
    total_params: int
    dws_pointwise_mult_add_share: float
    dws_pointwise_param_share: float


def count_resources(config: ModelConfig) -> ResourceReport:
    rows = tuple(e for e in _plan(config) if e.kind not in ("flatten", "stack"))
    conv_params = sum(r.params for r in rows)
    # every convolution is followed by a batch norm with a scale and shift per channel
    bn_params = sum(2 * r.output_shape[0] for r in rows if r.kind in ("conv", "dw", "pw", "dconv"))

    dws = [r for r in rows if r.kind in ("dw", "pw")]
    pw = [r for r in dws if r.kind == "pw"]
    dws_macs = sum(r.mult_adds for r in dws)
    dws_params = sum(r.params for r in dws)
    mac_share = sum(r.mult_adds for r in pw) / dws_macs if dws_macs else 0.0
    param_share = sum(r.params for r in pw) / dws_params if dws_params else 0.0

    return ResourceReport(
        rows=rows,
        total_mult_adds=sum(r.mult_adds for r in rows),
        conv_params=conv_params,
        bn_params=bn_params,
        total_params=conv_params + bn_params,
        dws_pointwise_mult_add_share=mac_share,
        dws_pointwise_param_share=param_share,
    )


def format_resources(report: ResourceReport) -> str:
    lines = [f"{'layer':<18} {'kind':<8} {'mult_adds':>12} {'params':>10}"]
    for r in report.rows:
        lines.append(f"{r.name:<18} {r.kind:<8} {r.mult_adds:>12} {r.params:>10}")
    lines.append(
        f"totals: mult_adds={report.total_mult_adds} conv_params={report.conv_params} "
        f"bn_params={report.bn_params} total_params={report.total_params}"
    )
    lines.append(
        "pointwise share of DWS mult-adds: "
        f"{100.0 * report.dws_pointwise_mult_add_share:.1f}%"
    )
    lines.append(
        f"pointwise share of DWS params: {100.0 * report.dws_pointwise_param_share:.1f}%"
    )
    return "\n".join(lines)


def complexity_decline_ratio(out_channels: int, kernel_h: int, kernel_w: int) -> float:
    """Cost of a depthwise+pointwise pair relative to one standard convolution."""
    if out_channels < 1 or kernel_h < 1 or kernel_w < 1:
        raise ValueError("out_channels and kernel extents must be >= 1")
    return 1.0 / out_channels + 1.0 / (kernel_h * kernel_w)


# ---------------------------------------------------------------------------
# Model


class Model(Network):
    """Instantiated network: extractor, integration, dilated stack, linear-softmax classifier."""

    def __init__(self, config: ModelConfig, extractor: Sequential, dilated: Sequential,
                 classifier: Linear):
        super().__init__([extractor, Integration(config.frames_per_segment), dilated, classifier],
                         names=("extractor", "integration", "dilated", "classifier"))
        self.config = config
        self.extractor, self.integration, self.dilated, self.classifier = self.stack.layers

    def param_count(self) -> int:
        return sum(v.size for v in self.named_params().values())

    def _segments(self, xs) -> np.ndarray:
        """`xs` as float segments [B, T, N] with B >= 1; else ShapeError."""
        xs = np.asarray(xs, dtype=FLOAT)
        t, n = self.config.frames_per_segment, self.config.frame_length
        if xs.ndim != 3 or xs.shape[1:] != (t, n) or xs.shape[0] < 1:
            raise ShapeError(f"expected segments shaped [B >= 1, {t}, {n}], got {xs.shape}")
        return xs

    def forward_batch(self, xs: np.ndarray, train: bool = False) -> np.ndarray:
        """Segments [B, T, N] -> class probabilities [B, C].

        Train mode runs the whole batch through every part, since BatchNorm
        normalizes with the batch's statistics. Eval mode runs every part but
        the classifier one segment at a time, which bounds its temporaries at
        one segment's size and gives the same bits (every eval trunk layer
        works on each sample on its own); the classifier sees the whole batch.
        """
        xs = self._segments(xs)
        b, t, n = xs.shape
        if train:
            return super().forward_batch(xs.reshape(b * t, 1, n), train=True)
        *trunk, classifier = self.stack.layers
        rows = []
        for segment in xs:
            x = segment.reshape(t, 1, n)
            for part in trunk:
                x = part.forward(x)
            rows.append(x)
        return self.head.forward(classifier.forward(np.concatenate(rows)))

    def backward(self, labels: np.ndarray) -> None:
        """Backpropagate through every part, skipping the unused waveform gradient."""
        super().backward(labels, input_grad=False)

    def forward_segment(self, x: np.ndarray) -> np.ndarray:
        """One segment [T, N] -> eval-mode probability vector [C]."""
        return self.forward_batch(np.asarray(x)[np.newaxis])[0]

    def extract_features(self, x: np.ndarray) -> np.ndarray:
        """One segment [T, N] -> per-frame feature matrix [T, F] (eval mode)."""
        xs = self._segments(np.asarray(x)[np.newaxis])
        t, n = xs.shape[1:]
        feats = self.extractor.forward(xs.reshape(t, 1, n))
        return feats.reshape(t, self.config.feature_length)

    def predict_batch(self, xs: np.ndarray, chunk: int = 16) -> np.ndarray:
        """Eval-mode argmax labels for segments [B, T, N]."""
        xs = self._segments(xs)
        preds = []
        for i in range(0, xs.shape[0], chunk):
            probs = self.forward_batch(xs[i : i + chunk], train=False)
            preds.append(probs.argmax(axis=1))
        return np.concatenate(preds)


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Instantiate the plan's layers; raises ConfigurationError if shapes do not close.

    Initial weights are drawn from one seeded generator in layer order.
    """
    plan = {e.name: e for e in _plan(config)}
    rng = np.random.default_rng(seed)

    ext_layers: list = []
    for i, spec in enumerate(config.extractor):
        e = plan[f"extractor.{i}"]
        c_in, c_out = e.input_shape[0], e.output_shape[0]
        if spec.kind == "conv":
            conv = Conv1d(c_in, c_out, spec.kernel, spec.stride, rng=rng)
        elif spec.kind == "dw":
            conv = DepthwiseConv1d(c_in, spec.kernel, spec.stride, rng=rng)
        else:
            conv = PointwiseConv(c_in, c_out, rng=rng)
        ext_layers += [conv, BatchNorm(c_out), ReLU()]

    dil_layers: list = []
    for j, block in enumerate(config.dilated):
        e = plan[f"dilated.{j}"]
        c_in, c_out = e.input_shape[0], e.output_shape[0]
        dil_layers += [
            DilatedConv2d(c_in, c_out, block.kernel_h, block.kernel_w, block.dilation, rng=rng),
            BatchNorm(c_out),
            ReLU(),
        ]
        if block.pool is not None:
            dil_layers.append(Pool2d(block.pool))
    dil_layers.append(Flatten())

    cls = plan["classifier"]
    classifier = Linear(cls.input_shape[0], cls.output_shape[0], rng=rng)
    return Model(config, Sequential(ext_layers), Sequential(dil_layers), classifier)
