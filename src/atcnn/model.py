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
classifier on the batch. The extractor is a `layers.Replayed` stack: a
train-mode batch of paper frames keeps no extractor caches through the
dilated stack's passes, and the extractor's backward replays its forward
first. The benchmark reads `extractor.layers`,
`dilated.layers`, `classifier` and `head`, and wraps methods on the
instance, so the walk looks them up at call time.

One walk over the config (`_walk`) is the layer plan and the one place
that does shape and cost arithmetic: it builds each stage's layers where
it works out that stage's shapes, mult-adds and parameter count, and
raises ConfigurationError at the first stage that does not close.
`shape_trace` is its entries (with zero weights), `count_resources` sums
them, and `build_model` is the `Model` over its parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ShapeError
from .layers import (
    RECOMPUTE_RATIO,
    BatchNorm,
    Conv1d,
    DepthwiseConv1d,
    DilatedConv2d,
    Flatten,
    Im2colConv,
    Integration,
    Linear,
    Network,
    Pool2d,
    PointwiseConv,
    ReLU,
    Replayed,
    Sequential,
)
from .tensor_ops import FLOAT, conv_output_length, heap_reuse


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
# Layer plan: shapes, costs and the layers themselves


@dataclass(frozen=True)
class TraceEntry:
    """One planned stage: channel-first shapes and cost.

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


def _weighted(name: str, kind: str, in_shape: tuple, out_shape: tuple, layer) -> TraceEntry:
    """A conv or linear stage: each weight of `layer` takes part in one
    multiply-add per output position."""
    weight, bias = layer.named_params().values()
    positions = math.prod(out_shape[1:])
    return TraceEntry(name, kind, in_shape, out_shape,
                      mult_adds=weight.size * positions, params=weight.size + bias.size)


def _norm(conv, in_shape: tuple, out_shape: tuple) -> BatchNorm:
    """The BatchNorm after `conv`, which rebuilds its input from `conv` in backward
    where `conv` is an `Im2colConv` that makes RECOMPUTE_RATIO times as many
    elements as it takes, or more (on both profiles, only `dilated.0`)."""
    grows = math.prod(out_shape) >= RECOMPUTE_RATIO * math.prod(in_shape)
    source = conv if grows and isinstance(conv, Im2colConv) else None
    return BatchNorm(out_shape[0], source=source)


def _walk(config: ModelConfig, rng: Optional[np.random.Generator]):
    """The layer plan and the layers it plans, from one walk over the config.

    Returns the plan entries in call order and the (extractor, dilated,
    classifier) parts that `Model` takes. Each stage's layers are built
    where its shapes are worked out, so weights are drawn from `rng` in
    layer order; with `rng=None` they are zeros. The first stage that does
    not close raises ConfigurationError("<stage>: <reason>").
    """
    entries: list[TraceEntry] = []
    stage = "extractor.0"
    try:
        if not config.extractor:
            raise ShapeError("the extractor has no layers")
        extractor: list = []
        channels, length = 1, config.frame_length
        for i, spec in enumerate(config.extractor):
            stage, in_shape = f"extractor.{i}", (channels, length)
            if spec.kind == "conv":
                length = conv_output_length(length, spec.kernel, spec.stride)
                conv = Conv1d(channels, spec.out_channels, spec.kernel, spec.stride, rng=rng)
                conv.input_grad = i > 0  # nothing reads the waveform's gradient
                channels = spec.out_channels
            elif spec.kind == "dw":
                length = conv_output_length(length, spec.kernel, spec.stride)
                conv = DepthwiseConv1d(channels, spec.kernel, spec.stride, rng=rng)
            elif spec.kind == "pw":
                conv = PointwiseConv(channels, spec.out_channels, rng=rng)
                channels = spec.out_channels
            else:
                raise ShapeError(f"unknown extractor layer kind {spec.kind!r}")
            entries.append(_weighted(stage, spec.kind, in_shape, (channels, length), conv))
            extractor += [conv, _norm(conv, in_shape, (channels, length)), ReLU()]

        stage, t, f = "features", config.frames_per_segment, config.feature_length
        if channels * length != f:
            raise ShapeError(f"extractor yields {channels * length} features, config declares {f}")
        entries.append(TraceEntry(stage, "flatten", (channels, length), (f,)))
        entries.append(TraceEntry("integration", "stack", (f,), (1, t, f)))

        dilated: list = []
        c, h, w = 1, t, f
        for j, block in enumerate(config.dilated):
            stage, in_shape = f"dilated.{j}", (c, h, w)
            h = conv_output_length(h, block.kernel_h, 1, block.dilation)
            w = conv_output_length(w, block.kernel_w)
            conv = DilatedConv2d(c, block.out_channels, block.kernel_h, block.kernel_w,
                                 block.dilation, rng=rng)
            c = block.out_channels
            entries.append(_weighted(stage, "dconv", in_shape, (c, h, w), conv))
            dilated += [conv, _norm(conv, in_shape, (c, h, w)), ReLU()]
            if block.pool is not None:
                stage, in_shape = f"{stage}.pool", (c, h, w)
                if h < 2 or w < 2:
                    raise ShapeError(f"pooling needs H >= 2 and W >= 2, got {h}x{w}")
                dilated.append(Pool2d(block.pool))
                h, w = h // 2, w // 2
                entries.append(TraceEntry(stage, block.pool, in_shape, (c, h, w)))
        flat = c * h * w
        entries.append(TraceEntry("flatten", "flatten", (c, h, w), (flat,)))
        dilated.append(Flatten())

        stage = "classifier"
        if config.class_count < 2:
            raise ShapeError("class count must be >= 2")
        classifier = Linear(flat, config.class_count, rng=rng)
        entries.append(_weighted(stage, "linear", (flat,), (config.class_count,), classifier))
    except ValueError as exc:  # a shape that does not close, or a value no layer takes
        raise ConfigurationError(f"{stage}: {exc}") from exc
    return entries, (Replayed(extractor), Sequential(dilated), classifier)


def shape_trace(config: ModelConfig) -> list[TraceEntry]:
    """The layer plan: shapes, mult-adds and params of every stage in call order.

    Raises ConfigurationError naming the first stage that does not close.
    """
    return _walk(config, None)[0]


def format_trace(entries: list[TraceEntry]) -> str:
    """Human-readable trace; shapes print channels last (L x C, H x W x C)."""

    def disp(shape):
        return "x".join(map(str, shape[1:] + shape[:1]))

    return "\n".join(f"{e.name:<16} {e.kind:<8} {disp(e.input_shape):>12} -> "
                     f"{disp(e.output_shape)}" for e in entries)


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
    rows = tuple(e for e in shape_trace(config) if e.kind not in ("flatten", "stack"))
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
        with heap_reuse():  # each segment frees and reallocates the same temporaries
            for segment in xs:
                x = segment.reshape(t, 1, n)
                for part in trunk:
                    x = part.forward(x)
                rows.append(x)
        return self.head.forward(classifier.forward(np.concatenate(rows)))

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
    """The planned model, weights drawn from one seeded generator in layer order.

    Raises ConfigurationError naming the first stage that does not close.
    """
    return Model(config, *_walk(config, np.random.default_rng(seed))[1])
