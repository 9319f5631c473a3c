"""Test-side oracles: naive loop convolutions and the paper's formulas.

The loop implementations of every convolution variant are the independent
oracles the fast im2col/GEMM paths are checked against. Triple loops, no
vectorization on purpose; only run them on small inputs. `cross_entropy`
(one vector's clamped loss) and `complexity_decline_ratio` (the cost of a
depthwise-separable pair) are the paper's formulas, against which the
softmax head's loss and the counted mult-adds are checked.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLabelError, ShapeError
from .layers import PROB_CLAMP
from .tensor_ops import FLOAT, conv_output_length


def cross_entropy(prediction: np.ndarray, label: np.ndarray) -> float:
    """-sum_c y_c * ln(max(p_c, 1e-12)) for one probability vector / one-hot pair."""
    p = np.asarray(prediction, dtype=FLOAT)
    y = np.asarray(label, dtype=FLOAT)
    if p.shape != y.shape or p.ndim != 1:
        raise ShapeError(f"prediction and label must be equal-length vectors, "
                         f"got {p.shape} and {y.shape}")
    if not (np.all((y == 0.0) | (y == 1.0)) and y.sum() == 1.0):
        raise InvalidLabelError(f"label must be one-hot, got {y}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"prediction must sum to 1 (got {p.sum()!r})")
    return float(-(y * np.log(np.maximum(p, PROB_CLAMP))).sum())


def complexity_decline_ratio(out_channels: int, kernel_h: int, kernel_w: int) -> float:
    """Cost of a depthwise+pointwise pair relative to one standard convolution."""
    if out_channels < 1 or kernel_h < 1 or kernel_w < 1:
        raise ValueError("out_channels and kernel extents must be >= 1")
    return 1.0 / out_channels + 1.0 / (kernel_h * kernel_w)


def conv1d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """x: [C_in, L], w: [C_out, C_in, K], b: [C_out] -> [C_out, L_out]."""
    c_in, length = x.shape
    c_out, _, k = w.shape
    l_out = conv_output_length(length, k, stride)
    y = np.zeros((c_out, l_out), dtype=FLOAT)
    for o in range(c_out):
        for pos in range(l_out):
            acc = 0.0
            for c in range(c_in):
                for t in range(k):
                    acc += x[c, pos * stride + t] * w[o, c, t]
            y[o, pos] = acc + b[o]
    return y


def depthwise_conv1d_direct(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int = 1
) -> np.ndarray:
    """x: [C, L], kernels: [C, K], bias: [C] -> [C, L_out]."""
    c_in, length = x.shape
    _, k = kernels.shape
    l_out = conv_output_length(length, k, stride)
    y = np.zeros((c_in, l_out), dtype=FLOAT)
    for c in range(c_in):
        for pos in range(l_out):
            acc = 0.0
            for t in range(k):
                acc += x[c, pos * stride + t] * kernels[c, t]
            y[c, pos] = acc + bias[c]
    return y


def pointwise_conv_direct(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x: [C_in, L], weights: [C_out, C_in], bias: [C_out] -> [C_out, L]."""
    c_in, length = x.shape
    c_out = weights.shape[0]
    y = np.zeros((c_out, length), dtype=FLOAT)
    for o in range(c_out):
        for pos in range(length):
            acc = 0.0
            for c in range(c_in):
                acc += weights[o, c] * x[c, pos]
            y[o, pos] = acc + bias[o]
    return y


def dilated_conv2d_direct(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation_h: int = 1
) -> np.ndarray:
    """x: [C_in, H, W], w: [C_out, C_in, Kh, Kw], b: [C_out] -> [C_out, H_out, W_out].

    Dilation applies to the height (time) axis only; stride is 1.
    """
    c_in, height, width = x.shape
    c_out, _, kh, kw = w.shape
    h_out = conv_output_length(height, kh, 1, dilation_h)
    w_out = conv_output_length(width, kw, 1, 1)
    y = np.zeros((c_out, h_out, w_out), dtype=FLOAT)
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for th in range(kh):
                        for tw in range(kw):
                            acc += x[c, i + dilation_h * th, j + tw] * w[o, c, th, tw]
                y[o, i, j] = acc + b[o]
    return y
