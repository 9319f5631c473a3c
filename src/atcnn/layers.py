"""Forward and backward passes for every layer the network uses.

All layers take batched channel-first input: [B, C, L] for the 1-d
extractor layers, [B, C, H, W] for the 2-d stack. A layer run in train
mode keeps a cache for its backward pass; eval-mode forwards are pure and
cache nothing. Backward consumes the cache, so a second backward without a
new train-mode forward raises `StateError`. What train mode caches:
- `Conv1d`, `DilatedConv2d`: the input `x`, not the patch matrix, which is
  up to kernel-size times larger; backward lowers `x` again with
  `im2col_batch`.
- `BatchNorm`: the centred input `xm` and the per-channel statistics, not
  `xhat`, which backward rebuilds as `xm * inv`.
- `Pool2d`: the input shape, plus a uint8 winner index per output for max.
  Pooling works on strided views of the four corners of each 2x2 block.

`Conv1d` and `DilatedConv2d` are one operation with two geometries: both
subclass `Im2colConv`, which lowers a valid convolution to one GEMM over
patch columns (Chellapilla et al. 2006) given its `(kernel, strides,
dilations)`, and keep only a constructor that sets that geometry.

Backward returns the input gradient as a C-contiguous array (the next
layer's reductions sum in memory order) and stores parameter gradients on
the layer (`grad_*` attributes, exposed via `named_grads`). Convolution
weight gradients are summed over the batch as 2-D BLAS GEMMs
(`_weight_grad`). `Im2colConv` and `Sequential` backward take
`input_grad=False`, which skips the input gradient; `Model.backward` uses
it on the first extractor layer, a `Conv1d` whose input is the waveform.

`Network` is a `Sequential` stack that ends in [B, C] logits, plus the
softmax-cross-entropy head; `Model` (named parts) and `optim.StackFragment`
(a plain layer list) are both one. `Integration` is the reshape between
`Model`'s extractor and dilated stack.

BatchNorm, Pool2d and the depthwise backward evaluate every reduction and
elementwise expression of the plain formulas in the same order; only memory
layout, temporaries and caches differ, so their results are bitwise those
of the plain code, which the tests keep as the oracle.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, StateError
from .tensor_ops import FLOAT, col2im_batch, conv_output_length, im2col_batch

VAR_FLOOR = 1e-12
PROB_CLAMP = 1e-12
# `_weight_grad` folds samples into one GEMM until its inner extent reaches
# this many columns: below it, the per-call cost of a small GEMM outweighs
# copying the folded samples.
GEMM_MIN_COLUMNS = 512


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(FLOAT)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=FLOAT)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _weight_grad(grad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum over the batch of ``grad[b] @ cols[b].T``: [B, O, L], [B, J, L] -> [O, J].

    Every product is a plain 2-D GEMM, so BLAS reads `cols` transposed in
    place. A sample with L >= GEMM_MIN_COLUMNS is one GEMM on views and
    copies nothing; shorter samples are folded k = GEMM_MIN_COLUMNS // L at
    a time into one GEMM over copied [O, k*L] and [J, k*L] chunks. The
    summation order is fixed by the shapes alone, so results repeat bitwise.
    """
    b, o, length = grad.shape
    j = cols.shape[1]
    fold = max(1, GEMM_MIN_COLUMNS // length)
    out = np.zeros((o, j), dtype=FLOAT)
    for s in range(0, b, fold):
        g = grad[s : s + fold].transpose(1, 0, 2).reshape(o, -1)
        c = cols[s : s + fold].transpose(1, 0, 2).reshape(j, -1)
        out += g @ c.T
    return out


class Layer:
    """Base class; stateless layers only override forward/backward."""

    def named_params(self) -> dict[str, np.ndarray]:
        return {}

    def named_grads(self) -> dict[str, np.ndarray]:
        """The gradient of each parameter, stored by backward as `grad_<name>`."""
        return {name: getattr(self, f"grad_{name}") for name in self.named_params()}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        """Hand the train-mode cache to backward and release it."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise StateError(f"{type(self).__name__}.backward called without a train-mode forward")
        return cache


class Im2colConv(Layer):
    """A valid convolution lowered to one GEMM over `im2col_batch` patch columns.

    `weight` is [O, C, *kernel]; the lowering is the `(kernel, strides,
    dilations)` triple that `im2col_batch` and `col2im_batch` take, one
    entry per spatial axis. Subclasses only set the geometry.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, ...],
                 strides: tuple[int, ...], dilations: tuple[int, ...],
                 rng: np.random.Generator | None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._lowering = (kernel, strides, dilations)
        self.weight = np.zeros((out_channels, in_channels) + kernel, dtype=FLOAT)
        self.bias = np.zeros(out_channels, dtype=FLOAT)
        if rng is not None:
            taps = math.prod(kernel)
            self.weight[:] = glorot_uniform(
                rng, self.weight.shape, in_channels * taps, out_channels * taps)
        self._cache = None

    def named_params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, train=False):
        kernel, strides, dilations = self._lowering
        if x.ndim != len(kernel) + 2 or x.shape[1] != self.in_channels:
            raise ShapeError(f"{type(self).__name__} expects {len(kernel) + 2}-d input with "
                             f"{self.in_channels} channels on axis 1, got {x.shape}")
        out = tuple(map(conv_output_length, x.shape[2:], kernel, strides, dilations))
        cols = im2col_batch(x, kernel, strides, dilations)
        y = np.matmul(self.weight.reshape(self.out_channels, -1), cols) + self.bias[:, None]
        self._cache = x if train else None
        return y.reshape((x.shape[0], self.out_channels) + out)

    def backward(self, grad, input_grad=True):
        """``input_grad=False`` skips the input gradient and returns None."""
        x = self._take_cache()
        g_mat = grad.reshape(grad.shape[0], self.out_channels, -1)
        cols = im2col_batch(x, *self._lowering)
        self.grad_weight = _weight_grad(g_mat, cols).reshape(self.weight.shape)
        del cols  # free the patch matrix before dcols, which is as large, is made
        self.grad_bias = g_mat.sum(axis=(0, 2))
        if not input_grad:
            return None
        dcols = np.matmul(self.weight.reshape(self.out_channels, -1).T, g_mat)
        return col2im_batch(dcols, x.shape, *self._lowering)


class Conv1d(Im2colConv):
    """Standard 1-d convolution (cross-correlation) over [B, C, L], valid padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        self.kernel = kernel
        self.stride = stride
        super().__init__(in_channels, out_channels, (kernel,), (stride,), (1,), rng)


class DepthwiseConv1d(Layer):
    """Per-channel 1-d convolution: channel c sees only kernel c."""

    def __init__(self, channels: int, kernel: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.kernels = np.zeros((channels, kernel), dtype=FLOAT)
        self.bias = np.zeros(channels, dtype=FLOAT)
        if rng is not None:
            self.kernels[:] = glorot_uniform(rng, self.kernels.shape, kernel, kernel)
        self._cache = None

    def named_params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ShapeError(f"DepthwiseConv1d expects [B, {self.channels}, L], got {x.shape}")
        conv_output_length(x.shape[2], self.kernel, self.stride)
        windows = sliding_window_view(x, self.kernel, axis=2)[:, :, :: self.stride, :]
        y = np.einsum("bclk,ck->bcl", windows, self.kernels) + self.bias[None, :, None]
        self._cache = (x.shape, windows) if train else None
        return y

    def backward(self, grad):
        x_shape, windows = self._take_cache()
        self.grad_kernels = np.einsum("bclk,bcl->ck", windows, grad)
        self.grad_bias = grad.sum(axis=(0, 2))
        # Time-major [L, B, C]: each tap adds whole contiguous [B, C] planes. Every
        # element gets the same products added in the same tap order as when
        # accumulating in [B, C, L], so dx has the same bits.
        b, c, l_in = x_shape
        g = np.ascontiguousarray(grad.transpose(2, 0, 1))
        term = np.empty_like(g)
        dx = np.zeros((l_in, b, c), dtype=FLOAT)
        for t in range(self.kernel):
            np.multiply(g, self.kernels[:, t], out=term)
            dx[t : t + self.stride * g.shape[0] : self.stride] += term
        del g, term  # free both before the [B, C, L_in] copy is made
        return np.ascontiguousarray(dx.transpose(1, 2, 0))


class PointwiseConv(Layer):
    """1x1 convolution: per-position linear mix across channels."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weights = np.zeros((out_channels, in_channels), dtype=FLOAT)
        self.bias = np.zeros(out_channels, dtype=FLOAT)
        if rng is not None:
            self.weights[:] = glorot_uniform(rng, self.weights.shape, in_channels, out_channels)
        self._cache = None

    def named_params(self):
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(f"PointwiseConv expects [B, {self.in_channels}, L], got {x.shape}")
        y = np.matmul(self.weights, x) + self.bias[:, None]
        self._cache = x if train else None
        return y

    def backward(self, grad):
        x = self._take_cache()
        self.grad_weights = _weight_grad(grad, x)
        self.grad_bias = grad.sum(axis=(0, 2))
        return np.matmul(self.weights.T, grad)


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics.

    Train mode normalizes by the biased batch mean/variance pooled over all
    non-channel axes (variance floored at 1e-12 before the sqrt) and moves
    the running statistics toward them by `momentum`; eval mode normalizes
    by the running statistics. A train-mode output never reads the running
    statistics, so callers that must leave them alone (`gradient_check`)
    save and restore `named_buffers()`.
    """

    def __init__(self, channels: int, epsilon: float = 1e-5, momentum: float = 0.9):
        self.channels = channels
        self.epsilon = epsilon
        self.momentum = momentum
        self.gamma = np.ones(channels, dtype=FLOAT)
        self.beta = np.zeros(channels, dtype=FLOAT)
        self.running_mean = np.zeros(channels, dtype=FLOAT)
        self.running_var = np.ones(channels, dtype=FLOAT)
        self._cache = None

    def named_params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def named_buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _bshape(self, ndim):
        return (1, self.channels) + (1,) * (ndim - 2)

    def forward(self, x, train=False):
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ShapeError(f"BatchNorm expects channel axis 1 == {self.channels}, got {x.shape}")
        bshape = self._bshape(x.ndim)
        axes = (0,) + tuple(range(2, x.ndim))
        if train:
            m = x.size // self.channels
            mu = x.mean(axis=axes)
            xm = x - mu.reshape(bshape)
            y = xm * xm
            var = y.sum(axis=axes) / m  # the steps np.var takes, so the same bits
            mask = var > VAR_FLOOR
            var_f = np.maximum(var, VAR_FLOOR)
            inv = 1.0 / np.sqrt(var_f + self.epsilon)
            np.multiply(xm, inv.reshape(bshape), out=y)  # xhat
            self.running_mean[:] = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var[:] = self.momentum * self.running_var + (1 - self.momentum) * var
            self._cache = (xm, inv, mask, m, axes)
        else:
            inv = 1.0 / np.sqrt(np.maximum(self.running_var, VAR_FLOOR) + self.epsilon)
            y = (x - self.running_mean.reshape(bshape)) * inv.reshape(bshape)
            self._cache = None
        np.multiply(self.gamma.reshape(bshape), y, out=y)
        return np.add(y, self.beta.reshape(bshape), out=y)

    def backward(self, grad):
        xm, inv, mask, m, axes = self._take_cache()
        bshape = self._bshape(grad.ndim)
        inv_b = inv.reshape(bshape)
        tmp = xm * inv_b  # xhat, as forward made it
        np.multiply(grad, tmp, out=tmp)
        self.grad_gamma = tmp.sum(axis=axes)
        self.grad_beta = grad.sum(axis=axes)
        dxhat = grad * self.gamma.reshape(bshape)
        np.multiply(dxhat, xm, out=tmp)
        # d/dvar through the floor is zero on floored (near-constant) channels
        dvar = tmp.sum(axis=axes) * (-0.5) * inv**3 * mask
        dmu = -(dxhat.sum(axis=axes)) * inv + dvar * (-2.0 / m) * xm.sum(axis=axes)
        # dx = (dxhat * inv + dvar * 2 * xm / m) + dmu / m, in this order, in place
        np.multiply(dvar.reshape(bshape) * 2.0, xm, out=tmp)
        np.divide(tmp, m, out=tmp)
        np.multiply(dxhat, inv_b, out=dxhat)
        np.add(dxhat, tmp, out=dxhat)
        return np.add(dxhat, dmu.reshape(bshape) / m, out=dxhat)


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        self._cache = (x > 0) if train else None
        return np.maximum(x, 0.0)

    def backward(self, grad):
        mask = self._take_cache()
        return grad * mask  # derivative at exactly 0 is 0

    def activation_signature(self):
        return None if self._cache is None else hash(self._cache.tobytes())


class DilatedConv2d(Im2colConv):
    """2-d convolution over [B, C, H, W], dilated along the height (time) axis only, stride 1."""

    def __init__(self, in_channels: int, out_channels: int, kernel_h: int, kernel_w: int,
                 dilation: int, rng: np.random.Generator | None = None):
        self.kernel_h = kernel_h
        self.kernel_w = kernel_w
        self.dilation = dilation
        super().__init__(in_channels, out_channels, (kernel_h, kernel_w), (1, 1),
                         (dilation, 1), rng)


def _corners(x: np.ndarray, h2: int, w2: int) -> list[np.ndarray]:
    """Strided views of the four corners of every 2x2 block, in row-major block order.

    The row and column that an odd H or W leaves over are not in any view.
    """
    return [x[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]


class Pool2d(Layer):
    """2x2 max or average pooling with stride 2; trailing odd row/column dropped."""

    def __init__(self, kind: str):
        if kind not in ("max", "avg"):
            raise ValueError(f"pool kind must be 'max' or 'avg', got {kind!r}")
        self.kind = kind
        self._cache = None

    def forward(self, x, train=False):
        if x.ndim != 4:
            raise ShapeError(f"Pool2d expects [B, C, H, W], got {x.shape}")
        h, w = x.shape[2:]
        if h < 2 or w < 2:
            raise ShapeError(f"Pool2d needs H >= 2 and W >= 2, got {h}x{w}")
        q = _corners(x, h // 2, w // 2)
        if self.kind == "max":
            y = np.maximum(q[0], q[1])
            np.maximum(y, q[2], out=y)
            np.maximum(y, q[3], out=y)
            if train:
                # the winner is the first corner equal to the maximum, as argmax picks
                idx = np.full(y.shape, 3, dtype=np.uint8)
                for k in (2, 1, 0):
                    np.copyto(idx, k, where=q[k] == y)
            self._cache = (x.shape, idx) if train else None
        else:
            # the summation order and divisor of a mean over each block's 4 values
            y = ((q[0] + q[1]) + q[2]) + q[3]
            y /= 4
            self._cache = x.shape if train else None
        return y

    def backward(self, grad):
        cache = self._take_cache()
        x_shape = cache[0] if self.kind == "max" else cache
        h2, w2 = x_shape[2] // 2, x_shape[3] // 2
        dx = np.zeros(x_shape, dtype=FLOAT)
        if self.kind == "max":
            for k, view in enumerate(_corners(dx, h2, w2)):
                np.copyto(view, grad, where=cache[1] == k)
        else:
            quarter = grad / 4.0
            for view in _corners(dx, h2, w2):
                view += quarter
        return dx

    def activation_signature(self):
        if self.kind != "max" or self._cache is None:
            return None
        return hash(self._cache[1].tobytes())


class Flatten(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._take_cache())


class Integration(Flatten):
    """Stack each segment's T frame features into one map: [B*T, C, L] -> [B, 1, T, C*L]."""

    def __init__(self, frames: int):
        super().__init__()
        self.frames = frames

    def forward(self, x, train=False):
        self._cache = x.shape if train else None
        return x.reshape(-1, 1, self.frames, x.shape[1] * x.shape[2])


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = np.zeros((out_features, in_features), dtype=FLOAT)
        self.bias = np.zeros(out_features, dtype=FLOAT)
        if rng is not None:
            self.weight[:] = glorot_uniform(rng, self.weight.shape, in_features, out_features)
        self._cache = None

    def named_params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"Linear expects [B, {self.in_features}], got {x.shape}")
        self._cache = x if train else None
        return x @ self.weight.T + self.bias

    def backward(self, grad):
        x = self._take_cache()
        self.grad_weight = grad.T @ x
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy head.

    `forward` turns logits into probabilities; `loss` evaluates the clamped
    mean cross-entropy against integer labels; `backward(labels)` returns
    the exact logit gradient (probs - onehot) / B of the mean loss.
    """

    def __init__(self):
        self._cache = None

    def forward(self, logits: np.ndarray, train: bool = False) -> np.ndarray:
        probs = softmax(logits)
        self._cache = probs if train else None
        return probs

    def loss(self, probs: np.ndarray, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        p_true = probs[np.arange(probs.shape[0]), labels]
        return float(-np.log(np.maximum(p_true, PROB_CLAMP)).mean())

    def backward(self, labels: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("SoftmaxCrossEntropy.backward called without a train-mode forward")
        probs = self._cache
        b = probs.shape[0]
        d = probs.copy()
        d[np.arange(b), np.asarray(labels)] -= 1.0
        return d / b


class Sequential(Layer):
    """Ordered layer stack; parameter names are '<name>.<param>', names defaulting to indices."""

    def __init__(self, layers: list[Layer], names=None):
        self.layers = layers
        self.names = range(len(layers)) if names is None else names

    def _merged(self, method: str) -> dict[str, np.ndarray]:
        return {f"{name}.{k}": v for name, layer in zip(self.names, self.layers)
                for k, v in getattr(layer, method)().items()}

    def named_params(self):
        return self._merged("named_params")

    def named_grads(self):
        return self._merged("named_grads")

    def named_buffers(self):
        return self._merged("named_buffers")

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad, input_grad=True):
        """Backpropagate through every layer; ``input_grad=False`` has the first
        layer skip its input gradient and returns None. Only `Im2colConv` and
        `Sequential` take ``input_grad``, so with ``input_grad=False`` the
        first layer must be one, as `Model`'s extractor, which starts with a
        `Conv1d`, is."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        first = self.layers[0]
        return first.backward(grad) if input_grad else first.backward(grad, input_grad=False)

    def activation_signature(self):
        """Hash of all cached ReLU masks and max-pool argmax indices.

        Two forwards with equal signatures took the same linear region of
        every piecewise-linear unit; a differing signature between two
        nearby points means a kink lies between them.
        """
        sigs = tuple(
            layer.activation_signature()
            for layer in self.layers
            if hasattr(layer, "activation_signature")
        )
        return hash(sigs)


class Network:
    """A layer stack that maps its input to [B, C] logits, plus the softmax head.

    Methods are looked up when called, so an instance's may be replaced (the
    benchmark's tracer wraps them).
    """

    def __init__(self, layers: list[Layer], names=None):
        self.stack = Sequential(layers, names)
        self.head = SoftmaxCrossEntropy()

    def named_params(self) -> dict[str, np.ndarray]:
        return self.stack.named_params()

    def named_grads(self) -> dict[str, np.ndarray]:
        return self.stack.named_grads()

    def named_buffers(self) -> dict[str, np.ndarray]:
        return self.stack.named_buffers()

    def forward_batch(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Input batch -> class probabilities [B, C]."""
        return self.head.forward(self.stack.forward(x, train=train), train=train)

    def backward(self, labels: np.ndarray, input_grad: bool = True) -> None:
        """Backpropagate the loss of the last train-mode forward against `labels`;
        ``input_grad=False`` skips the gradient with respect to the input."""
        self.stack.backward(self.head.backward(labels), input_grad=input_grad)

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Train-mode loss; like every train-mode forward, it moves the running statistics."""
        return self.head.loss(self.forward_batch(x, train=True), labels)

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray):
        """One train-mode pass; returns (mean loss, probs [B, C], grads dict)."""
        probs = self.forward_batch(x, train=True)
        value = self.head.loss(probs, labels)
        self.backward(labels)
        return value, probs, self.named_grads()

    def activation_signature(self):
        """Linear-region fingerprint of the last train-mode forward."""
        return self.stack.activation_signature()
