"""Forward and backward passes for every layer the network uses.

All layers take batched channel-first input: [B, C, L] for the 1-d
extractor layers, [B, C, H, W] for the 2-d stack. `Layer` states the
contract once: parameters and buffers are the attributes named, in
checkpoint order, by the class tuples `param_names` and `buffer_names`;
weights come from one initialiser, `Layer._init_weight`; a train-mode
forward leaves one cache that backward takes with `_take_cache`, so a
second backward without a new train-mode forward raises `StateError`, in
the softmax head (which caches its probabilities) as in every layer.
Eval-mode forwards cache nothing. A layer writes into its input or its
incoming gradient only when the caller hands that array over as owned, and
only `Sequential`'s walk does (the rule is in `Layer`): then `BatchNorm`
centres in place and `ReLU` rectifies and masks in place. A direct call
never writes into its arguments. What train mode caches:
- `Conv1d`, `DilatedConv2d`: the input `x`, not the patch matrix, which is
  up to kernel-size times larger; backward lowers `x` again with
  `im2col_batch`.
- `BatchNorm`: the centred input `xm` and the per-channel statistics, not
  `xhat`, which backward rebuilds as `xm * inv`. A BatchNorm given its conv
  as `source` keeps the batch mean and a reference to that conv's cached
  input instead of `xm`, and backward rebuilds `xm` with the conv's
  `convolve` and forward's subtraction. `model._walk` does so where the conv
  makes RECOMPUTE_RATIO times as many elements as it takes: on both
  profiles, only at `dilated.0`, whose map is 61x (paper) its input.
- `Pool2d`: the input shape and a uint8 winner index per output (None for
  avg). Pooling works on strided views of the four corners of each 2x2
  block.
- `DepthwiseConv1d`: the input shape and a strided window view of the input.
  Backward builds the input gradient a block of samples at a time.
- `Replayed` (`Model`'s extractor): over an input of REPLAY_BYTES or more,
  only a reference to that input; its layers' caches are dropped once its
  forward has run, and backward replays the forward to rebuild them. On the
  paper profile every train step is replayed (one segment's frames take
  13.9 MB); desk's B=8 batch (1.7 MB) keeps its caches.

`Conv1d` and `DilatedConv2d` are one operation with two geometries: both
subclass `Im2colConv`, which lowers a valid convolution to a GEMM over
patch columns (Chellapilla et al. 2006) given its `(kernel, strides,
dilations)`, and keep only a constructor that sets that geometry. The batch
is lowered in chunks of whole `_weight_grad` fold groups whose patch matrix
stays near `LOWERING_BYTES`, so no whole-batch patch matrix is ever held;
each sample still gets the same GEMM calls, so the bits do not depend on
the chunking.

Backward returns the input gradient as a C-contiguous array (the next
layer's reductions sum in memory order) and stores parameter gradients on
the layer (`grad_*` attributes, exposed via `named_grads`). Convolution
weight gradients are summed over the batch as 2-D BLAS GEMMs
(`_weight_grad`). `Im2colConv` and `Sequential` backward take
`input_grad=False`, which skips the input gradient; `Model.backward` uses
it on the first extractor layer, a `Conv1d` whose input is the waveform.

`Network` is a `Sequential` stack that ends in [B, C] logits, plus the
softmax-cross-entropy head; `Model` (named parts) is one, and so is a
plain layer list such as a one-layer gradient check builds. `Integration`
is the reshape between `Model`'s extractor and dilated stack.

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
# `Im2colConv` lowers as many whole fold groups at a time as keep the patch
# matrix near this size (at least one group). A whole-batch patch matrix set
# the paper profile's training peak (158 MB for `dilated.1` at B=2), while
# one lowering per fold group costs an `im2col_batch` call per group, which
# slows the small desk layers; at this bound every desk lowering is one chunk.
LOWERING_BYTES = 16 * 2**20
# A `Replayed` stack (`Model`'s extractor) given a train-mode input of at least this
# many bytes keeps only that input and replays its forward in backward, rather than
# keep its layers' caches through the rest of the pass. Paper's extractor caches
# take about five times its frames (146 MiB at B=2, whose frames take 28 MB), so one
# paper segment (13.9 MB) is replayed. desk's B=8 batch (1.7 MB) is not: its caches
# take 12 MB, and replaying them slowed its step by 17%.
REPLAY_BYTES = 8 * 2**20
# BatchNorm backward makes all its passes over one block of its map, near this
# many bytes, before it moves to the next, rather than rereading the whole map
# from memory on every pass (paper's `dilated.0` map is 78 MB at B=2). Every
# desk-profile map is one block.
BLOCK_BYTES = 4 * 2**20
# `model._walk` has a BatchNorm rebuild its input from its conv in backward,
# rather than keep it, where the conv makes at least this many times as many
# elements as it takes: then the map costs far more memory to keep than the
# conv's input, and little time to make again.
RECOMPUTE_RATIO = 8


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=FLOAT)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _fold(length: int) -> int:
    """Samples of `length` output positions that `_weight_grad` folds into one GEMM."""
    return max(1, GEMM_MIN_COLUMNS // length)


def _chunks(batch: int, rows: int, positions: int) -> list[slice]:
    """Consecutive slices of the batch, each of whole `_fold(positions)` groups: as
    many groups as keep a [n, rows, positions] patch matrix within LOWERING_BYTES,
    and at least one."""
    fold = _fold(positions)
    group_bytes = fold * rows * positions * np.dtype(FLOAT).itemsize
    step = fold * max(1, LOWERING_BYTES // group_bytes)
    return [slice(s, s + step) for s in range(0, batch, step)]


def _weight_grad(grad: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None):
    """Add the sum over the batch of ``grad[b] @ cols[b].T`` to `out` (zeros when None)
    and return it: [B, O, L], [B, J, L] -> [O, J].

    Every product is a plain 2-D GEMM, so BLAS reads `cols` transposed in
    place. A sample with L >= GEMM_MIN_COLUMNS is one GEMM on views and
    copies nothing; shorter samples are folded k = `_fold(L)` at a time into
    one GEMM over copied [O, k*L] and [J, k*L] chunks. The summation order is
    fixed by the shapes alone, so results repeat bitwise, and a batch passed
    in consecutive slices of whole fold groups, each added to the same
    `out`, sums in the same order as the whole batch.
    """
    b, o, length = grad.shape
    j = cols.shape[1]
    fold = _fold(length)
    if out is None:
        out = np.zeros((o, j), dtype=FLOAT)
    for s in range(0, b, fold):
        g = grad[s : s + fold].transpose(1, 0, 2).reshape(o, -1)
        c = cols[s : s + fold].transpose(1, 0, 2).reshape(j, -1)
        out += g @ c.T
    return out


class Layer:
    """Base of every layer and the head; the module docstring states the contract.

    Ownership: ``forward(x, train, owned)`` and ``backward(grad, owned)`` may
    overwrite `x` or `grad` only when `owned` is true, which says that nobody
    else reads that array again; a direct call leaves it false. No layer
    keeps a reference to what it returns, so `Sequential`'s walk owns every
    array a layer returns that shares no memory with the array it was
    handed, and hands it on as owned. It never owns the walk's own input,
    and it owns an output that may share memory with its input (the view
    that `Flatten` returns, or an array written in place) only if it owned
    that input.
    """

    param_names: tuple[str, ...] = ()
    buffer_names: tuple[str, ...] = ()
    _cache = None

    def named_params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.param_names}

    def named_grads(self) -> dict[str, np.ndarray]:
        """The gradient of each parameter, stored by backward as `grad_<name>`."""
        return {name: getattr(self, f"grad_{name}") for name in self.param_names}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.buffer_names}

    def forward(self, x: np.ndarray, train: bool = False, owned: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, owned: bool = False) -> np.ndarray:
        raise NotImplementedError

    def activation_signature(self):
        """Linear-region fingerprint of the last train-mode forward; None without kinks."""
        return None

    @staticmethod
    def _init_weight(rng: np.random.Generator | None, shape, fan_in: int, fan_out: int):
        """A Glorot-uniform draw from `rng`, or zeros when `rng` is None."""
        if rng is None:
            return np.zeros(shape, dtype=FLOAT)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(FLOAT, copy=False)

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

    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel: tuple[int, ...],
                 strides: tuple[int, ...], dilations: tuple[int, ...],
                 rng: np.random.Generator | None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._lowering = (kernel, strides, dilations)
        taps = math.prod(kernel)
        self.weight = self._init_weight(rng, (out_channels, in_channels) + kernel,
                                        in_channels * taps, out_channels * taps)
        self.bias = np.zeros(out_channels, dtype=FLOAT)

    def forward(self, x, train=False, owned=False):
        kernel = self._lowering[0]
        if x.ndim != len(kernel) + 2 or x.shape[1] != self.in_channels:
            raise ShapeError(f"{type(self).__name__} expects {len(kernel) + 2}-d input with "
                             f"{self.in_channels} channels on axis 1, got {x.shape}")
        y = self.convolve(x)
        self._cache = x if train else None
        return y

    def convolve(self, x: np.ndarray) -> np.ndarray:
        """The output for `x`, by the calls `forward` makes; it leaves the cache as it
        is, so a `BatchNorm` that recomputes this layer's output calls it in backward."""
        out = tuple(map(conv_output_length, x.shape[2:], *self._lowering))
        w = self.weight.reshape(self.out_channels, -1)
        y = np.empty((x.shape[0], self.out_channels, math.prod(out)), dtype=FLOAT)
        for part in _chunks(x.shape[0], w.shape[1], y.shape[2]):
            np.matmul(w, im2col_batch(x[part], *self._lowering), out=y[part])
        y += self.bias[:, None]
        return y.reshape((x.shape[0], self.out_channels) + out)

    def backward(self, grad, input_grad=True, owned=False):
        """``input_grad=False`` skips the input gradient and returns None."""
        x = self._take_cache()
        g_mat = grad.reshape(grad.shape[0], self.out_channels, -1)
        w = self.weight.reshape(self.out_channels, -1)
        grad_weight = np.zeros(w.shape, dtype=FLOAT)
        dx = np.empty(x.shape, dtype=FLOAT) if input_grad else None
        for part in _chunks(x.shape[0], w.shape[1], g_mat.shape[2]):
            _weight_grad(g_mat[part], im2col_batch(x[part], *self._lowering), grad_weight)
            if input_grad:
                dx[part] = col2im_batch(np.matmul(w.T, g_mat[part]), dx[part].shape,
                                        *self._lowering)
        self.grad_weight = grad_weight.reshape(self.weight.shape)
        self.grad_bias = g_mat.sum(axis=(0, 2))
        return dx


class Conv1d(Im2colConv):
    """Standard 1-d convolution (cross-correlation) over [B, C, L], valid padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        self.kernel = kernel
        self.stride = stride
        super().__init__(in_channels, out_channels, (kernel,), (stride,), (1,), rng)


class DepthwiseConv1d(Layer):
    """Per-channel 1-d convolution: channel c sees only kernel c."""

    param_names = ("kernels", "bias")

    def __init__(self, channels: int, kernel: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.kernels = self._init_weight(rng, (channels, kernel), kernel, kernel)
        self.bias = np.zeros(channels, dtype=FLOAT)

    def forward(self, x, train=False, owned=False):
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ShapeError(f"DepthwiseConv1d expects [B, {self.channels}, L], got {x.shape}")
        conv_output_length(x.shape[2], self.kernel, self.stride)
        windows = sliding_window_view(x, self.kernel, axis=2)[:, :, :: self.stride, :]
        y = np.einsum("bclk,ck->bcl", windows, self.kernels)
        y += self.bias[None, :, None]
        self._cache = (x.shape, windows) if train else None
        return y

    def backward(self, grad, owned=False):
        x_shape, windows = self._take_cache()
        self.grad_kernels = np.einsum("bclk,bcl->ck", windows, grad)
        self.grad_bias = grad.sum(axis=(0, 2))
        # A block of samples at a time, time-major [L, n, C]: each tap adds whole
        # contiguous [n, C] planes. Every element gets the same products added in the
        # same tap order as when accumulating in [B, C, L], so dx has the same bits.
        # A block's dx takes a quarter of BLOCK_BYTES, so with its gradient and one
        # tap's products (each no larger) it stays within BLOCK_BYTES.
        b, c, l_in = x_shape
        l_out = grad.shape[2]
        step = max(1, BLOCK_BYTES // (4 * c * l_in * np.dtype(FLOAT).itemsize))  # samples
        size = min(step, b) * c
        d_buf, g_buf, term_buf = (np.empty(size * length, dtype=FLOAT)
                                  for length in (l_in, l_out, l_out))
        dx = np.empty(x_shape, dtype=FLOAT)
        for s in range(0, b, step):
            n = min(step, b - s)
            d = d_buf[: l_in * n * c].reshape(l_in, n, c)
            g = g_buf[: l_out * n * c].reshape(l_out, n, c)
            term = term_buf[: l_out * n * c].reshape(l_out, n, c)
            np.copyto(g, grad[s : s + n].transpose(2, 0, 1))
            d.fill(0.0)
            for t in range(self.kernel):
                np.multiply(g, self.kernels[:, t], out=term)
                d[t : t + self.stride * l_out : self.stride] += term
            dx[s : s + n] = d.transpose(1, 2, 0)
        return dx


class PointwiseConv(Layer):
    """1x1 convolution: per-position linear mix across channels."""

    param_names = ("weights", "bias")

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weights = self._init_weight(rng, (out_channels, in_channels),
                                         in_channels, out_channels)
        self.bias = np.zeros(out_channels, dtype=FLOAT)

    def forward(self, x, train=False, owned=False):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(f"PointwiseConv expects [B, {self.in_channels}, L], got {x.shape}")
        y = np.matmul(self.weights, x)
        y += self.bias[:, None]
        self._cache = x if train else None
        return y

    def backward(self, grad, owned=False):
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

    `source` is None or the `Im2colConv` whose train-mode output this layer
    normalizes. With a source, train mode keeps the batch mean and that
    conv's cached input, not the centred map, and backward rebuilds the map
    with `source.convolve` and forward's subtraction, so it has the kept
    map's bits; the source's weights must not change in between.
    `model._walk` gives a BatchNorm its conv as source where the conv makes
    at least RECOMPUTE_RATIO times as many elements as it takes.

    Backward makes its passes one block of the map at a time: whole
    samples, or one sample's channels, near BLOCK_BYTES (a map within it is
    one block). It sums each (sample, channel) row, then the rows in sample
    order, as numpy sums a whole map, so blocking leaves the bits alone.
    """

    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, epsilon: float = 1e-5, momentum: float = 0.9,
                 source: Im2colConv | None = None):
        self.channels = channels
        self.epsilon = epsilon
        self.momentum = momentum
        self.source = source
        self.gamma = np.ones(channels, dtype=FLOAT)
        self.beta = np.zeros(channels, dtype=FLOAT)
        self.running_mean = np.zeros(channels, dtype=FLOAT)
        self.running_var = np.ones(channels, dtype=FLOAT)

    def _bshape(self, ndim):
        return (1, self.channels) + (1,) * (ndim - 2)

    def forward(self, x, train=False, owned=False):
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ShapeError(f"BatchNorm expects channel axis 1 == {self.channels}, got {x.shape}")
        bshape = self._bshape(x.ndim)
        axes = (0,) + tuple(range(2, x.ndim))
        if train:
            if self.source is not None and self.source._cache is None:
                raise StateError("BatchNorm recomputes its input from a conv that has no "
                                 "train-mode forward to backpropagate")
            m = x.size // self.channels
            mu = x.mean(axis=axes)
            xm = np.subtract(x, mu.reshape(bshape), out=x if owned else None)
            y = xm * xm
            var = y.sum(axis=axes) / m  # the steps np.var takes, so the same bits
            mask = var > VAR_FLOOR
            var_f = np.maximum(var, VAR_FLOOR)
            inv = 1.0 / np.sqrt(var_f + self.epsilon)
            np.multiply(xm, inv.reshape(bshape), out=y)  # xhat
            self.running_mean[:] = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var[:] = self.momentum * self.running_var + (1 - self.momentum) * var
            kept = xm if self.source is None else (self.source._cache, mu)
            self._cache = (kept, inv, mask, m)
        else:
            inv = 1.0 / np.sqrt(np.maximum(self.running_var, VAR_FLOOR) + self.epsilon)
            y = np.subtract(x, self.running_mean.reshape(bshape), out=x if owned else None)
            y *= inv.reshape(bshape)
            self._cache = None
        np.multiply(self.gamma.reshape(bshape), y, out=y)
        return np.add(y, self.beta.reshape(bshape), out=y)

    def backward(self, grad, owned=False):
        kept, inv, mask, m = self._take_cache()
        if self.source is None:
            xm = kept
        else:
            x, mu = kept
            xm = self.source.convolve(x)
            np.subtract(xm, mu.reshape(self._bshape(xm.ndim)), out=xm)
        # numpy sums a C-contiguous map over (0, 2, ...) as the pairwise sum of each
        # (sample, channel) row, added to zero in sample order; with one channel,
        # as one row of the whole map
        b, c = grad.shape[:2]
        n = b if c > 1 else 1
        width = grad.size // (n * c)  # elements per row
        # a one-wide map is worked on as [n, c], whose broadcasts numpy runs far
        # faster than those of [n, c, 1]
        row = (width,) if width > 1 else ()
        bshape = (1, c) + (1,) * len(row)
        xm = xm.reshape(n, c, *row)
        g = grad.reshape(n, c, *row)
        dx = g if owned else np.empty(g.shape, dtype=FLOAT)
        inv_b, gamma_b = inv.reshape(bshape), self.gamma.reshape(bshape)
        # contiguous blocks: whole samples, or one sample's channels if it is larger;
        # a one-wide map is one block, smaller than the row sums a wider one keeps
        step = max(1, BLOCK_BYTES // (width * g.itemsize)) if row else n * c  # rows per block
        if step >= c:
            blocks = [(slice(s, s + step // c), slice(None)) for s in range(0, n, step // c)]
        else:
            blocks = [(slice(s, s + 1), slice(k, k + step)) for s in range(n)
                      for k in range(0, c, step)]
        buf = np.empty(min(step, n * c) * width, dtype=FLOAT)
        if row:
            rows = np.empty((5, n, c), dtype=FLOAT)
            for k in blocks:
                xk, gk, dk = xm[k], g[k], dx[k]
                tmp = buf[: xk.size].reshape(xk.shape)
                np.multiply(xk, inv_b[:, k[1]], out=tmp)  # xhat, as forward made it
                np.multiply(gk, tmp, out=tmp)
                tmp.sum(axis=2, out=rows[0][k])
                gk.sum(axis=2, out=rows[1][k])
                np.multiply(gk, gamma_b[:, k[1]], out=dk)  # dxhat
                np.multiply(dk, xk, out=tmp)
                tmp.sum(axis=2, out=rows[2][k])
                dk.sum(axis=2, out=rows[3][k])
                xk.sum(axis=2, out=rows[4][k])
            # in sample order: numpy loops over the c > 1 channels innermost, so it adds
            # whole samples one after another rather than pairwise
            self.grad_gamma, self.grad_beta, dxhat_xm, dxhat_sum, xm_sum = rows.sum(axis=1)
        else:
            # numpy's pairwise sum of one value is 0.0 plus it, which differs from the
            # value only by the sign of a zero, and the in-order sample sum starts at
            # 0.0 too, which drops that sign either way; so each value goes straight
            # to the sample sum
            tmp = buf.reshape(n, c)
            np.multiply(xm, inv_b, out=tmp)  # xhat, as forward made it
            np.multiply(g, tmp, out=tmp)
            self.grad_gamma, self.grad_beta = tmp.sum(axis=0), g.sum(axis=0)
            np.multiply(g, gamma_b, out=dx)  # dxhat
            np.multiply(dx, xm, out=tmp)
            dxhat_xm, dxhat_sum, xm_sum = tmp.sum(axis=0), dx.sum(axis=0), xm.sum(axis=0)
        # d/dvar through the floor is zero on floored (near-constant) channels
        dvar = dxhat_xm * (-0.5) * inv**3 * mask
        dmu = -dxhat_sum * inv + dvar * (-2.0 / m) * xm_sum
        two_dvar, dmu_m = dvar.reshape(bshape) * 2.0, dmu.reshape(bshape) / m
        # dx = (dxhat * inv + dvar * 2 * xm / m) + dmu / m, in this order, in place
        for k in blocks:
            xk, dk = xm[k], dx[k]
            tmp = buf[: xk.size].reshape(xk.shape)
            np.multiply(two_dvar[:, k[1]], xk, out=tmp)
            np.divide(tmp, m, out=tmp)
            np.multiply(dk, inv_b[:, k[1]], out=dk)
            np.add(dk, tmp, out=dk)
            np.add(dk, dmu_m[:, k[1]], out=dk)
        return dx.reshape(grad.shape)


class ReLU(Layer):
    def forward(self, x, train=False, owned=False):
        self._cache = (x > 0) if train else None
        return np.maximum(x, 0.0, out=x if owned else None)

    def backward(self, grad, owned=False):
        mask = self._take_cache()
        # the derivative at exactly 0 is 0
        return np.multiply(grad, mask, out=grad if owned else None)

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

    def forward(self, x, train=False, owned=False):
        if x.ndim != 4:
            raise ShapeError(f"Pool2d expects [B, C, H, W], got {x.shape}")
        h, w = x.shape[2:]
        if h < 2 or w < 2:
            raise ShapeError(f"Pool2d needs H >= 2 and W >= 2, got {h}x{w}")
        q = _corners(x, h // 2, w // 2)
        idx = None  # the winner index; avg pooling has none
        if self.kind == "max":
            y = np.maximum(q[0], q[1])
            np.maximum(y, q[2], out=y)
            np.maximum(y, q[3], out=y)
            if train:
                # the winner is the first corner equal to the maximum, as argmax picks
                idx = np.full(y.shape, 3, dtype=np.uint8)
                for k in (2, 1, 0):
                    np.copyto(idx, k, where=q[k] == y)
        else:
            # the summation order and divisor of a mean over each block's 4 values
            y = ((q[0] + q[1]) + q[2]) + q[3]
            y /= 4
        self._cache = (x.shape, idx) if train else None
        return y

    def backward(self, grad, owned=False):
        x_shape, idx = self._take_cache()
        h2, w2 = x_shape[2] // 2, x_shape[3] // 2
        dx = np.zeros(x_shape, dtype=FLOAT)
        if idx is not None:
            for k, view in enumerate(_corners(dx, h2, w2)):
                np.copyto(view, grad, where=idx == k)
        else:
            quarter = grad / 4.0
            for view in _corners(dx, h2, w2):
                view += quarter
        return dx

    def activation_signature(self):
        idx = None if self._cache is None else self._cache[1]
        return None if idx is None else hash(idx.tobytes())


class Flatten(Layer):
    def forward(self, x, train=False, owned=False):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad, owned=False):
        return grad.reshape(self._take_cache())


class Integration(Flatten):
    """Stack each segment's T frame features into one map: [B*T, C, L] -> [B, 1, T, C*L]."""

    def __init__(self, frames: int):
        self.frames = frames

    def forward(self, x, train=False, owned=False):
        self._cache = x.shape if train else None
        return x.reshape(-1, 1, self.frames, x.shape[1] * x.shape[2])


class Linear(Layer):
    param_names = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self._init_weight(rng, (out_features, in_features),
                                        in_features, out_features)
        self.bias = np.zeros(out_features, dtype=FLOAT)

    def forward(self, x, train=False, owned=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"Linear expects [B, {self.in_features}], got {x.shape}")
        self._cache = x if train else None
        return x @ self.weight.T + self.bias

    def backward(self, grad, owned=False):
        x = self._take_cache()
        self.grad_weight = grad.T @ x
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight


class SoftmaxCrossEntropy(Layer):
    """Fused softmax + cross-entropy head.

    `forward` turns logits into probabilities; `loss` evaluates the clamped
    mean cross-entropy against integer labels; `backward(labels)` takes the
    train-mode probabilities and returns the exact logit gradient
    (probs - onehot) / B of the mean loss.
    """

    def forward(self, logits: np.ndarray, train: bool = False) -> np.ndarray:
        probs = softmax(logits)
        self._cache = probs if train else None
        return probs

    def loss(self, probs: np.ndarray, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        p_true = probs[np.arange(probs.shape[0]), labels]
        return float(-np.log(np.maximum(p_true, PROB_CLAMP)).mean())

    def backward(self, labels: np.ndarray) -> np.ndarray:
        probs = self._take_cache()
        b = probs.shape[0]
        d = probs.copy()
        d[np.arange(b), np.asarray(labels)] -= 1.0
        return d / b


def _owns(owned: bool, given: np.ndarray, returned: np.ndarray) -> bool:
    """Whether a walk owns what a layer `returned` for `given`: always when it
    shares no memory with `given`, else only if the walk owned `given`."""
    return owned or not np.may_share_memory(given, returned)


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

    def forward(self, x, train=False, owned=False):
        """The layers in order, each handed its input as owned by the rule in `Layer`."""
        for layer in self.layers:
            y = layer.forward(x, train=train, owned=owned)
            x, owned = y, _owns(owned, x, y)
        return x

    def backward(self, grad, input_grad=True, owned=False):
        """Backpropagate through every layer, handing each its gradient as owned by
        the rule in `Layer`; ``input_grad=False`` has the first layer skip its
        input gradient and returns None. Only `Im2colConv` and `Sequential`
        take ``input_grad``, so with ``input_grad=False`` the first layer must
        be one of them. `Model.backward` passes it to the extractor, so the
        layer plan rejects an extractor that does not start with a standard
        'conv' (a `Conv1d`)."""
        for layer in reversed(self.layers[1:]):
            g = layer.backward(grad, owned=owned)
            grad, owned = g, _owns(owned, grad, g)
        first = self.layers[0]
        if input_grad:
            return first.backward(grad, owned=owned)
        return first.backward(grad, input_grad=False, owned=owned)

    def activation_signature(self):
        """Hash of all cached ReLU masks and max-pool argmax indices.

        Two forwards with equal signatures took the same linear region of
        every piecewise-linear unit; a differing signature between two
        nearby points means a kink lies between them.
        """
        return hash(tuple(layer.activation_signature() for layer in self.layers))


class Replayed(Sequential):
    """A `Sequential` that recomputes its caches in backward rather than keep them
    (gradient checkpointing, Chen et al., arXiv 1604.06174).

    A train-mode forward over an input of REPLAY_BYTES or more runs as
    `Sequential`'s, then drops its layers' caches and keeps only a reference to
    that input, which the caller holds anyway. Backward first replays the
    train-mode forward from it, by the same calls with the same ownership, so
    every cache is rebuilt with the bits of the dropped one, and puts the
    running statistics back, so they move once per pass. The input must not
    change before backward, as for any layer that caches its input. A smaller
    input keeps its caches, as in `Sequential`.
    """

    def forward(self, x, train=False, owned=False):
        replay = train and x.nbytes >= REPLAY_BYTES
        # the replay reads x again, so no layer may own it
        y = super().forward(x, train=train, owned=owned and not replay)
        self._cache = x if replay else None
        if replay:
            self._drop_caches()
        return y

    def backward(self, grad, input_grad=True, owned=False):
        if self._cache is not None:
            self._replay(self._take_cache())
        return super().backward(grad, input_grad=input_grad, owned=owned)

    def activation_signature(self):
        """`Sequential`'s; after a replayed forward, from caches rebuilt for it and
        dropped again."""
        if self._cache is None:
            return super().activation_signature()
        self._replay(self._cache)
        signature = super().activation_signature()
        self._drop_caches()
        return signature

    def _replay(self, x):
        """The train-mode forward again, with the running statistics left as they were."""
        saved = [b.copy() for b in self.named_buffers().values()]
        super().forward(x, train=True)
        for b, value in zip(self.named_buffers().values(), saved):
            b[...] = value

    def _drop_caches(self):
        for layer in self.layers:
            layer._cache = None


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
