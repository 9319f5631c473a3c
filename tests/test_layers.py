import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from atcnn import layers as layers_module
from atcnn import model as model_module
from atcnn import reference
from atcnn.errors import ShapeError, StateError
from atcnn.layers import (
    VAR_FLOOR,
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
    SoftmaxCrossEntropy,
    _weight_grad,
    softmax,
)
from atcnn.model import build_model, desk_profile, paper_profile
from atcnn.optim import RmsProp, gradient_check
from atcnn.tensor_ops import FLOAT, col2im_batch, conv_output_length, im2col_batch

RNG = np.random.default_rng(42)


class TestConv1d:
    def test_table_shape_full_size(self):
        # 2176-sample frame, kernel 204, stride 50, 64 output channels -> 64 x 40
        layer = Conv1d(1, 64, 204, 50, rng=np.random.default_rng(0))
        y = layer.forward(np.zeros((1, 1, 2176)))
        assert y.shape == (1, 64, 40)

    def test_all_ones_sums_kernel(self):
        layer = Conv1d(1, 4, 204, 50)
        layer.weight[:] = 1.0
        y = layer.forward(np.ones((1, 1, 2176)))
        assert np.allclose(y, 204.0)

    def test_delta_kernel_is_identity(self):
        layer = Conv1d(1, 1, 3, 1)
        layer.weight[0, 0, 0] = 1.0
        x = RNG.standard_normal((1, 1, 10))
        y = layer.forward(x)
        assert np.array_equal(y[0, 0], x[0, 0, :8])

    def test_kernel_longer_than_input(self):
        layer = Conv1d(1, 1, 8, 1)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 5)))

    def test_matches_direct_oracle(self):
        layer = Conv1d(3, 5, 4, 2)
        layer.weight[:] = RNG.standard_normal(layer.weight.shape)
        layer.bias[:] = RNG.standard_normal(5)
        x = RNG.standard_normal((2, 3, 13))
        y = layer.forward(x)
        for b in range(2):
            ref = reference.conv1d_direct(x[b], layer.weight, layer.bias, 2)
            assert np.max(np.abs(y[b] - ref)) < 1e-12


class TestDepthwiseConv1d:
    def test_hand_convolution(self):
        # [1,2,3,4,5,6] * [1,0,-1], stride 2 -> [1-3, 3-5] = [-2, -2]
        layer = DepthwiseConv1d(1, 3, 2)
        layer.kernels[0] = [1.0, 0.0, -1.0]
        y = layer.forward(np.array([[[1.0, 2, 3, 4, 5, 6]]]))
        assert y[0, 0].tolist() == [-2.0, -2.0]

    def test_table_shape(self):
        # length 40, 64 channels, kernel 12, stride 2 -> length 15
        layer = DepthwiseConv1d(64, 12, 2, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((1, 64, 40))).shape == (1, 64, 15)

    def test_unit_kernel_identity(self):
        layer = DepthwiseConv1d(3, 1, 1)
        layer.kernels[:] = 1.0
        x = RNG.standard_normal((2, 3, 7))
        assert np.array_equal(layer.forward(x), x)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            DepthwiseConv1d(4, 3, 1).forward(np.zeros((1, 3, 10)))

    def test_matches_direct_oracle(self):
        layer = DepthwiseConv1d(3, 4, 3)
        layer.kernels[:] = RNG.standard_normal((3, 4))
        layer.bias[:] = RNG.standard_normal(3)
        x = RNG.standard_normal((1, 3, 14))
        ref = reference.depthwise_conv1d_direct(x[0], layer.kernels, layer.bias, 3)
        assert np.max(np.abs(layer.forward(x)[0] - ref)) < 1e-12


class TestPointwiseConv:
    def test_identity_mixing(self):
        layer = PointwiseConv(3, 3)
        layer.weights[:] = np.eye(3)
        x = RNG.standard_normal((2, 3, 5))
        assert np.array_equal(layer.forward(x), x)

    def test_hand_sum(self):
        # columns [1,3] and [2,4]; Z = [1, 1] -> [4, 6]
        layer = PointwiseConv(2, 1)
        layer.weights[:] = 1.0
        y = layer.forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert y[0, 0].tolist() == [4.0, 6.0]

    def test_table_shape(self):
        layer = PointwiseConv(64, 128, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((1, 64, 15))).shape == (1, 128, 15)

    def test_matches_direct_oracle(self):
        layer = PointwiseConv(4, 6)
        layer.weights[:] = RNG.standard_normal((6, 4))
        layer.bias[:] = RNG.standard_normal(6)
        x = RNG.standard_normal((1, 4, 9))
        ref = reference.pointwise_conv_direct(x[0], layer.weights, layer.bias)
        assert np.max(np.abs(layer.forward(x)[0] - ref)) < 1e-12


class TestBatchNorm:
    def test_zero_gamma_gives_beta(self):
        bn = BatchNorm(2)
        bn.gamma[:] = 0.0
        bn.beta[:] = [3.0, -1.0]
        y = bn.forward(RNG.standard_normal((4, 2, 5)), train=True)
        assert np.allclose(y[:, 0], 3.0) and np.allclose(y[:, 1], -1.0)

    def test_three_value_channel(self):
        # (x - 2) / sqrt(2/3) for x in {1,2,3}
        bn = BatchNorm(1, epsilon=0.0)
        y = bn.forward(np.array([1.0, 2.0, 3.0]).reshape(3, 1), train=True)
        assert np.allclose(y[:, 0], [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12)

    def test_eval_standard_normal_passthrough(self):
        bn = BatchNorm(3)  # running stats are 0/1, epsilon 1e-5
        x = RNG.standard_normal((2, 3, 8))
        y = bn.forward(x, train=False)
        assert np.max(np.abs(y - x) / np.maximum(np.abs(x), 1e-3)) < 1e-4

    def test_train_normalizes_per_channel(self):
        bn = BatchNorm(4, epsilon=0.0)
        y = bn.forward(RNG.standard_normal((6, 4, 11)) * 3.0 + 2.0, train=True)
        assert np.max(np.abs(y.mean(axis=(0, 2)))) < 1e-8
        assert np.max(np.abs(y.var(axis=(0, 2)) - 1.0)) < 1e-8

    def test_running_stats_update(self):
        bn = BatchNorm(1, momentum=0.9)
        x = np.full((2, 1, 2), 5.0)
        x[0, 0, 0] = 7.0
        bn.forward(x, train=True)
        assert np.isclose(bn.running_mean[0], 0.9 * 0.0 + 0.1 * 5.5)
        assert np.isclose(bn.running_var[0], 0.9 * 1.0 + 0.1 * x.var())

    def test_single_element_per_channel_hits_variance_floor(self):
        bn = BatchNorm(2)
        y = bn.forward(np.array([[3.0, -2.0]]).reshape(1, 2, 1), train=True)
        assert np.allclose(y, 0.0)  # (x - x) / sqrt(floor + eps) = 0, then beta


class TestReLU:
    def test_sign_cases(self):
        assert ReLU().forward(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_all_negative(self):
        assert not ReLU().forward(-np.abs(RNG.standard_normal((3, 4)))).any()

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=8))
    def test_idempotent_on_nonnegative(self, values):
        x = np.array(values)
        assert np.array_equal(ReLU().forward(x), x)

    def test_backward_subgradient_convention(self):
        relu = ReLU()
        x = np.array([[-2.0, 0.0, 3.0]])
        relu.forward(x, train=True)
        g = relu.backward(np.ones_like(x))
        assert g.tolist() == [[0.0, 0.0, 1.0]]  # exactly-zero input gets 0


class TestDilatedConv2d:
    def test_full_size_first_block_shape(self):
        layer = DilatedConv2d(1, 64, 3, 3, 12, rng=np.random.default_rng(0))
        y = layer.forward(np.zeros((1, 1, 800, 100)))
        assert y.shape == (1, 64, 776, 98)

    def test_dilation_one_equals_standard_conv(self):
        w = RNG.standard_normal((3, 2, 3, 3))
        b = RNG.standard_normal(3)
        x = RNG.standard_normal((1, 2, 10, 8))
        layer = DilatedConv2d(2, 3, 3, 3, 1)
        layer.weight[:] = w
        layer.bias[:] = b
        ref = reference.dilated_conv2d_direct(x[0], w, b, 1)
        assert np.max(np.abs(layer.forward(x)[0] - ref)) < 1e-12

    def test_effective_span(self):
        # kernel 3 at dilation 12 spans (3-1)*12 + 1 = 25 rows
        layer = DilatedConv2d(1, 1, 3, 1, 12)
        assert layer.forward(np.zeros((1, 1, 25, 1))).shape == (1, 1, 1, 1)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 1, 24, 1)))

    def test_matches_direct_oracle(self):
        layer = DilatedConv2d(2, 4, 3, 2, 3)
        layer.weight[:] = RNG.standard_normal(layer.weight.shape)
        layer.bias[:] = RNG.standard_normal(4)
        x = RNG.standard_normal((1, 2, 12, 6))
        ref = reference.dilated_conv2d_direct(x[0], layer.weight, layer.bias, 3)
        assert np.max(np.abs(layer.forward(x)[0] - ref)) < 1e-12


class TestPool2d:
    def test_max_of_block(self):
        y = Pool2d("max").forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert y.reshape(-1).tolist() == [4.0]

    def test_avg_of_block(self):
        y = Pool2d("avg").forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert y.reshape(-1).tolist() == [2.5]

    def test_odd_row_dropped(self):
        # 3x2 input -> 1x1 (third row ignored)
        x = np.arange(6.0).reshape(1, 1, 3, 2)
        y = Pool2d("max").forward(x)
        assert y.shape == (1, 1, 1, 1) and y.reshape(-1)[0] == 3.0

    def test_too_small(self):
        with pytest.raises(ShapeError):
            Pool2d("max").forward(np.zeros((1, 1, 1, 4)))

    def test_max_backward_tie_routes_first_row_major(self):
        pool = Pool2d("max")
        x = np.full((1, 1, 2, 2), 5.0)
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 1, 1, 1)))
        assert dx.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_avg_backward_spreads_evenly(self):
        pool = Pool2d("avg")
        pool.forward(np.arange(4.0).reshape(1, 1, 2, 2), train=True)
        dx = pool.backward(np.full((1, 1, 1, 1), 8.0))
        assert np.allclose(dx, 2.0)


class TestClassifierSoftmax:
    def test_zero_weights_uniform(self):
        layer = Linear(5, 3)
        head = SoftmaxCrossEntropy()
        probs = head.forward(layer.forward(RNG.standard_normal((2, 5))))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_closed_form_softmax(self):
        probs = softmax(np.array([np.log(2.0), 0.0, 0.0]))
        assert np.allclose(probs, [0.5, 0.25, 0.25], atol=1e-15)

    @given(st.lists(st.floats(-30, 30, allow_nan=False), min_size=2, max_size=6),
           st.floats(-50, 50, allow_nan=False))
    def test_shift_invariance(self, logits, shift):
        z = np.array(logits)
        assert np.max(np.abs(softmax(z) - softmax(z + shift))) < 1e-12

    def test_probabilities_sum_to_one(self):
        probs = softmax(RNG.standard_normal((7, 4)) * 10)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_fused_backward_is_p_minus_y(self):
        head = SoftmaxCrossEntropy()
        probs = head.forward(np.log(np.array([[0.5, 0.25, 0.25]])), train=True)
        head.loss(probs, np.array([0]))
        assert np.allclose(head.backward(np.array([0])), [[-0.5, 0.25, 0.25]], atol=1e-12)

    def test_backward_takes_labels_without_loss_call(self):
        head = SoftmaxCrossEntropy()
        head.forward(np.log(np.array([[0.5, 0.25, 0.25], [0.2, 0.2, 0.6]])), train=True)
        expected = [[0.25, -0.375, 0.125], [0.1, 0.1, -0.2]]  # (p - onehot) / B, B = 2
        assert np.allclose(head.backward(np.array([1, 2])), expected, atol=1e-12)

    def test_loss_is_the_mean_of_the_reference_cross_entropy_over_rows(self):
        # the head's vectorised loss and the paper's one-vector formula agree bitwise,
        # also where the 1e-12 clamp applies (logits up to +-60 underflow a probability)
        rng = np.random.default_rng(44)
        head = SoftmaxCrossEntropy()
        for _ in range(300):
            b, c = rng.integers(1, 9), rng.integers(2, 7)
            probs = head.forward(rng.standard_normal((b, c)) * rng.choice([1.0, 10.0, 60.0]))
            labels = rng.integers(0, c, size=b)
            rows = [reference.cross_entropy(p, np.eye(c)[k]) for p, k in zip(probs, labels)]
            assert head.loss(probs, labels) == np.mean(rows)


class TestBackwardState:
    def test_backward_without_forward_raises(self):
        layer = Conv1d(1, 1, 2, 1)
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 1, 3)))

    def test_eval_forward_leaves_no_cache(self):
        layer = ReLU()
        layer.forward(np.zeros(3), train=False)
        with pytest.raises(StateError):
            layer.backward(np.zeros(3))

    def test_head_takes_its_cache_once(self):
        head = SoftmaxCrossEntropy()
        head.forward(np.log(np.array([[0.5, 0.25, 0.25]])), train=True)
        head.backward(np.array([0]))
        with pytest.raises(StateError):
            head.backward(np.array([0]))


# name -> (layer factory, train-mode input shape); every layer type, B=3
LAYER_CASES = {
    "conv1d": (lambda rng: Conv1d(2, 3, 3, 2, rng=rng), (3, 2, 11)),
    "depthwise": (lambda rng: DepthwiseConv1d(2, 3, 2, rng=rng), (3, 2, 11)),
    "pointwise": (lambda rng: PointwiseConv(2, 3, rng=rng), (3, 2, 7)),
    "batchnorm": (lambda rng: BatchNorm(2), (3, 2, 7)),
    "relu": (lambda rng: ReLU(), (3, 2, 7)),
    "dilated": (lambda rng: DilatedConv2d(2, 3, 3, 2, 2, rng=rng), (3, 2, 9, 4)),
    "max_pool": (lambda rng: Pool2d("max"), (3, 2, 4, 4)),
    "avg_pool": (lambda rng: Pool2d("avg"), (3, 2, 4, 4)),
    "flatten": (lambda rng: Flatten(), (3, 2, 4)),
    "linear": (lambda rng: Linear(5, 3, rng=rng), (3, 5)),
}


def _forward_backward(layer, x, grad_seed=1):
    """One train-mode forward and backward; returns (dx, copies of the grads)."""
    y = layer.forward(x, train=True)
    g = np.random.default_rng(grad_seed).standard_normal(y.shape)
    dx = layer.backward(g)
    return dx, {k: v.copy() for k, v in layer.named_grads().items()}


class TestBatchAccumulation:
    """Weight and bias gradients at B=3 equal the sum of the per-sample (B=1)
    gradients. The cases cover samples folded into one GEMM (short outputs),
    one GEMM per sample (outputs of 512+ positions), and a fold that leaves a
    partial last group (200 positions: 2 + 1)."""

    CASES = {
        "conv1d": (lambda: Conv1d(2, 3, 3, 2), (3, 2, 11)),
        "conv1d_per_sample": (lambda: Conv1d(2, 3, 5, 1), (3, 2, 604)),
        "conv1d_partial_fold": (lambda: Conv1d(1, 2, 4, 1), (3, 1, 203)),
        "pointwise": (lambda: PointwiseConv(4, 5), (3, 4, 9)),
        "dilated": (lambda: DilatedConv2d(2, 3, 3, 2, 2), (3, 2, 9, 4)),
        "dilated_per_sample": (lambda: DilatedConv2d(1, 2, 3, 3, 4), (3, 1, 40, 30)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_gradient_is_sum_of_sample_gradients(self, name):
        factory, shape = self.CASES[name]
        rng = np.random.default_rng(30)
        layer = factory()
        for p in layer.named_params().values():
            p[:] = rng.standard_normal(p.shape)
        x = rng.standard_normal(shape)
        y = layer.forward(x, train=True)
        g = rng.standard_normal(y.shape)
        layer.backward(g)
        batch = {k: v.copy() for k, v in layer.named_grads().items()}
        summed = {k: np.zeros_like(v) for k, v in batch.items()}
        for b in range(shape[0]):
            layer.forward(x[b : b + 1], train=True)
            layer.backward(g[b : b + 1])
            for k, v in layer.named_grads().items():
                summed[k] += v
        for k in batch:
            scale = max(1.0, np.max(np.abs(summed[k])))
            assert np.max(np.abs(batch[k] - summed[k])) <= 1e-12 * scale, k


class TestCacheContract:
    """Train mode caches the input, not the patch matrix; backward consumes it."""

    @pytest.mark.parametrize("layer, x, lowering", [
        (Conv1d(2, 4, 9, 1), np.ones((4, 2, 200)), ((9,), (1,), (1,))),
        (DilatedConv2d(2, 4, 3, 3, 3), np.ones((2, 2, 30, 20)), ((3, 3), (1, 1), (3, 1))),
    ])
    def test_train_forward_retains_less_than_patch_matrix(self, layer, x, lowering):
        patch_bytes = im2col_batch(x, *lowering).nbytes
        assert patch_bytes > 4 * x.nbytes  # 9 taps inflate the input, less the edges
        tracemalloc.start()
        try:
            y = layer.forward(x, train=True)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained - y.nbytes < patch_bytes

    def test_batchnorm_train_forward_keeps_one_full_size_array(self):
        layer = BatchNorm(4)
        x = np.random.default_rng(35).standard_normal((8, 4, 500))
        tracemalloc.start()
        try:
            y = layer.forward(x, train=True)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the centred input xm; backward rebuilds xhat = xm * inv from it
        assert x.nbytes <= retained - y.nbytes < 1.5 * x.nbytes

    def test_owned_batchnorm_backward_allocates_under_a_quarter_of_the_map(self):
        shape = (2, 64, 776, 98)  # paper's dilated.0 map at B=2, 78 MB
        rng = np.random.default_rng(36)
        layer = BatchNorm(64)
        layer.forward(rng.standard_normal(shape), train=True, owned=True)
        grad = rng.standard_normal(shape)
        tracemalloc.start()
        try:
            dx = layer.backward(grad, owned=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dx is written into the owned gradient, and every pass works on one block
        assert np.shares_memory(dx, grad)
        assert peak < grad.nbytes / 4, peak

    @pytest.mark.parametrize("name", sorted(LAYER_CASES))
    def test_repeat_pass_is_bitwise_equal(self, name):
        factory, shape = LAYER_CASES[name]
        layer = factory(np.random.default_rng(31))
        x = np.random.default_rng(32).standard_normal(shape)
        dx1, grads1 = _forward_backward(layer, x)
        dx2, grads2 = _forward_backward(layer, x)
        assert np.array_equal(dx1, dx2)
        assert grads1.keys() == grads2.keys()
        for k in grads1:
            assert np.array_equal(grads1[k], grads2[k]), k

    @pytest.mark.parametrize("name", sorted(LAYER_CASES))
    def test_second_backward_raises(self, name):
        factory, shape = LAYER_CASES[name]
        layer = factory(np.random.default_rng(33))
        x = np.random.default_rng(34).standard_normal(shape)
        y = layer.forward(x, train=True)
        layer.backward(np.ones_like(y))
        with pytest.raises(StateError):
            layer.backward(np.ones_like(y))


    @pytest.mark.parametrize("name", sorted(LAYER_CASES))
    def test_input_gradient_is_c_contiguous(self, name):
        # the next layer's reductions sum in memory order, so a transposed dx
        # would move its bits
        factory, shape = LAYER_CASES[name]
        layer = factory(np.random.default_rng(36))
        dx, _ = _forward_backward(layer, np.random.default_rng(37).standard_normal(shape))
        assert dx.shape == shape and dx.flags.c_contiguous


class TestBatchNormRecompute:
    """A BatchNorm with a `source` conv keeps that conv's input, not its centred map,
    and rebuilds the map in backward with the bits of the kept one."""

    @pytest.mark.parametrize("profile", [paper_profile, desk_profile])
    def test_walk_marks_only_dilated_0(self, profile):
        model = build_model(profile())
        marked = [(part, i) for part in ("extractor", "dilated")
                  for i, layer in enumerate(getattr(model, part).layers)
                  if isinstance(layer, BatchNorm) and layer.source is not None]
        assert marked == [("dilated", 1)]
        assert model.dilated.layers[1].source is model.dilated.layers[0]

    @staticmethod
    def _conv_and_input(seed):
        rng = np.random.default_rng(seed)
        conv = DilatedConv2d(1, 8, 3, 3, 2, rng=rng)
        conv.bias[:] = rng.standard_normal(8)
        return conv, rng.standard_normal((3, 1, 30, 20)), rng

    def test_train_forward_keeps_no_map_sized_array(self):
        conv, x, _ = self._conv_and_input(80)
        layer = BatchNorm(8, source=conv)
        y = layer.forward(conv.forward(x, train=True), train=True, owned=True)
        kept, *stats = layer._cache
        arrays = [a for a in (*kept, *stats) if isinstance(a, np.ndarray)]
        assert any(a is x for a in kept)  # the conv's own cached input, not a copy
        assert max(a.size for a in arrays if a is not x) < y.size // 100

    @pytest.mark.parametrize("owned", [False, True])
    def test_matches_an_unmarked_batchnorm_bitwise(self, owned):
        conv, x, rng = self._conv_and_input(81)
        marked, plain = BatchNorm(8, source=conv), BatchNorm(8)
        for layer in (marked, plain):
            layer.gamma[:] = np.linspace(0.5, 1.5, 8)
            layer.beta[:] = np.linspace(-1.0, 1.0, 8)
        y_conv = conv.forward(x, train=True)
        y_marked = marked.forward(y_conv.copy(), train=True, owned=owned)
        y_plain = plain.forward(y_conv.copy(), train=True, owned=owned)
        assert_bitwise(y_marked, y_plain, "y")
        grad = rng.standard_normal(y_conv.shape)
        # a traced run wraps `forward` on the instance: the rebuild must stay out of it
        conv.forward = lambda *args, **kwargs: pytest.fail("the rebuild called forward")
        assert_bitwise(marked.backward(grad.copy(), owned=owned),
                       plain.backward(grad.copy(), owned=owned), "dx")
        for k in ("grad_gamma", "grad_beta", "running_mean", "running_var"):
            assert_bitwise(getattr(marked, k), getattr(plain, k), k)
        with pytest.raises(StateError):
            marked.backward(grad)
        conv.backward(grad)  # the rebuild left the conv's cache for its own backward

    def test_train_forward_needs_the_conv_cache(self):
        conv, x, _ = self._conv_and_input(82)
        layer = BatchNorm(8, source=conv)
        with pytest.raises(StateError):
            layer.forward(conv.forward(x), train=True)

    def test_train_step_matches_an_unmarked_model(self, monkeypatch):
        marked = TestChunkedLoweringBitwise._step_bits(desk_profile, 8)
        monkeypatch.setattr(model_module, "RECOMPUTE_RATIO", math.inf)
        plain = TestChunkedLoweringBitwise._step_bits(desk_profile, 8)
        assert list(marked) == list(plain)
        for k in marked:
            assert np.array_equal(marked[k], plain[k]), k


class TestReplayedExtractor:
    """Over a large train-mode batch the extractor keeps only its input and replays its
    forward in backward, with the bits of the kept path. The desk profile is pushed
    over REPLAY_BYTES by patching the constant."""

    @staticmethod
    def _batch(profile, b, seed=90):
        cfg = profile()
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((b, cfg.frames_per_segment, cfg.frame_length))
        return cfg, xs, rng.integers(0, cfg.class_count, b)

    @staticmethod
    def _two_steps(monkeypatch, replay_bytes):
        """loss, probs, grads, parameters and running statistics over two RMSProp steps
        of a desk B=8 model, each as its uint64 view."""
        monkeypatch.setattr(layers_module, "REPLAY_BYTES", replay_bytes)
        cfg, xs, labels = TestReplayedExtractor._batch(desk_profile, 8)
        model = build_model(cfg, seed=3)
        optimizer = RmsProp(model.named_params())
        out = {}
        for step in range(2):
            value, probs, grads = model.loss_and_grads(xs, labels)
            out[f"{step} loss"], out[f"{step} probs"] = value, probs
            out.update({f"{step} grad {k}": v.copy() for k, v in grads.items()})
            out.update({f"{step} buffer {k}": v.copy() for k, v in model.named_buffers().items()})
            optimizer.step(grads)
        out.update({f"param {k}": v for k, v in model.named_params().items()})
        return {k: np.asarray(v, dtype=FLOAT).view(np.uint64) for k, v in out.items()}

    def test_two_steps_match_the_kept_path_bitwise(self, monkeypatch):
        replayed = self._two_steps(monkeypatch, 0)
        kept = self._two_steps(monkeypatch, math.inf)
        assert list(replayed) == list(kept)
        for k in kept:
            assert np.array_equal(replayed[k], kept[k]), k

    def test_running_statistics_move_once_per_step(self, monkeypatch):
        monkeypatch.setattr(layers_module, "REPLAY_BYTES", 0)
        cfg, xs, labels = self._batch(desk_profile, 4)
        model = build_model(cfg, seed=3)
        model.forward_batch(xs, train=True)
        moved = {k: v.copy() for k, v in model.named_buffers().items()}
        assert any(not np.array_equal(v, 0.0) for k, v in moved.items() if "running_mean" in k)
        model.backward(labels)  # replays the extractor's forward
        for k, v in model.named_buffers().items():
            assert np.array_equal(v, moved[k]), k

    def test_train_forward_keeps_only_its_input(self, monkeypatch):
        monkeypatch.setattr(layers_module, "REPLAY_BYTES", 0)
        cfg, xs, _ = self._batch(desk_profile, 2)
        model = build_model(cfg, seed=3)
        model.forward_batch(xs, train=True)
        assert all(layer._cache is None for layer in model.extractor.layers)
        kept = model.extractor._cache
        assert kept.base is xs  # a view of the caller's frames, not a copy

    def test_second_backward_raises(self, monkeypatch):
        monkeypatch.setattr(layers_module, "REPLAY_BYTES", 0)
        cfg, xs, _ = self._batch(desk_profile, 2)
        extractor = build_model(cfg, seed=3).extractor
        frames = xs.reshape(-1, 1, cfg.frame_length)
        y = extractor.forward(frames, train=True)
        extractor.backward(np.ones_like(y))
        with pytest.raises(StateError):
            extractor.backward(np.ones_like(y))

    def test_activation_signature_matches_the_kept_path(self, monkeypatch):
        cfg, xs, labels = self._batch(desk_profile, 2)
        signatures, buffers = [], []
        for replay_bytes in (0, math.inf):
            monkeypatch.setattr(layers_module, "REPLAY_BYTES", replay_bytes)
            model = build_model(cfg, seed=3)
            model.loss(xs, labels)
            signatures.append((model.activation_signature(),
                               model.extractor.activation_signature()))
            buffers.append({k: v.copy() for k, v in model.named_buffers().items()})
            model.backward(labels)  # the signature left the replay's input in place
        assert signatures[0] == signatures[1]
        # the extractor's ReLU masks are in it
        nothing = hash((None,) * len(model.extractor.layers))
        assert signatures[0][1] != nothing
        for k in buffers[0]:
            assert np.array_equal(buffers[0][k], buffers[1][k]), k

    def test_gradient_check_matches_the_kept_path(self, monkeypatch):
        cfg, xs, labels = self._batch(desk_profile, 2)
        worst = []
        for replay_bytes in (0, math.inf):
            monkeypatch.setattr(layers_module, "REPLAY_BYTES", replay_bytes)
            model = build_model(cfg, seed=3)
            worst.append(gradient_check(model, xs, labels, max_coords_per_param=1, seed=4))
        assert worst[0] == worst[1]

    @pytest.mark.parametrize("profile, batch, replays", [
        (desk_profile, 8, False),  # 1.7 MB of frames: keeps its caches
        (paper_profile, 1, True),  # 13.9 MB: replays
    ])
    def test_the_frame_bytes_select_the_replay(self, profile, batch, replays):
        cfg, xs, _ = self._batch(profile, batch)
        model = build_model(cfg, seed=3)
        assert isinstance(model.extractor, Replayed)
        model.extractor.forward(xs.reshape(-1, 1, cfg.frame_length), train=True)
        caches = [layer._cache is not None for layer in model.extractor.layers]
        assert caches == [not replays] * len(caches)
        assert (model.extractor._cache is not None) == replays

    def test_replayed_train_forward_retains_under_half_of_the_kept_one(self, monkeypatch):
        cfg, xs, _ = self._batch(desk_profile, 8)
        retained = []
        for replay_bytes in (0, math.inf):
            monkeypatch.setattr(layers_module, "REPLAY_BYTES", replay_bytes)
            model = build_model(cfg, seed=3)
            tracemalloc.start()
            try:
                model.forward_batch(xs, train=True)
                retained.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        assert retained[0] < retained[1] / 2, retained


class TestInputsAreNotWritten:
    """No forward or backward writes into its argument: every one takes read-only arrays."""

    @pytest.mark.parametrize("name", sorted(LAYER_CASES))
    def test_forward_and_backward_take_read_only_arrays(self, name):
        factory, shape = LAYER_CASES[name]
        layer = factory(np.random.default_rng(41))
        x = np.random.default_rng(42).standard_normal(shape)
        x.setflags(write=False)
        layer.forward(x)
        y = layer.forward(x, train=True)
        grad = np.random.default_rng(43).standard_normal(y.shape)
        grad.setflags(write=False)
        layer.backward(grad)


class TestWaveformGradientSkipped:
    """The plan marks `extractor.0`, the conv that reads the waveform, to make no input
    gradient; every other conv makes one."""

    def test_model_backward_skips_one_col2im(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return col2im_batch(*args, **kwargs)

        col2im_batch = layers_module.col2im_batch
        monkeypatch.setattr(layers_module, "col2im_batch", counting)
        for profile in (desk_profile, paper_profile):
            config = profile()
            model = build_model(config, seed=0)
            convs = [layer for seq in (model.extractor, model.dilated) for layer in seq.layers
                     if isinstance(layer, (Im2colConv, DepthwiseConv1d, PointwiseConv))]
            skipped = []  # in backward order, so the waveform conv's last
            for conv in convs:
                def recorded(grad, owned=False, backward=conv.backward):
                    dx = backward(grad, owned=owned)
                    skipped.append(dx is None)
                    return dx

                conv.backward = recorded
            xs = np.random.default_rng(38).standard_normal(
                (1, config.frames_per_segment, config.frame_length))
            calls.clear()
            model.loss_and_grads(xs, np.array([1]))
            assert isinstance(convs[0], Conv1d), config.name
            assert skipped == [False] * (len(convs) - 1) + [True], config.name
            im2col_layers = [conv for conv in convs if isinstance(conv, Im2colConv)]
            assert len(calls) == len(im2col_layers) - 1, config.name  # each conv's but the first
            assert np.abs(convs[0].grad_weight).sum() > 0, config.name

    def test_standalone_conv1d_still_returns_dx(self):
        layer = Conv1d(2, 3, 3, 2, rng=np.random.default_rng(39))
        x = np.random.default_rng(40).standard_normal((2, 2, 11))
        dx, grads = _forward_backward(layer, x)
        assert dx.shape == x.shape
        layer.input_grad = False  # as the plan marks the waveform conv
        y = layer.forward(x, train=True)
        g = np.random.default_rng(1).standard_normal(y.shape)
        assert layer.backward(g) is None
        for k, v in layer.named_grads().items():
            assert np.array_equal(v, grads[k]), k


class TestOwnershipStaysInTheWalk:
    """`Sequential` hands a layer ownership only of arrays its own layers made: never
    the caller's input or gradient, nor a view of them (`Flatten`, `Integration`)."""

    STACKS = {
        "flatten_relu": (lambda: [Flatten(), ReLU()], (3, 2, 4)),
        "integration_batchnorm_relu": (lambda: [Integration(2), BatchNorm(1), ReLU()],
                                       (4, 2, 3)),
        "batchnorm_relu_flatten": (lambda: [BatchNorm(2), ReLU(), Flatten()], (3, 2, 4)),
    }

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_read_only_input_and_gradient_pass_through(self, name):
        factory, shape = self.STACKS[name]
        rng = np.random.default_rng(60)
        x = rng.standard_normal(shape)
        x.setflags(write=False)
        walked, direct = Sequential(factory()), factory()
        y = walked.forward(x, train=True)
        grad = rng.standard_normal(y.shape)
        grad.setflags(write=False)
        dx = walked.backward(grad)
        y_direct = x
        for layer in direct:
            y_direct = layer.forward(y_direct, train=True)
        dx_direct = grad
        for layer in reversed(direct):
            dx_direct = layer.backward(dx_direct)
        assert_bitwise(y, y_direct, "y")
        assert_bitwise(dx, dx_direct, "dx")

    def test_network_takes_read_only_input(self):
        x = np.random.default_rng(61).standard_normal((3, 2, 4))
        x.setflags(write=False)
        net = Network([Flatten(), ReLU()])
        net.forward_batch(x)
        value, probs, _ = net.loss_and_grads(x, np.array([0, 7, 3]))
        assert np.isfinite(value) and probs.shape == (3, 8)

    def test_walk_allocates_an_output_fewer_than_direct_calls(self):
        x = np.random.default_rng(63).standard_normal((4, 2, 20000))
        grad = np.random.default_rng(64).standard_normal((4, 8, 19998))  # one output's size

        def walked(layers):
            stack = Sequential(layers)
            stack.forward(x, train=True)
            return stack.backward(grad)

        def direct(layers):
            y, g = x, grad
            for layer in layers:
                y = layer.forward(y, train=True)
            del y  # as the walk drops its output
            for layer in reversed(layers):
                g = layer.backward(g)
            return g

        peaks, results = [], []
        for run in (walked, direct):
            layers = [Conv1d(2, 8, 3, 1, rng=np.random.default_rng(62)), BatchNorm(8), ReLU()]
            tracemalloc.start()
            try:
                results.append(run(layers))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert_bitwise(results[0], results[1], "dx")
        # one output fewer, less the few kB of Python objects the walk's own frames take
        assert peaks[1] - peaks[0] > 0.99 * grad.nbytes, peaks


# -- Oracles: BatchNorm, Pool2d and the depthwise backward as they were before
# the in-place and strided-view rewrites, and the convolutions as they were
# before chunked lowering. The layers must match them bitwise.

class OldBatchNorm(BatchNorm):
    def forward(self, x, train=False):
        bshape = self._bshape(x.ndim)
        axes = (0,) + tuple(range(2, x.ndim))
        if train:
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)
            mask = var > VAR_FLOOR
            var_f = np.maximum(var, VAR_FLOOR)
            inv = 1.0 / np.sqrt(var_f + self.epsilon)
            xm = x - mu.reshape(bshape)
            xhat = xm * inv.reshape(bshape)
            self.running_mean[:] = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var[:] = self.momentum * self.running_var + (1 - self.momentum) * var
            m = x.size // self.channels
            self._cache = (xm, xhat, inv, mask, m, axes)
        else:
            inv = 1.0 / np.sqrt(np.maximum(self.running_var, VAR_FLOOR) + self.epsilon)
            xhat = (x - self.running_mean.reshape(bshape)) * inv.reshape(bshape)
            self._cache = None
        return self.gamma.reshape(bshape) * xhat + self.beta.reshape(bshape)

    def backward(self, grad):
        xm, xhat, inv, mask, m, axes = self._take_cache()
        bshape = self._bshape(grad.ndim)
        self.grad_gamma = (grad * xhat).sum(axis=axes)
        self.grad_beta = grad.sum(axis=axes)
        dxhat = grad * self.gamma.reshape(bshape)
        dvar = (dxhat * xm).sum(axis=axes) * (-0.5) * inv**3 * mask
        dmu = -(dxhat.sum(axis=axes)) * inv + dvar * (-2.0 / m) * xm.sum(axis=axes)
        return (
            dxhat * inv.reshape(bshape)
            + dvar.reshape(bshape) * 2.0 * xm / m
            + dmu.reshape(bshape) / m
        )


class OldPool2d(Pool2d):
    def forward(self, x, train=False):
        b, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        blocks = (
            x[:, :, : 2 * h2, : 2 * w2]
            .reshape(b, c, h2, 2, w2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h2, w2, 4)
        )
        if self.kind == "max":
            idx = blocks.argmax(axis=-1)
            y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
            self._cache = (x.shape, idx) if train else None
        else:
            y = blocks.mean(axis=-1)
            self._cache = x.shape if train else None
        return y

    def backward(self, grad):
        cache = self._take_cache()
        if self.kind == "max":
            x_shape, idx = cache
        else:
            x_shape = cache
        b, c, h, w = x_shape
        h2, w2 = h // 2, w // 2
        dblocks = np.zeros((b, c, h2, w2, 4), dtype=FLOAT)
        if self.kind == "max":
            np.put_along_axis(dblocks, idx[..., None], grad[..., None], axis=-1)
        else:
            dblocks += (grad / 4.0)[..., None]
        dx = np.zeros(x_shape, dtype=FLOAT)
        dx[:, :, : 2 * h2, : 2 * w2] = (
            dblocks.reshape(b, c, h2, w2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, 2 * h2, 2 * w2)
        )
        return dx


class OldDepthwiseConv1d(DepthwiseConv1d):
    def backward(self, grad):
        x_shape, windows = self._take_cache()
        self.grad_kernels = np.einsum("bclk,bcl->ck", windows, grad)
        self.grad_bias = grad.sum(axis=(0, 2))
        dx = np.zeros(x_shape, dtype=FLOAT)
        l_out = grad.shape[2]
        for t in range(self.kernel):
            dx[:, :, t : t + self.stride * l_out : self.stride] += (
                grad * self.kernels[:, t][None, :, None]
            )
        return dx


class OldIm2colConv(Im2colConv):
    """Whole-batch lowering: one patch matrix for the batch, in forward and in backward."""

    def forward(self, x, train=False, owned=False):
        kernel, strides, dilations = self._lowering
        out = tuple(map(conv_output_length, x.shape[2:], kernel, strides, dilations))
        cols = im2col_batch(x, kernel, strides, dilations)
        y = np.matmul(self.weight.reshape(self.out_channels, -1), cols)
        y += self.bias[:, None]
        self._cache = x if train else None
        return y.reshape((x.shape[0], self.out_channels) + out)

    def backward(self, grad, owned=False):
        x = self._take_cache()
        g_mat = grad.reshape(grad.shape[0], self.out_channels, -1)
        cols = im2col_batch(x, *self._lowering)
        self.grad_weight = _weight_grad(g_mat, cols).reshape(self.weight.shape)
        del cols
        self.grad_bias = g_mat.sum(axis=(0, 2))
        if not self.input_grad:
            return None
        dcols = np.matmul(self.weight.reshape(self.out_channels, -1).T, g_mat)
        return col2im_batch(dcols, x.shape, *self._lowering)


class OldConv1d(OldIm2colConv, Conv1d):
    pass


class OldDilatedConv2d(OldIm2colConv, DilatedConv2d):
    pass


def assert_bitwise(a, b, what=""):
    a, b = np.asarray(a, dtype=FLOAT), np.asarray(b, dtype=FLOAT)
    assert a.shape == b.shape, what
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), what


def _pair(old, new, x, grad):
    """Train forward and backward on both layers; asserts y, dx and the grads are bitwise equal."""
    assert_bitwise(old.forward(x, train=True), new.forward(x, train=True), "y")
    assert_bitwise(old.backward(grad), new.backward(grad), "dx")
    old_grads, new_grads = old.named_grads(), new.named_grads()
    assert old_grads.keys() == new_grads.keys()
    for k in old_grads:
        assert_bitwise(old_grads[k], new_grads[k], k)


# (sample, channel) rows of 64 x 64 that fill one BatchNorm backward block
_BLOCK_ROWS = layers_module.BLOCK_BYTES // (64 * 64 * np.dtype(FLOAT).itemsize)


class TestBitwiseAgainstOldCode:
    @pytest.mark.parametrize("shape", [
        (4, 3, 7), (2, 3, 9, 6), (5, 3),
        # paper's dilated.0 map at B=2 and B=1: one block per (sample, channel) row
        (2, 64, 776, 98), (1, 64, 776, 98),
        # B = 8 and 9: the sample sums must stay in order, not go pairwise
        (8, 3, 7), (9, 3, 7), (9, 3), (8, 5, 300, 300), (9, 2, 300, 300),
        # one channel, which numpy sums as one row of the whole map
        (9, 1, 50), (8, 1),
        # a map at the block budget; one row past it, with a partial last block of
        # channels; and three samples in blocks of two
        (1, _BLOCK_ROWS, 64, 64), (1, _BLOCK_ROWS + 1, 64, 64), (3, _BLOCK_ROWS // 2, 64, 64),
        # one-wide maps, whose values go straight to the sample sum: paper's extractor.3
        # and .4 at B=2, desk's at B=8
        (1600, 128, 1), (1600, 100, 1), (800, 32, 1), (800, 25, 1),
    ])
    def test_batchnorm(self, shape):
        rng = np.random.default_rng(50)
        c = shape[1]
        old, new = OldBatchNorm(c), BatchNorm(c)
        old.gamma[:] = rng.uniform(0.5, 1.5, c)
        old.beta[:] = rng.standard_normal(c)
        new.gamma[:], new.beta[:] = old.gamma, old.beta
        for step in range(3 if math.prod(shape) < 10**6 else 1):
            x = rng.standard_normal(shape) * 2.0 + 1.0
            if c > 1:
                x[:, 1] = 4.0  # a constant channel: the variance floor masks it
            grad = rng.standard_normal(shape)
            if c > 2:
                grad[:, 2] = -0.0  # as a dead ReLU passes back: sums of negative zeros
            _pair(old, new, x, grad)
            for k in ("running_mean", "running_var"):
                assert_bitwise(getattr(old, k), getattr(new, k), k)
        x = rng.standard_normal(shape)
        assert_bitwise(old.forward(x), new.forward(x), "eval y")

    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("shape", [(2, 3, 7, 9), (1, 2, 6, 4), (2, 1, 3, 2)])
    def test_pool(self, kind, shape):
        rng = np.random.default_rng(51)
        # post-ReLU-like input in coarse steps: many tied zeros and tied maxima
        x = np.maximum(np.round(rng.standard_normal(shape) * 2.0) / 2.0, 0.0)
        old, new = OldPool2d(kind), Pool2d(kind)
        grad = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
        _pair(old, new, x, grad)
        assert_bitwise(old.forward(x), new.forward(x), "eval y")

    def test_max_pool_ties_route_to_first_corner(self):
        x = np.zeros((1, 1, 3, 5))
        x[0, 0, :2, 2:4] = [[1.0, 2.0], [2.0, 2.0]]
        old, new = OldPool2d("max"), Pool2d("max")
        _pair(old, new, x, np.arange(1.0, 3.0).reshape(1, 1, 1, 2))
        new.forward(x, train=True)
        assert new.backward(np.ones((1, 1, 1, 2)))[0, 0].tolist() == [
            [1.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0], [0.0] * 5]

    @pytest.mark.parametrize("factory, shape", [
        # im2col_batch returns a read-only view of the input, not a copy, for these
        (lambda cls: cls(3, 4, 1, 1, rng=np.random.default_rng(9)), (2, 3, 7)),  # 1-wide
        (lambda cls: cls(1, 4, 9, 1, rng=np.random.default_rng(9)), (2, 1, 9)),  # full span
        (lambda cls: cls(3, 2, 1, 1, 2, rng=np.random.default_rng(9)), (2, 3, 5, 4)),  # 1x1
    ], ids=["conv1d_kernel1", "conv1d_full_span", "dilated_1x1"])
    def test_conv_whose_lowering_is_a_view_of_its_input(self, factory, shape):
        pair = {2: (OldConv1d, Conv1d), 3: (OldDilatedConv2d, DilatedConv2d)}[len(shape) - 1]
        old, new = (factory(cls) for cls in pair)
        rng = np.random.default_rng(55)
        x = rng.standard_normal(shape)
        x.flags.writeable = False
        kept = x.copy()
        assert not im2col_batch(x, *new._lowering).flags.writeable
        grad = rng.standard_normal(new.forward(x).shape)
        _pair(old, new, x, grad)
        assert_bitwise(x, kept, "x")

    # blocks of BLOCK_BYTES // 4 bytes of [4, 20] samples
    _DW_BLOCK = layers_module.BLOCK_BYTES // (4 * 4 * 20 * np.dtype(FLOAT).itemsize)

    @pytest.mark.parametrize("shape, kernel, stride", [
        ((2 * _DW_BLOCK + 3, 4, 20), 5, 2),  # two whole blocks and a partial last one
        ((800, 64, 40), 12, 2),  # paper's extractor.1 at B=1
        ((1600, 128, 15), 15, 1),  # paper's extractor.3 at B=2
        ((800, 16, 25), 6, 2),  # desk's extractor.1 at B=8
        ((800, 32, 10), 10, 1),  # desk's extractor.3 at B=8
    ])
    def test_depthwise_backward_in_sample_blocks(self, shape, kernel, stride):
        c = shape[1]
        rng = np.random.default_rng(54)
        old = OldDepthwiseConv1d(c, kernel, stride, rng=np.random.default_rng(8))
        new = DepthwiseConv1d(c, kernel, stride, rng=np.random.default_rng(8))
        x = rng.standard_normal(shape)
        grad = rng.standard_normal(new.forward(x).shape)
        _pair(old, new, x, grad)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_backward(self, stride):
        rng = np.random.default_rng(52 + stride)
        old = OldDepthwiseConv1d(4, 5, stride, rng=np.random.default_rng(7))
        new = DepthwiseConv1d(4, 5, stride, rng=np.random.default_rng(7))
        x = rng.standard_normal((3, 4, 20))
        l_out = new.forward(x).shape[2]
        grad = rng.standard_normal((l_out, 4, 3)).transpose(2, 1, 0)  # not C-contiguous
        assert not grad.flags.c_contiguous
        _pair(old, new, x, grad)


class TestChunkedLoweringBitwise:
    """Chunked lowering gives the bits of whole-batch lowering, also when a batch
    splits into several chunks and the last fold group is partial. At two fold
    groups per chunk, a middle chunk's weight gradient summed apart and then
    added would move the bits."""

    CASES = {
        # 200 positions: fold 2, so B=9 is fold groups of 2 + 2 + 2 + 2 + 1
        "conv1d_partial_fold": (lambda cls: cls(1, 2, 4, 1, rng=np.random.default_rng(70)),
                                (OldConv1d, Conv1d), (9, 1, 203)),
        # 34 x 27 = 918 positions: one sample per fold group
        "dilated_per_sample": (lambda cls: cls(2, 3, 3, 4, 3, rng=np.random.default_rng(71)),
                               (OldDilatedConv2d, DilatedConv2d), (5, 2, 40, 30)),
    }

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_layer(self, name, groups, monkeypatch):
        factory, (old_cls, new_cls), shape = self.CASES[name]
        old, new = factory(old_cls), factory(new_cls)
        rng = np.random.default_rng(72)
        x = rng.standard_normal(shape)
        grad = rng.standard_normal(new.forward(x).shape)
        rows, positions = new.weight[0].size, math.prod(grad.shape[2:])
        group_bytes = layers_module._fold(positions) * rows * positions * x.itemsize
        monkeypatch.setattr(layers_module, "LOWERING_BYTES", groups * group_bytes)
        assert len(layers_module._chunks(shape[0], rows, positions)) > 1
        _pair(old, new, x, grad)
        assert_bitwise(old.forward(x), new.forward(x), "eval y")
        old.forward(x, train=True)
        new.forward(x, train=True)
        old.input_grad = new.input_grad = False
        old.backward(grad)
        assert new.backward(grad) is None
        assert_bitwise(old.grad_weight, new.grad_weight, "grad_weight without dx")

    @staticmethod
    def _step_bits(profile, batch):
        """loss, probs, grads, then parameters, running statistics and eval probs after
        one RMSProp step, each as its uint64 view."""
        cfg = profile()
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(73)
        xs = rng.standard_normal((batch, cfg.frames_per_segment, cfg.frame_length))
        labels = rng.integers(0, cfg.class_count, batch)
        value, probs, grads = model.loss_and_grads(xs, labels)
        out = {"loss": value, "probs": probs}
        out.update({f"grad {k}": v.copy() for k, v in grads.items()})
        RmsProp(model.named_params()).step(grads)
        out.update({f"param {k}": v for k, v in model.named_params().items()})
        out.update({f"buffer {k}": v for k, v in model.named_buffers().items()})
        out["eval probs"] = model.forward_batch(xs)
        return {k: np.asarray(v, dtype=FLOAT).view(np.uint64) for k, v in out.items()}

    @pytest.mark.parametrize("lowering_bytes", [None, 1])
    @pytest.mark.parametrize("profile, batch", [(desk_profile, 8), (paper_profile, 1)])
    def test_train_step_and_eval(self, profile, batch, lowering_bytes, monkeypatch):
        with monkeypatch.context() as patch:
            # the walk hands no layer ownership, and convolutions lower whole batches
            patch.setattr(layers_module, "_owns", lambda owned, given, returned: False)
            patch.setattr(Im2colConv, "forward", OldIm2colConv.forward)
            patch.setattr(Im2colConv, "backward", OldIm2colConv.backward)
            expected = self._step_bits(profile, batch)
        if lowering_bytes is not None:
            monkeypatch.setattr(layers_module, "LOWERING_BYTES", lowering_bytes)
        got = self._step_bits(profile, batch)
        assert list(got) == list(expected)
        for k in got:
            assert np.array_equal(got[k], expected[k]), k


class TestDwsFusionEquivalence:
    """Depthwise then pointwise (no BN/ReLU between) equals one standard
    convolution with rank-1 fused weights W[o,c,k] = Z[o,c] * K_c[k]."""

    def test_fused_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c, o, k, length = 4, 6, 3, 12
            dw = DepthwiseConv1d(c, k, 1)
            dw.kernels[:] = rng.standard_normal((c, k))
            pw = PointwiseConv(c, o)
            pw.weights[:] = rng.standard_normal((o, c))
            x = rng.standard_normal((c, length))
            composed = pw.forward(dw.forward(x[np.newaxis]))[0]
            fused = pw.weights[:, :, np.newaxis] * dw.kernels[np.newaxis, :, :]
            standard = reference.conv1d_direct(x, fused, np.zeros(o), 1)
            assert np.max(np.abs(composed - standard)) < 1e-10


class TestPerLayerGradients:
    """Analytic gradients vs central differences (h = 1e-5), <= 1e-6 relative."""

    TOL = 1e-6

    def _check(self, layers, x, n_classes, seed=0, labels=None):
        frag = Network(layers)
        if labels is None:
            labels = np.array([seed % n_classes])
        err = gradient_check(frag, x, labels, step=1e-5, seed=seed)
        assert err <= self.TOL, f"gradient error {err:.3e}"

    def test_conv1d(self):
        rng = np.random.default_rng(10)
        layer = Conv1d(2, 3, 3, 2, rng=rng)
        x = rng.standard_normal((1, 2, 9))
        self._check([layer, Flatten()], x, 3 * 4)

    def test_conv1d_batch2(self):
        rng = np.random.default_rng(20)
        layer = Conv1d(2, 3, 3, 2, rng=rng)
        layer.bias[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 9))
        self._check([layer, Flatten()], x, 3 * 4, labels=np.array([1, 7]))

    def test_depthwise(self):
        rng = np.random.default_rng(11)
        layer = DepthwiseConv1d(3, 3, 2, rng=rng)
        layer.bias[:] = rng.standard_normal(3)
        x = rng.standard_normal((1, 3, 9))
        self._check([layer, Flatten()], x, 3 * 4)

    def test_pointwise(self):
        rng = np.random.default_rng(12)
        layer = PointwiseConv(3, 4, rng=rng)
        x = rng.standard_normal((1, 3, 5))
        self._check([layer, Flatten()], x, 4 * 5)

    def test_batchnorm(self):
        rng = np.random.default_rng(13)
        bn = BatchNorm(3)
        bn.gamma[:] = rng.uniform(0.5, 1.5, 3)
        bn.beta[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 3, 4)) * 2.0 + 1.0
        self._check([bn, Flatten()], x, 12)

    def test_relu(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 8))
        x[np.abs(x) < 0.01] += 0.05  # keep inputs away from the kink
        self._check([ReLU()], x, 8)

    def test_dilated_conv2d(self):
        rng = np.random.default_rng(15)
        layer = DilatedConv2d(2, 3, 3, 2, 2, rng=rng)
        layer.bias[:] = rng.standard_normal(3)
        x = rng.standard_normal((1, 2, 9, 4))
        self._check([layer, Flatten()], x, 3)

    def test_dilated_conv2d_batch2(self):
        rng = np.random.default_rng(21)
        layer = DilatedConv2d(2, 3, 3, 2, 2, rng=rng)
        layer.bias[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 9, 4))
        self._check([layer, Flatten()], x, 3 * 5 * 3, labels=np.array([4, 30]))

    def test_max_pool(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 2, 4, 4))
        self._check([Pool2d("max"), Flatten()], x, 8)

    def test_avg_pool(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 2, 4, 4))
        self._check([Pool2d("avg"), Flatten()], x, 8)

    def test_linear(self):
        rng = np.random.default_rng(18)
        layer = Linear(6, 4, rng=rng)
        layer.bias[:] = rng.standard_normal(4)
        x = rng.standard_normal((2, 6))
        self._check([layer], x, 4)

    def test_depthwise_kernel_grad_vs_finite_difference(self):
        # random 3-channel instance, explicit per-coordinate comparison
        rng = np.random.default_rng(19)
        layer = DepthwiseConv1d(3, 3, 1, rng=rng)
        x = rng.standard_normal((1, 3, 8))
        frag = Network([layer, Flatten()])
        labels = np.array([2])
        _, _, grads = frag.loss_and_grads(x, labels)
        analytic = grads["0.kernels"].copy()
        h = 1e-5
        for idx in np.ndindex(layer.kernels.shape):
            orig = layer.kernels[idx]
            layer.kernels[idx] = orig + h
            lp = frag.loss(x, labels)
            layer.kernels[idx] = orig - h
            lm = frag.loss(x, labels)
            layer.kernels[idx] = orig
            numeric = (lp - lm) / (2 * h)
            assert abs(analytic[idx] - numeric) / max(abs(numeric), 1e-8) < 1e-6
