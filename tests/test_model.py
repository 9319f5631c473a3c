import dataclasses
import tracemalloc

import numpy as np
import pytest

from atcnn.errors import ConfigurationError, ShapeError
from atcnn.layers import (
    BatchNorm,
    Conv1d,
    DepthwiseConv1d,
    DilatedConv2d,
    PointwiseConv,
    Pool2d,
)
from atcnn.model import (
    ExtractorLayerSpec,
    build_model,
    complexity_decline_ratio,
    count_resources,
    desk_profile,
    format_trace,
    get_profile,
    paper_profile,
    shape_trace,
)
from atcnn.optim import RmsProp

PAPER_DILATED_STAGES = [
    (1, 800, 100),
    (64, 776, 98),
    (64, 388, 49),
    (128, 364, 47),
    (128, 182, 23),
    (256, 158, 21),
    (256, 79, 10),
    (512, 55, 8),
    (512, 27, 4),
    (512, 3, 2),
    (512, 1, 1),
]

PAPER_EXTRACTOR_STAGES = [(1, 2176), (64, 40), (64, 15), (128, 15), (128, 1), (100, 1)]


class TestProfiles:
    def test_paper_extractor_layers(self):
        cfg = paper_profile()
        kinds = [(s.kind, s.kernel, s.stride, s.out_channels) for s in cfg.extractor]
        assert kinds == [
            ("conv", 204, 50, 64),
            ("dw", 12, 2, 0),
            ("pw", 1, 1, 128),
            ("dw", 15, 1, 0),
            ("pw", 1, 1, 100),
        ]
        assert (cfg.frames_per_segment, cfg.frame_length, cfg.feature_length,
                cfg.class_count) == (800, 2176, 100, 3)
        assert all(b.dilation == 12 for b in cfg.dilated)
        assert cfg.learning_rate == 0.001 and cfg.epochs == 100 and cfg.rho == 0.9

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            get_profile("pocket")

    def test_build_paper_model_layer_kinds(self):
        model = build_model(paper_profile(), seed=0)
        convs = [l for l in model.extractor.layers
                 if isinstance(l, (Conv1d, DepthwiseConv1d, PointwiseConv))]
        assert [type(l).__name__ for l in convs] == [
            "Conv1d", "DepthwiseConv1d", "PointwiseConv", "DepthwiseConv1d", "PointwiseConv"]
        assert model.classifier.in_features == 512
        assert model.classifier.out_features == 3


class TestShapeTrace:
    def test_paper_dilated_stages(self):
        trace = shape_trace(paper_profile())
        stages = [e.input_shape for e in trace if e.name.startswith("dilated")]
        stages.append([e for e in trace if e.name == "flatten"][0].input_shape)
        # deduplicate conv/pool handoffs: keep the chain of distinct stage inputs
        chain = [stages[0]]
        for s in stages[1:]:
            if s != chain[-1]:
                chain.append(s)
        assert chain == PAPER_DILATED_STAGES

    def test_paper_extractor_chain(self):
        trace = shape_trace(paper_profile())
        chain = [e.input_shape for e in trace if e.name.startswith("extractor")]
        chain.append([e for e in trace if e.name == "features"][0].input_shape)
        assert chain == PAPER_EXTRACTOR_STAGES

    def test_pooling_floors_odd_extent(self):
        trace = {e.name: e for e in shape_trace(paper_profile())}
        assert trace["dilated.1.pool"].input_shape == (128, 364, 47)
        assert trace["dilated.1.pool"].output_shape == (128, 182, 23)

    def test_closure_every_stage_feeds_the_next(self):
        for cfg in (paper_profile(), desk_profile()):
            trace = shape_trace(cfg)
            assert all(e.ok for e in trace)
            for prev, nxt in zip(trace, trace[1:]):
                if nxt.name == "integration":
                    continue  # stacking T feature vectors changes rank
                assert prev.output_shape == nxt.input_shape, (prev, nxt)

    def test_violation_reported_not_thrown(self):
        cfg = paper_profile()
        broken = dataclasses.replace(cfg, extractor=(
            cfg.extractor[0],
            ExtractorLayerSpec("dw", kernel=13, stride=2),
            *cfg.extractor[2:],
        ))
        trace = shape_trace(broken)
        assert any(not e.ok for e in trace)

    def test_format_contains_table_shapes(self):
        text = format_trace(shape_trace(paper_profile()))
        for shape in ("2176x1", "40x64", "15x64", "15x128", "1x128", "1x100",
                      "800x100x1", "776x98x64", "388x49x64", "364x47x128",
                      "182x23x128", "158x21x256", "79x10x256", "55x8x512",
                      "27x4x512", "3x2x512", "1x1x512"):
            assert shape in text, shape


class TestBuildValidation:
    def test_mismatched_kernel_raises_naming_layer(self):
        cfg = paper_profile()
        broken = dataclasses.replace(cfg, extractor=(
            cfg.extractor[0],
            ExtractorLayerSpec("dw", kernel=13, stride=2),
            *cfg.extractor[2:],
        ))
        with pytest.raises(ConfigurationError, match="extractor"):
            build_model(broken, seed=0)

    def test_feature_length_mismatch(self):
        cfg = desk_profile()
        broken = dataclasses.replace(cfg, feature_length=30)
        with pytest.raises(ConfigurationError, match="features"):
            build_model(broken, seed=0)


class TestModelForward:
    def test_extract_features_shape_and_zero_frames(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=2)
        x = np.zeros((cfg.frames_per_segment, cfg.frame_length))
        feats = model.extract_features(x)
        assert feats.shape == (cfg.frames_per_segment, cfg.feature_length)
        # fresh running stats (0 mean, unit var), zero biases, beta=0:
        # a zero frame stays zero through every extractor stage
        assert np.allclose(feats, 0.0)

    def test_frame_permutation_permutes_feature_rows(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((cfg.frames_per_segment, cfg.frame_length))
        feats = model.extract_features(x)
        perm = x.copy()
        perm[[0, 5]] = perm[[5, 0]]
        feats_perm = model.extract_features(perm)
        expected = feats.copy()
        expected[[0, 5]] = expected[[5, 0]]
        assert np.array_equal(feats_perm, expected)

    def test_zero_classifier_weights_give_uniform(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=2)
        model.classifier.weight[:] = 0.0
        model.classifier.bias[:] = 0.0
        rng = np.random.default_rng(1)
        probs = model.forward_segment(rng.standard_normal(
            (cfg.frames_per_segment, cfg.frame_length)))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_probabilities_valid_and_sum_to_one(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=3)
        rng = np.random.default_rng(2)
        probs = model.forward_segment(rng.standard_normal(
            (cfg.frames_per_segment, cfg.frame_length)))
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_eval_forward_is_bitwise_deterministic(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=4)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((cfg.frames_per_segment, cfg.frame_length))
        assert np.array_equal(model.forward_segment(x), model.forward_segment(x))

    def test_wrong_frame_shape_rejected(self):
        model = build_model(desk_profile(), seed=0)
        with pytest.raises(ShapeError):
            model.forward_segment(np.zeros((100, 271)))

    def test_zero_segments_rejected(self):
        model = build_model(desk_profile(), seed=0)
        empty = np.zeros((0, 100, 272))
        with pytest.raises(ShapeError):
            model.forward_batch(empty)
        with pytest.raises(ShapeError):
            model.predict_batch(empty)


def _whole_batch_eval(model, xs):
    """The eval forward with every layer on the whole batch: B*T frames, then B segments."""
    b, t, n = xs.shape
    feats = model.extractor.forward(xs.reshape(b * t, 1, n), train=False)
    flat = model.dilated.forward(feats.reshape(b, 1, t, model.config.feature_length),
                                 train=False)
    return model.head.forward(model.classifier.forward(flat, train=False), train=False)


def _hand_glued_train_pass(model, xs, labels):
    """The train pass with the reshapes between parts written out: B*T frames through the
    extractor, [B, 1, T, F] through the dilated stack, then classifier and head; backward
    reshapes to the saved feature shape and skips the waveform gradient."""
    b, t, n = xs.shape
    feats = model.extractor.forward(xs.reshape(b * t, 1, n), train=True)
    flat = model.dilated.forward(feats.reshape(b, 1, t, model.config.feature_length),
                                 train=True)
    probs = model.head.forward(model.classifier.forward(flat, train=True), train=True)
    value = model.head.loss(probs, labels)
    dflat = model.classifier.backward(model.head.backward(labels))
    dfeats = model.dilated.backward(dflat).reshape(feats.shape)
    model.extractor.backward(dfeats, input_grad=False)
    return value, probs, model.named_grads()


class TestTrainPassAgainstHandGluedParts:
    def test_loss_and_grads_bitwise(self):
        cfg = desk_profile()
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((3, cfg.frames_per_segment, cfg.frame_length))
        labels = np.array([2, 0, 1])
        walked, glued = build_model(cfg, seed=5), build_model(cfg, seed=5)
        value, probs, grads = walked.loss_and_grads(xs, labels)
        ref_value, ref_probs, ref_grads = _hand_glued_train_pass(glued, xs, labels)

        def bits(a):
            return np.asarray(a, dtype=np.float64).view(np.uint64)

        assert np.array_equal(bits(value), bits(ref_value))
        assert np.array_equal(bits(probs), bits(ref_probs))
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert np.array_equal(bits(grads[name]), bits(ref_grads[name])), name
        ref_buffers = glued.named_buffers()
        for name, buf in walked.named_buffers().items():
            assert np.array_equal(bits(buf), bits(ref_buffers[name])), name


def _eval_alloc_peak(model, xs) -> int:
    """Peak bytes that tracemalloc sees allocated during one eval `forward_batch`."""
    model.forward_batch(xs)  # warm-up, outside the trace
    tracemalloc.start()
    try:
        model.forward_batch(xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvalOneSegmentAtATime:
    def _trained_desk_model(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=6)
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((4, cfg.frames_per_segment, cfg.frame_length))
        # one train step, so that weights and running statistics are not their initial values
        _, _, grads = model.loss_and_grads(xs, np.array([0, 1, 2, 0]))
        RmsProp(model.named_params()).step(grads)
        return model, rng

    def test_matches_the_whole_batch_forward_bitwise(self):
        model, rng = self._trained_desk_model()
        cfg = model.config
        xs = rng.standard_normal((5, cfg.frames_per_segment, cfg.frame_length))
        expected = _whole_batch_eval(model, xs)
        got = model.forward_batch(xs)
        assert got.shape == (5, cfg.class_count)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_peak_allocation_does_not_grow_with_the_batch(self):
        model, rng = self._trained_desk_model()
        cfg = model.config
        xs = rng.standard_normal((8, cfg.frames_per_segment, cfg.frame_length))
        one, eight = _eval_alloc_peak(model, xs[:1]), _eval_alloc_peak(model, xs)
        assert eight < 1.5 * one, (one, eight)


class TestResources:
    def test_table_values_exact(self):
        report = count_resources(paper_profile())
        by_name = {r.name: (r.mult_adds, r.params) for r in report.rows}
        assert by_name["extractor.1"] == (11520, 832)
        assert by_name["extractor.2"] == (122880, 8320)
        assert by_name["extractor.3"] == (1920, 2048)
        assert by_name["extractor.4"] == (12800, 12900)

    def test_pointwise_shares(self):
        report = count_resources(paper_profile())
        assert abs(report.dws_pointwise_mult_add_share - 0.910) < 0.001
        assert abs(report.dws_pointwise_param_share - 0.880) < 0.001

    def test_totals_match_instantiated_parameters(self):
        for cfg in (desk_profile(), paper_profile()):
            report = count_resources(cfg)
            model = build_model(cfg, seed=0)
            assert report.total_params == model.param_count()
            assert report.total_mult_adds == sum(r.mult_adds for r in report.rows)
            assert report.conv_params == sum(r.params for r in report.rows)

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_rows_match_recount_of_built_layers(self, profile):
        # build_model and count_resources read the same plan, so only a count
        # that ignores the plan can catch an error in it
        cfg = get_profile(profile)
        model = build_model(cfg, seed=0)
        report = count_resources(cfg)
        recount = _recount_without_plan(model)
        assert [r.name for r in report.rows] == [name for name, *_ in recount]
        for row, (name, kind, layer, macs) in zip(report.rows, recount):
            params = sum(p.size for p in layer.named_params().values())
            assert (row.kind, row.mult_adds, row.params) == (kind, macs, params), name
        bn = [l for seq in (model.extractor, model.dilated) for l in seq.layers
              if isinstance(l, BatchNorm)]
        assert report.bn_params == sum(l.gamma.size + l.beta.size for l in bn)


def _recount_without_plan(model):
    """(row name, kind, layer, mult-adds) per costed layer, from the layers' own attributes.

    Output extents follow from each layer's kernel, stride and dilation,
    starting at the config's frame length and T x F integration matrix.
    """
    cfg = model.config
    rows = []
    length = cfg.frame_length
    convs = [l for l in model.extractor.layers
             if isinstance(l, (Conv1d, DepthwiseConv1d, PointwiseConv))]
    for i, layer in enumerate(convs):
        if isinstance(layer, PointwiseConv):
            rows.append((f"extractor.{i}", "pw", layer,
                         layer.out_channels * layer.in_channels * length))
            continue
        length = (length - layer.kernel) // layer.stride + 1
        if isinstance(layer, Conv1d):
            macs = layer.out_channels * layer.in_channels * layer.kernel * length
            rows.append((f"extractor.{i}", "conv", layer, macs))
        else:
            rows.append((f"extractor.{i}", "dw", layer, layer.channels * layer.kernel * length))
    h, w, j = cfg.frames_per_segment, cfg.feature_length, -1
    for layer in model.dilated.layers:
        if isinstance(layer, DilatedConv2d):
            j += 1
            h -= (layer.kernel_h - 1) * layer.dilation
            w -= layer.kernel_w - 1
            taps = layer.kernel_h * layer.kernel_w
            rows.append((f"dilated.{j}", "dconv", layer,
                         layer.out_channels * layer.in_channels * taps * h * w))
        elif isinstance(layer, Pool2d):
            h, w = h // 2, w // 2
            rows.append((f"dilated.{j}.pool", layer.kind, layer, 0))
    linear = model.classifier
    rows.append(("classifier", "linear", linear, linear.in_features * linear.out_features))
    return rows


class TestComplexityDeclineRatio:
    def test_direct_evaluation(self):
        assert abs(complexity_decline_ratio(100, 15, 1) - (0.01 + 1.0 / 15.0)) < 1e-12

    def test_unit_arguments(self):
        assert complexity_decline_ratio(1, 1, 1) == 2.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            complexity_decline_ratio(0, 3, 3)

    def test_matches_counted_ratio_on_dws_pairs(self):
        report = count_resources(paper_profile())
        rows = {r.name: r for r in report.rows}
        # pair 1: dw(12) + pw(64->128) vs standard conv 64->128, kernel 12
        counted = (rows["extractor.1"].mult_adds + rows["extractor.2"].mult_adds) / (
            128 * 64 * 12 * 15)
        formula = complexity_decline_ratio(128, 12, 1)
        assert abs(counted - formula) / formula < 0.02
        # pair 2: dw(15) + pw(128->100) vs standard conv 128->100, kernel 15
        counted = (rows["extractor.3"].mult_adds + rows["extractor.4"].mult_adds) / (
            100 * 128 * 15 * 1)
        formula = complexity_decline_ratio(100, 15, 1)
        assert abs(counted - formula) / formula < 0.02
