import dataclasses

import numpy as np
import pytest

from atcnn.audio import default_synth_spec, frame_segment, split_dataset, synth_dataset
from atcnn.errors import InvalidLabelError, ShapeError
from atcnn.layers import BatchNorm, Flatten, Linear, Network, ReLU
from atcnn.model import build_model, desk_profile, paper_profile
from atcnn.optim import RmsProp, gradient_check, stack_dataset, train, train_epoch
from atcnn.reference import cross_entropy


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy([1.0, 0.0, 0.0], [1, 0, 0]) <= 1e-11

    def test_uniform_prediction(self):
        third = 1.0 / 3.0
        assert abs(cross_entropy([third] * 3, [0, 1, 0]) - np.log(3.0)) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        loss = cross_entropy([0.0, 1.0], [1, 0])
        assert abs(loss - 27.631021115928547) < 1e-9  # -ln(1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy([0.5, 0.5], [1, 0, 0])

    def test_non_one_hot_label(self):
        with pytest.raises(InvalidLabelError):
            cross_entropy([0.5, 0.5], [1, 1])
        with pytest.raises(InvalidLabelError):
            cross_entropy([0.5, 0.5], [0.5, 0.5])

    def test_unnormalized_prediction(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.4], [1, 0])


class TestRmsProp:
    def test_zero_gradient_keeps_param(self):
        p = np.array([1.0, -2.0])
        opt = RmsProp({"p": p}, learning_rate=0.001, rho=0.9, epsilon=1e-8)
        opt.state["p"][:] = 0.4
        opt.step({"p": np.zeros(2)})
        assert p.tolist() == [1.0, -2.0]
        assert np.allclose(opt.state["p"], 0.36)  # decayed by rho

    def test_hand_evaluated_first_step(self):
        p = np.zeros(1)
        opt = RmsProp({"p": p}, learning_rate=0.001, rho=0.9, epsilon=1e-8)
        opt.step({"p": np.ones(1)})
        assert np.isclose(opt.state["p"][0], 0.1, atol=1e-15)
        assert np.isclose(p[0], -0.0031622775601683824, atol=1e-12)

    def test_hand_evaluated_second_step(self):
        p = np.zeros(1)
        opt = RmsProp({"p": p}, learning_rate=0.001, rho=0.9, epsilon=1e-8)
        opt.step({"p": np.ones(1)})
        first = p[0]
        opt.step({"p": np.ones(1)})
        assert np.isclose(opt.state["p"][0], 0.19, atol=1e-15)
        assert np.isclose(p[0] - first, -0.00229415728607404, atol=1e-12)

    def test_descends_against_gradient_when_rho_zero(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(16)
        before = p.copy()
        g = rng.standard_normal(16)
        g[g == 0] = 1.0
        RmsProp({"p": p}, learning_rate=0.01, rho=0.0, epsilon=10.0).step({"p": g})
        moved = p - before
        assert np.all(np.sign(moved[g != 0]) == -np.sign(g[g != 0]))

    def test_shape_mismatch(self):
        opt = RmsProp({"p": np.zeros(3)})
        with pytest.raises(ShapeError):
            opt.step({"p": np.zeros(4)})


class TestGradientCheck:
    def test_linear_softmax_fragment(self):
        rng = np.random.default_rng(5)
        layer = Linear(6, 3, rng=rng)
        layer.bias[:] = rng.standard_normal(3)
        frag = Network([layer])
        err = gradient_check(frag, rng.standard_normal((2, 6)), np.array([0, 2]), step=1e-5)
        assert err <= 1e-6

    def test_zero_parameter_fragment_vacuous(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 4))
        x[np.abs(x) < 0.01] += 0.05
        frag = Network([ReLU()])
        assert gradient_check(frag, x, np.array([1]), step=1e-5) == 0.0

    def test_non_finite_loss_rejected(self):
        class Bad:
            def named_params(self):
                return {}

            def named_buffers(self):
                return {}

            def loss_and_grads(self, x, y):
                return float("nan"), np.full((1, 2), 0.5), {}

        with pytest.raises(ValueError):
            gradient_check(Bad(), np.zeros(1), np.zeros(1))

    @staticmethod
    def _check_leaves_buffers(fragment, x, labels, eval_forward, **kwargs):
        """Buffers and eval-mode outputs are bitwise the same after the check."""
        buffers = {k: v.copy() for k, v in fragment.named_buffers().items()}
        before = eval_forward()
        gradient_check(fragment, x, labels, step=1e-5, **kwargs)
        after = fragment.named_buffers()
        assert buffers and buffers.keys() == after.keys()
        for k in buffers:
            assert np.array_equal(buffers[k].view(np.uint64), after[k].view(np.uint64)), k
        assert np.array_equal(before.view(np.uint64), eval_forward().view(np.uint64))

    def test_model_running_statistics_restored(self):
        cfg = desk_profile()
        model = build_model(cfg, seed=2)
        xs = np.random.default_rng(8).standard_normal(
            (2, cfg.frames_per_segment, cfg.frame_length))
        assert len(model.named_buffers()) == 20
        self._check_leaves_buffers(model, xs, np.array([0, 2]),
                                   lambda: model.forward_batch(xs), max_coords_per_param=1)

    def test_fragment_running_statistics_restored(self):
        rng = np.random.default_rng(9)
        frag = Network([BatchNorm(3), Flatten()])
        x = rng.standard_normal((2, 3, 4)) * 2.0 + 1.0
        self._check_leaves_buffers(frag, x, np.array([1, 5]), lambda: frag.stack.forward(x))


def _tiny_desk_dataset(counts=(4, 4, 4), seed=7):
    cfg = desk_profile()
    spec = default_synth_spec(sample_rate=cfg.sample_rate, counts=counts, seed=seed)
    frames = [
        frame_segment(s.samples, cfg, segment_id=s.segment_id, label=s.label)
        for s in synth_dataset(spec)
    ]
    train_fs, test_fs = split_dataset(frames, fraction=0.8, seed=seed)
    return cfg, stack_dataset(train_fs), stack_dataset(test_fs)


class TestTraining:
    def test_zero_learning_rate_freezes_parameters(self):
        cfg, (xs, ys), (txs, tys) = _tiny_desk_dataset(counts=(2, 2, 2))
        model = build_model(
            dataclasses.replace(cfg, epochs=1, batch_size=4, learning_rate=0.0), seed=1)
        before = {k: v.copy() for k, v in model.named_params().items()}
        stats = train(model, xs, ys, txs, tys, seed=1)
        for k, v in model.named_params().items():
            assert np.array_equal(before[k], v), k
        assert stats[0].loss >= 0.0

    def test_loss_decreases_on_separable_data(self):
        cfg, (xs, ys), (txs, tys) = _tiny_desk_dataset()
        model = build_model(dataclasses.replace(cfg, epochs=5, batch_size=4), seed=7)
        stats = train(model, xs, ys, txs, tys, seed=7)
        assert stats[4].loss < stats[0].loss

    def test_deterministic_replay(self):
        cfg, (xs, ys), (txs, tys) = _tiny_desk_dataset(counts=(2, 2, 2))
        runs = []
        for _ in range(2):
            model = build_model(dataclasses.replace(cfg, epochs=2, batch_size=4), seed=3)
            stats = train(model, xs, ys, txs, tys, seed=3)
            runs.append([(s.loss, s.train_accuracy, s.eval_accuracy) for s in stats])
        assert runs[0] == runs[1]

    def test_epoch_takes_read_only_arrays(self):
        cfg, (xs, ys), (txs, tys) = _tiny_desk_dataset(counts=(2, 2, 2))
        for a in (xs, ys, txs, tys):
            a.setflags(write=False)
        model = build_model(cfg, seed=4)
        optimizer = RmsProp(model.named_params(), learning_rate=cfg.learning_rate)
        train_epoch(model, optimizer, xs, ys, txs, tys, epoch=1, batch_size=4, seed=4)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            stack_dataset([])

    def test_mixed_framing_rejected_naming_the_item(self):
        desk, paper = desk_profile(), paper_profile()
        items = [frame_segment(np.zeros(desk.hop * desk.frames_per_segment), desk, label=0),
                 frame_segment(np.zeros(desk.hop * desk.frames_per_segment), desk, label=1),
                 frame_segment(np.zeros(paper.hop * paper.frames_per_segment), paper, label=2)]
        with pytest.raises(ShapeError, match="item 2 is framed as"):
            stack_dataset(items)
