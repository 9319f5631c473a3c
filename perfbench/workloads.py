"""The three benchmark workloads: set-up, one timed unit, and the checks after the loop.

Each workload's inputs come from `default_synth_spec(seed=...)` with the
run's seed; the same seed gives the same WAVs, split, initial weights and
shuffles. A unit is the repeatable piece of the timed loop. The first
`min_units` units are fixed work, so the determinism digest covers them.

desk-train   the desk profile trains from scratch through `optim.train_epoch`
             on 48/12 segments at B=8 with per-epoch held-out eval; a unit is
             one epoch, at least 30 run, and the run must end at >= 0.90
             held-out accuracy (median of the last five epochs). Small
             tensors: numpy dispatch, BatchNorm and pooling dominate.
paper-train  RMSProp steps at B=2 on 48 kHz segments of the paper profile;
             a unit is one step. Large tensors: the DilatedConv2d GEMMs and
             backward, and the cached patch matrices that set the peak.
paper-infer  the `atcnn eval` path at paper scale: a unit reads 16 WAVs with
             `audio.load_dataset` and labels them with one 16-segment
             `model.predict_batch` chunk. Forward only, eval mode, no caches.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

from atcnn import audio, checkpoint, optim
from atcnn.model import build_model, desk_profile, paper_profile

PROB_SUM_TOL = 1e-9  # the tolerance optim.cross_entropy accepts for a probability vector


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; the smoke test runs a tiny version of each."""

    counts: tuple[int, int, int]  # synthetic segments per class
    batch_size: int
    min_units: int
    setups: int = 3  # set-ups per run; setup_s is their median
    min_accuracy: float = 0.0  # desk-train only


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _roundtrip(run, model, path):
    """Save and reload `model`, checking every parameter and buffer; returns the reloaded model."""
    checkpoint.save_checkpoint(model, path)
    loaded, _ = checkpoint.load_checkpoint(path)
    mine = {**model.named_params(), **model.named_buffers()}
    theirs = {**loaded.named_params(), **loaded.named_buffers()}
    ok = mine.keys() == theirs.keys() and all(np.array_equal(mine[k], theirs[k]) for k in mine)
    run.check("checkpoint round trip is bitwise", ok)
    return loaded


def _finite_grads(grads) -> bool:
    return all(np.isfinite(g).all() for g in grads.values())


def _optimizer(model):
    cfg = model.config
    return optim.RmsProp(model.named_params(), learning_rate=cfg.learning_rate,
                         rho=cfg.rho, epsilon=cfg.rms_epsilon)


def _load_wavs(run, config, name, counts):
    """Synthesize segments, write them as WAVs and read them back, as `atcnn synth` + `train` do."""
    spec = audio.default_synth_spec(sample_rate=config.sample_rate, counts=counts, seed=run.seed)
    directory = run.workdir / name
    audio.write_synth_dataset(spec, directory)
    return directory


class DeskTrain:
    name = "desk-train"
    full = Scale(counts=(20, 20, 20), batch_size=8, min_units=30, min_accuracy=0.90)
    tiny = Scale(counts=(2, 2, 2), batch_size=8, min_units=1, setups=1)

    def __init__(self, scale: Scale):
        self.scale = scale
        self.config = desk_profile()

    def setup(self, run):
        directory = _load_wavs(run, self.config, "desk", self.scale.counts)
        dataset = audio.load_dataset(directory, self.config)
        train_fs, test_fs = audio.split_dataset(dataset, fraction=0.8, seed=run.seed)
        self.xs, self.ys = optim.stack_dataset(train_fs)
        self.test_xs, self.test_ys = optim.stack_dataset(test_fs)
        self.model = build_model(self.config, seed=run.seed)
        self.optimizer = _optimizer(self.model)
        self.history = []

    def segments_per_unit(self) -> int:
        return self.xs.shape[0]

    def unit(self, run, unit: int) -> None:
        """One epoch: shuffled B=8 steps, then held-out eval."""
        if unit == 0:
            run.instrument(self.model, self.optimizer)
            _time_steps(run, self.model, self.optimizer)
        self.history.append(optim.train_epoch(
            self.model, self.optimizer, self.xs, self.ys, self.test_xs, self.test_ys,
            unit + 1, self.scale.batch_size, run.seed))
        if unit == self.scale.min_units - 1:
            run.digest = _digest([(h.loss, h.train_accuracy, h.eval_accuracy)
                                  for h in self.history], *self.model.named_params().values())

    def finish(self, run) -> None:
        # One epoch's accuracy on 12 held-out segments swings by a segment or more late in
        # training (6% of epochs 25-35 fell below 0.90 in a sweep of 19 seeds), so the
        # target applies to the median of the last five epochs.
        last = [h.eval_accuracy for h in self.history[-5:]]
        run.info["held_out_accuracy_last_epochs"] = last
        run.check("median held-out accuracy of the last five epochs reaches the target",
                  statistics.median(last) >= self.scale.min_accuracy)
        _roundtrip(run, self.model, run.workdir / "desk.ckpt")


def _time_steps(run, model, optimizer) -> None:
    """Time each loss_and_grads + RmsProp.step pair that `optim.train_epoch` makes."""
    loss_and_grads, step = model.loss_and_grads, optimizer.step
    start = [0.0]

    def timed_loss_and_grads(*args, **kwargs):
        start[0] = time.perf_counter()
        run.begin("step")
        value, probs, grads = loss_and_grads(*args, **kwargs)
        run.check("loss is finite", np.isfinite(value))
        return value, probs, grads

    def timed_step(grads):
        step(grads)
        run.end()
        run.step_ms.append((time.perf_counter() - start[0]) * 1e3)

    model.loss_and_grads = timed_loss_and_grads
    optimizer.step = timed_step


class PaperTrain:
    name = "paper-train"
    full = Scale(counts=(2, 2, 2), batch_size=2, min_units=2)
    tiny = Scale(counts=(1, 1, 1), batch_size=1, min_units=1, setups=1)

    def __init__(self, scale: Scale):
        self.scale = scale
        self.config = paper_profile()

    def setup(self, run):
        directory = _load_wavs(run, self.config, "paper", self.scale.counts)
        self.xs, self.ys = optim.stack_dataset(audio.load_dataset(directory, self.config))
        order = np.random.default_rng(run.seed).permutation(self.xs.shape[0])
        b = self.scale.batch_size
        self.batches = [order[i : i + b] for i in range(0, order.size - b + 1, b)]
        self.model = build_model(self.config, seed=run.seed)
        self.optimizer = _optimizer(self.model)
        self.losses = []

    def segments_per_unit(self) -> int:
        return self.scale.batch_size

    def unit(self, run, unit: int) -> None:
        if unit == 0:
            run.instrument(self.model, self.optimizer)
        batch = self.batches[unit % len(self.batches)]
        start = time.perf_counter()
        with run.span("step"):
            value, _, grads = self.model.loss_and_grads(self.xs[batch], self.ys[batch])
            self.optimizer.step(grads)
        run.step_ms.append((time.perf_counter() - start) * 1e3)
        run.check("loss is finite", np.isfinite(value))
        run.check("gradients are finite", _finite_grads(grads))
        if unit < self.scale.min_units:
            self.losses.append(value)
            run.digest = _digest(self.losses)

    def finish(self, run) -> None:
        _roundtrip(run, self.model, run.workdir / "paper.ckpt")


class PaperInfer:
    name = "paper-infer"
    full = Scale(counts=(6, 5, 5), batch_size=16, min_units=2)
    tiny = Scale(counts=(1, 1, 1), batch_size=16, min_units=1, setups=1)

    def __init__(self, scale: Scale):
        self.scale = scale
        self.config = paper_profile()

    def setup(self, run):
        self.directory = _load_wavs(run, self.config, "infer", self.scale.counts)
        model = build_model(self.config, seed=run.seed)
        self.model = _roundtrip(run, model, run.workdir / "infer.ckpt")

    def segments_per_unit(self) -> int:
        return sum(self.scale.counts)

    def unit(self, run, unit: int) -> None:
        if unit == 0:
            run.instrument(self.model, None)
            self.captured = []
            _capture_probs(self.model, self.captured)
        self.captured.clear()
        self.xs, self.ys = optim.stack_dataset(audio.load_dataset(self.directory, self.config))
        start = time.perf_counter()
        with run.span("step"):
            labels = self.model.predict_batch(self.xs, chunk=self.scale.batch_size)
        run.step_ms.append((time.perf_counter() - start) * 1e3)
        probs = np.concatenate(self.captured)
        run.check("probabilities are finite", np.isfinite(probs).all())
        run.check("probability rows sum to 1",
                  np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
        run.check("labels are the probability argmax",
                  np.array_equal(labels, probs.argmax(axis=1)))
        if unit == 0:
            self.probs, self.labels = probs, labels
            run.digest = _digest(probs)
        run.check("probabilities repeat bitwise within the run",
                  np.array_equal(probs, self.probs))

    def finish(self, run) -> None:
        k = run.seed % self.xs.shape[0]
        single = self.model.forward_segment(self.xs[k])
        run.check("chunked label equals the per-segment forward argmax",
                  int(single.argmax()) == int(self.labels[k]))
        # The reloaded checkpoint still trains; this one step outside the timed loop is
        # also where the traced run measures backward and optimizer spans for this profile.
        optimizer = _optimizer(self.model)
        run.instrument(None, optimizer)
        value, _, grads = self.model.loss_and_grads(self.xs[k : k + 1], self.ys[k : k + 1])
        optimizer.step(grads)
        run.check("training step from the checkpoint is finite",
                  np.isfinite(value) and _finite_grads(grads))


def _capture_probs(model, sink: list) -> None:
    """Keep the probabilities that `predict_batch` computes and reduces to labels."""
    forward_batch = model.forward_batch

    def capturing(*args, **kwargs):
        probs = forward_batch(*args, **kwargs)
        sink.append(probs)
        return probs

    model.forward_batch = capturing


WORKLOADS = {w.name: w for w in (DeskTrain, PaperTrain, PaperInfer)}
