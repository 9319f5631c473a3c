"""Cross-entropy objective, RMSProp updates, gradient verification, training loop.

`gradient_check` takes any `layers.Network`: a `Model`, or a one-layer
`StackFragment`. `train` takes every hyperparameter from `model.config`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidLabelError, ShapeError
from .layers import PROB_CLAMP, Network
from .tensor_ops import FLOAT


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


class RmsProp:
    """Divides each gradient by the root of a decayed mean of its squares.

    s <- rho * s + (1 - rho) * g^2 ; p <- p - lr * g / (sqrt(s) + eps).
    Parameters are updated in place.
    """

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float = 1e-3,
                 rho: float = 0.9, epsilon: float = 1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self.state = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} "
                                 f"for {name!r}")
            s = self.state[name]
            s *= self.rho
            s += (1.0 - self.rho) * g * g
            p -= self.learning_rate * g / (np.sqrt(s) + self.epsilon)


StackFragment = Network  # a plain layer list plus the head, to check one layer alone


def gradient_check(fragment, x: np.ndarray, labels: np.ndarray, step: float = 1e-5,
                   max_coords_per_param: Optional[int] = None, seed: int = 0,
                   atol: float = 1e-9) -> float:
    """Max relative error between analytic and central-difference gradients.

    Exhaustive over every coordinate by default; for large models pass
    `max_coords_per_param` to check a seeded random subset of each tensor.
    Relative error is |a - n| / max(|a|, |n|, 1e-8); coordinates where the
    two already agree within `atol` count as exact. The guard matters for
    parameters the loss provably cannot see (a convolution bias feeding
    batch norm is cancelled by the mean subtraction, so its true gradient
    is zero and the central difference is float noise amplified by 1/2h).

    Central differences only estimate a derivative where the loss is smooth
    across [theta-h, theta+h]. When the fragment exposes an
    `activation_signature` (linear-region fingerprint) and the two endpoint
    evaluations land on different regions, a ReLU or max-pool kink lies
    inside the interval, so that coordinate has no valid oracle and is
    skipped.

    Every train-mode forward moves batch-norm running statistics, so the
    fragment's `named_buffers()` are saved on entry and restored on exit:
    the check leaves the fragment's eval-mode outputs as they were.
    """
    saved = {name: b.copy() for name, b in fragment.named_buffers().items()}
    try:
        value, _, grads = fragment.loss_and_grads(x, labels)
        if not np.isfinite(value):
            raise ValueError(f"loss is not finite: {value}")
        params = fragment.named_params()
        signature = getattr(fragment, "activation_signature", lambda: None)
        rng = np.random.default_rng(seed)

        worst = 0.0
        for name, p in params.items():
            flat = p.reshape(-1)
            n_coords = flat.size
            if max_coords_per_param is not None and n_coords > max_coords_per_param:
                coords = rng.choice(n_coords, size=max_coords_per_param, replace=False)
            else:
                coords = range(n_coords)
            g = grads[name].reshape(-1)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + step
                lp = fragment.loss(x, labels)
                sig_p = signature()
                flat[idx] = orig - step
                lm = fragment.loss(x, labels)
                sig_m = signature()
                flat[idx] = orig
                if sig_p != sig_m:
                    continue  # kink inside the interval; no valid central difference
                numeric = (lp - lm) / (2.0 * step)
                analytic = g[idx]
                if abs(analytic - numeric) <= atol:
                    continue
                err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, err)
        return worst
    finally:
        for name, b in fragment.named_buffers().items():
            b[...] = saved[name]


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainStats:
    epoch: int
    loss: float
    train_accuracy: float
    eval_accuracy: float
    seconds: float


def stack_dataset(frame_seqs) -> tuple[np.ndarray, np.ndarray]:
    """List of labeled FrameSequences -> (segments [n, T, N], labels [n])."""
    if not frame_seqs:
        raise ValueError("dataset is empty")
    xs = np.stack([fs.frames for fs in frame_seqs], dtype=FLOAT)
    labels = np.array([fs.label for fs in frame_seqs], dtype=np.int64)
    if np.any(labels < 0):
        raise InvalidLabelError("every training segment needs a label")
    return xs, labels


def evaluate_accuracy(model, xs: np.ndarray, labels: np.ndarray) -> float:
    preds = model.predict_batch(xs)
    return float((preds == labels).mean())


def train_epoch(model, optimizer: RmsProp, xs: np.ndarray, labels: np.ndarray,
                test_xs: np.ndarray, test_labels: np.ndarray, epoch: int,
                batch_size: int, seed: int) -> TrainStats:
    """One shuffled pass over the training set with per-batch RMSProp updates."""
    if xs.shape[0] == 0:
        raise ValueError("training set is empty")
    start = time.perf_counter()
    order = np.random.default_rng((seed, epoch)).permutation(xs.shape[0])
    losses = []
    correct = 0
    for i in range(0, order.size, batch_size):
        batch = order[i : i + batch_size]
        value, probs, grads = model.loss_and_grads(xs[batch], labels[batch])
        optimizer.step(grads)
        losses.append(value * batch.size)
        correct += int((probs.argmax(axis=1) == labels[batch]).sum())
    eval_acc = evaluate_accuracy(model, test_xs, test_labels) if test_xs.size else 0.0
    return TrainStats(
        epoch=epoch,
        loss=float(np.sum(losses) / order.size),
        train_accuracy=correct / order.size,
        eval_accuracy=eval_acc,
        seconds=time.perf_counter() - start,
    )


def train(model, train_xs: np.ndarray, train_labels: np.ndarray,
          test_xs: np.ndarray, test_labels: np.ndarray, *, seed: int = 0,
          log: Optional[Callable[[TrainStats], None]] = None) -> list[TrainStats]:
    """Full training run with the model config's epochs, batch size and RMSProp settings."""
    cfg = model.config
    optimizer = RmsProp(model.named_params(), learning_rate=cfg.learning_rate,
                        rho=cfg.rho, epsilon=cfg.rms_epsilon)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        stats = train_epoch(model, optimizer, train_xs, train_labels,
                            test_xs, test_labels, epoch, cfg.batch_size, seed)
        history.append(stats)
        if log is not None:
            log(stats)
    return history
