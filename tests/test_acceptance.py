"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from atcnn import optim, reference
from atcnn.audio import default_synth_spec, frame_segment, split_dataset, synth_dataset
from atcnn.checkpoint import load_checkpoint, save_checkpoint
from atcnn.cli import main
from atcnn.layers import (
    BatchNorm,
    Conv1d,
    DepthwiseConv1d,
    DilatedConv2d,
    Flatten,
    Linear,
    Network,
    Pool2d,
    PointwiseConv,
    ReLU,
)
from atcnn.metrics import confusion, metrics
from atcnn.model import build_model, count_resources, desk_profile, paper_profile
from atcnn.optim import gradient_check


def _report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"{criterion} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_resource_table(capsys):
    start = time.perf_counter()
    rc = main(["resources", "--profile", "paper"])
    out = capsys.readouterr().out
    rows_ok = rc == 0 and all(
        any(str(m) in line and str(p) in line for line in out.splitlines())
        for m, p in ((11520, 832), (122880, 8320), (1920, 2048), (12800, 12900)))
    report = count_resources(paper_profile())
    shares_ok = (abs(report.dws_pointwise_mult_add_share - 0.910) <= 0.001
                 and abs(report.dws_pointwise_param_share - 0.880) <= 0.001)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion 1 (resource table)", rows_ok and shares_ok,
                f"four reference rows exact, pointwise shares "
                f"{100 * report.dws_pointwise_mult_add_share:.1f}% / "
                f"{100 * report.dws_pointwise_param_share:.1f}%", elapsed, 1.0)


def test_criterion_2_shape_trace(capsys):
    start = time.perf_counter()
    rc = main(["trace", "--profile", "paper"])
    out = capsys.readouterr().out
    dilated = ["800x100x1", "776x98x64", "388x49x64", "364x47x128", "182x23x128",
               "158x21x256", "79x10x256", "55x8x512", "27x4x512", "3x2x512", "1x1x512"]
    extractor = ["2176x1", "40x64", "15x64", "15x128", "1x128", "1x100"]
    ok = rc == 0 and all(s in out for s in dilated + extractor) and "-> 3" in out
    # the dilated stages must appear in reference order
    pos = [out.index(s) for s in dilated]
    ok = ok and pos == sorted(pos)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion 2 (shape trace)", ok,
                "all reference extractor and dilated-stack stages present, in order",
                elapsed, 1.0)


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    per_layer = {}
    cases = {
        "conv1d": ([Conv1d(2, 3, 3, 2, rng=rng), Flatten()], (1, 2, 9), 12),
        "depthwise": ([DepthwiseConv1d(3, 3, 2, rng=rng), Flatten()], (1, 3, 9), 12),
        "pointwise": ([PointwiseConv(3, 4, rng=rng), Flatten()], (1, 3, 5), 20),
        "batchnorm": ([BatchNorm(3), Flatten()], (2, 3, 4), 12),
        "relu": ([ReLU()], (1, 8), 8),
        "dilated": ([DilatedConv2d(2, 3, 3, 2, 2, rng=rng), Flatten()], (1, 2, 9, 4), 3),
        "maxpool": ([Pool2d("max"), Flatten()], (1, 2, 4, 4), 8),
        "avgpool": ([Pool2d("avg"), Flatten()], (1, 2, 4, 4), 8),
        "linear": ([Linear(6, 4, rng=rng)], (2, 6), 4),
    }
    for name, (layers, shape, n_classes) in cases.items():
        x = rng.standard_normal(shape)
        x[np.abs(x) < 0.01] += 0.05
        frag = Network(layers)
        per_layer[name] = gradient_check(frag, x, np.array([1] * shape[0]) % n_classes,
                                         step=1e-5)
    layer_ok = all(err <= 1e-6 for err in per_layer.values())

    cfg = desk_profile()
    model = build_model(cfg, seed=1)
    rng_in = np.random.default_rng((0, 987))
    xs = rng_in.standard_normal((1, cfg.frames_per_segment, cfg.frame_length))
    composed = gradient_check(model, xs, np.array([int(rng_in.integers(3))]),
                              step=1e-5, max_coords_per_param=4, seed=0)
    elapsed = time.perf_counter() - start
    worst_layer = max(per_layer.values())
    _report("criterion 3 (gradient correctness)",
            layer_ok and composed <= 1e-4,
            f"per-layer max {worst_layer:.2e} <= 1e-6, composed desk model "
            f"{composed:.2e} <= 1e-4", elapsed, 300.0)


def test_criterion_4_dws_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 6))
        o = int(rng.integers(1, 8))
        k = int(rng.integers(1, 6))
        length = int(rng.integers(k, k + 16))
        dw = DepthwiseConv1d(c, k, 1)
        dw.kernels[:] = rng.standard_normal((c, k))
        pw = PointwiseConv(c, o)
        pw.weights[:] = rng.standard_normal((o, c))
        x = rng.standard_normal((c, length))
        composed = pw.forward(dw.forward(x[np.newaxis]))[0]
        fused = pw.weights[:, :, np.newaxis] * dw.kernels[np.newaxis, :, :]
        standard = reference.conv1d_direct(x, fused, np.zeros(o), 1)
        worst = max(worst, float(np.max(np.abs(composed - standard))))
    elapsed = time.perf_counter() - start
    _report("criterion 4 (DWS equivalence)", worst <= 1e-10,
            f"100 random instances, max |dw+pw - fused standard conv| = {worst:.2e}",
            elapsed, 30.0)


def test_criterion_5_dilation_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 5))
        h = int(rng.integers(4, 12))
        w = int(rng.integers(3, 10))
        layer = DilatedConv2d(c_in, c_out, 3, 3, 1)
        layer.weight[:] = rng.standard_normal(layer.weight.shape)
        layer.bias[:] = rng.standard_normal(c_out)
        x = rng.standard_normal((1, c_in, max(h, 3), max(w, 3)))
        ref = reference.dilated_conv2d_direct(x[0], layer.weight, layer.bias, 1)
        worst = max(worst, float(np.max(np.abs(layer.forward(x)[0] - ref))))
    span_layer = DilatedConv2d(1, 1, 3, 1, 12)
    spans_25 = span_layer.forward(np.zeros((1, 1, 25, 1))).shape[2] == 1
    try:
        span_layer.forward(np.zeros((1, 1, 24, 1)))
        spans_25 = False
    except Exception:
        pass
    elapsed = time.perf_counter() - start
    _report("criterion 5 (dilation reduction)", worst <= 1e-12 and spans_25,
            f"dilation-1 vs standard conv max diff {worst:.2e}; kernel 3 at "
            "dilation 12 spans exactly 25 rows", elapsed, 30.0)


def test_criterion_6_framing():
    start = time.perf_counter()
    cfg = paper_profile()
    rng = np.random.default_rng(6)
    segment = rng.uniform(-0.7, 0.7, cfg.segment_samples)  # 10 s at 48 kHz
    fs = frame_segment(segment, cfg)
    shape_ok = fs.frames.shape == (800, 2176)
    mean_ok = float(np.max(np.abs(fs.frames.mean(axis=1)))) <= 1e-6
    var_ok = float(np.max(np.abs(fs.frames.var(axis=1) - 1.0))) <= 1e-6
    elapsed = time.perf_counter() - start
    _report("criterion 6 (framing)", shape_ok and mean_ok and var_ok,
            "10 s at 48 kHz -> exactly 800 frames of 2176 samples, every frame "
            "mean 0 / variance 1 within 1e-6", elapsed, 5.0)


def test_criterion_7_metrics():
    start = time.perf_counter()
    counts = np.array([[10010, 60, 1062], [58, 10230, 930], [800, 492, 6308]])
    pred, true = [], []
    for t in range(3):
        for p in range(3):
            pred.extend([p] * counts[t, p])
            true.extend([t] * counts[t, p])
    report = metrics(confusion(pred, true, 3, ("small_ship", "ferry", "big_ship")))
    big = report.per_class[2]
    f1_ok = (abs(big.precision - 0.76) < 1e-12 and abs(big.recall - 0.83) < 1e-12
             and abs(big.f1 - 0.7935) <= 0.0005)
    macro_ok = abs(report.macro_f1 - 0.88) <= 0.005
    micro_ok = abs(report.micro_f1 - report.accuracy) <= 1e-12
    elapsed = time.perf_counter() - start
    _report("criterion 7 (metrics)", f1_ok and macro_ok and micro_ok,
            f"P=0.76/R=0.83 -> F1={big.f1:.4f}; macro={report.macro_f1:.4f}; "
            "micro-F1 == accuracy", elapsed, 1.0)


_THREAD_PROBE = """
import dataclasses
import os
import numpy as np
from atcnn.audio import default_synth_spec, frame_segment, split_dataset, synth_dataset
from atcnn.model import build_model, desk_profile
from atcnn import optim

cfg = desk_profile()
spec = default_synth_spec(sample_rate=cfg.sample_rate, counts=(2, 2, 2), seed=7)
frames = [frame_segment(s.samples, cfg, label=s.label) for s in synth_dataset(spec)]
tr, te = split_dataset(frames, fraction=0.8, seed=7)
xs, ys = optim.stack_dataset(tr)
txs, tys = optim.stack_dataset(te)
model = build_model(dataclasses.replace(cfg, epochs=2, batch_size=4), seed=7)
stats = optim.train(model, xs, ys, txs, tys, seed=7)
print([ (s.loss, s.train_accuracy, s.eval_accuracy) for s in stats ])
print(sorted((k, float(v.sum())) for k, v in model.named_params().items())[:5])
"""


def test_criterion_8_learning_end_to_end():
    start = time.perf_counter()
    cfg = desk_profile()
    spec = default_synth_spec(sample_rate=cfg.sample_rate, counts=(20, 20, 20), seed=7)
    frames = [frame_segment(s.samples, cfg, segment_id=s.segment_id, label=s.label)
              for s in synth_dataset(spec)]
    train_fs, test_fs = split_dataset(frames, fraction=0.8, seed=7)
    xs, ys = optim.stack_dataset(train_fs)
    txs, tys = optim.stack_dataset(test_fs)

    model = build_model(dataclasses.replace(cfg, epochs=30, batch_size=8), seed=7)
    history = optim.train(model, xs, ys, txs, tys, seed=7)
    acc_ok = history[-1].eval_accuracy >= 0.90
    loss_ok = history[-1].loss < history[0].loss

    # determinism across reruns: a fresh 3-epoch run reproduces the prefix
    model2 = build_model(dataclasses.replace(cfg, epochs=3, batch_size=8), seed=7)
    prefix = optim.train(model2, xs, ys, txs, tys, seed=7)
    replay_ok = all(
        (a.loss, a.train_accuracy, a.eval_accuracy)
        == (b.loss, b.train_accuracy, b.eval_accuracy)
        for a, b in zip(history[:3], prefix))

    # determinism across BLAS thread counts
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    threads_ok = outputs[0] == outputs[1]

    elapsed = time.perf_counter() - start
    failed = []
    if not acc_ok:
        failed.append(f"accuracy: test accuracy {history[-1].eval_accuracy:.3f} < 0.90 "
                      f"after {len(history)} epochs")
    if not loss_ok:
        failed.append(f"loss: {history[0].loss:.4f} -> {history[-1].loss:.4f} did not fall")
    if not replay_ok:
        failed.append("replay: a fresh 3-epoch run differs from the first 3 epochs")
    if not threads_ok:
        lines = [out.splitlines() for out in outputs]
        first = next((i for i, (a, b) in enumerate(zip(*lines)) if a != b),
                     min(map(len, lines)))
        one, two = (ls[first] if first < len(ls) else "<no line>" for ls in lines)
        failed.append(f"thread count: probe line {first + 1} differs, "
                      f"1 thread: {one} | 2 threads: {two}")
    detail = ("FAILED " + "; ".join(failed) if failed else
              f"test accuracy {history[-1].eval_accuracy:.3f} >= 0.90 after "
              f"{len(history)} epochs, loss {history[0].loss:.3f} -> "
              f"{history[-1].loss:.4f}, rerun and thread-count deterministic")
    _report("criterion 8 (learning end-to-end)",
            acc_ok and loss_ok and replay_ok and threads_ok, detail, elapsed, 900.0)


def test_criterion_9_checkpoint_persistence(tmp_path):
    start = time.perf_counter()
    cfg = desk_profile()
    model = build_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    model.forward_batch(
        rng.standard_normal((2, cfg.frames_per_segment, cfg.frame_length)), train=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, seed=9, epoch=1)
    loaded, _ = load_checkpoint(path)
    ok = True
    for _ in range(10):
        x = rng.standard_normal((cfg.frames_per_segment, cfg.frame_length))
        ok = ok and np.array_equal(model.forward_segment(x), loaded.forward_segment(x))
    elapsed = time.perf_counter() - start
    _report("criterion 9 (persistence)", ok,
            "save/load round trip: bitwise-identical predictions on 10 random segments",
            elapsed, 60.0)


def test_criterion_10_cost_ratio_cross_check():
    start = time.perf_counter()
    rows = {r.name: r for r in count_resources(paper_profile()).rows}
    pairs = [
        # (dw row, pw row, standard-conv mult-adds, formula args)
        ("extractor.1", "extractor.2", 128 * 64 * 12 * 15, (128, 12, 1)),
        ("extractor.3", "extractor.4", 100 * 128 * 15 * 1, (100, 15, 1)),
    ]
    worst = 0.0
    for dw, pw, standard, args in pairs:
        counted = (rows[dw].mult_adds + rows[pw].mult_adds) / standard
        formula = reference.complexity_decline_ratio(*args)
        worst = max(worst, abs(counted - formula) / formula)
    elapsed = time.perf_counter() - start
    _report("criterion 10 (cost-ratio cross-check)", worst <= 0.02,
            f"counted DWS/standard mult-add ratios match the decline formula "
            f"within {100 * worst:.3f}% <= 2%", elapsed, 1.0)
