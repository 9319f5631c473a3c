"""Command-line interface: synth / train / eval / resources / gradcheck / trace."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import audio, metrics as metrics_mod, optim
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigurationError
from .model import (
    PROFILES,
    ModelConfig,
    build_model,
    count_resources,
    format_resources,
    format_trace,
    get_profile,
    shape_trace,
)

GRADCHECK_THRESHOLD = 1e-4
EXHAUSTIVE_PARAM_LIMIT = 10_000


@dataclass(frozen=True)
class RunConfig:
    profile: str = "desk"
    data: str = ""
    out: str = "."
    learning_rate: float = ModelConfig.learning_rate
    epochs: int = ModelConfig.epochs
    batch_size: int = ModelConfig.batch_size
    seed: int = 0
    rho: float = ModelConfig.rho

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigurationError(f"unknown profile {self.profile!r}")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must be in (0, 1)")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


# each config key parses with the type of its default
_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config(path, command: str = "train", reads=tuple(_KEY_TYPES)) -> RunConfig:
    """Line-oriented `key = value` run configuration for the subcommand `command`.

    Unknown keys, and keys that `command` does not read (not in `reads`), are
    rejected with their line.
    """
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in reads:
            raise ConfigurationError(f"{path}:{lineno}: atcnn {command} does not read {key!r}")
        try:
            values[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return RunConfig(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _run_config(args) -> RunConfig:
    """The --config file (or the defaults) with the subcommand's own options on top.

    `train` reads every key; any other subcommand reads only the keys of its
    own options, and a file key it would ignore is an error.
    """
    cfg = RunConfig()
    if args.config:
        reads = [k for k in _KEY_TYPES if args.command == "train" or hasattr(args, k)]
        cfg = parse_config(args.config, args.command, reads)
    overrides = {key: getattr(args, key) for key in _KEY_TYPES
                 if getattr(args, key, None) is not None}
    return replace(cfg, **overrides)


def _load_split(data: str, model_config, seed: int):
    """The dataset's stratified (train, test) FrameSequence lists."""
    if not data:
        raise ConfigurationError("--data DIR (or a 'data' config key) is required")
    dataset = audio.load_dataset(data, model_config)
    return audio.split_dataset(dataset, fraction=0.8, seed=seed)


def cmd_synth(args) -> int:
    run = _run_config(args)
    profile = get_profile(run.profile)
    spec = audio.default_synth_spec(sample_rate=profile.sample_rate, seed=run.seed)
    manifest = audio.write_synth_dataset(spec, run.out)
    print(f"wrote {sum(spec.counts)} segments, manifest {manifest}")
    return 0


def cmd_train(args) -> int:
    run = _run_config(args)
    model_config = replace(get_profile(run.profile), learning_rate=run.learning_rate,
                           rho=run.rho, epochs=run.epochs, batch_size=run.batch_size)
    train_fs, test_fs = _load_split(run.data, model_config, run.seed)
    model = build_model(model_config, seed=run.seed)

    out_dir = Path(run.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "stats.tsv"
    lines = ["epoch\tloss\ttrain_acc\ttest_acc\tseconds"]

    def log(s: optim.TrainStats):
        line = (f"{s.epoch}\t{s.loss:.6f}\t{s.train_accuracy:.4f}"
                f"\t{s.eval_accuracy:.4f}\t{s.seconds:.2f}")
        lines.append(line)
        print(line)

    print(lines[0])
    history = optim.train(model, *optim.stack_dataset(train_fs),
                          *optim.stack_dataset(test_fs), seed=run.seed, log=log)
    stats_path.write_text("\n".join(lines) + "\n")

    ckpt_path = Path(args.checkpoint) if args.checkpoint else out_dir / "atcnn.ckpt"
    save_checkpoint(model, ckpt_path, seed=run.seed, epoch=history[-1].epoch)
    print(f"checkpoint {ckpt_path}, stats {stats_path}")
    return 0


def cmd_eval(args) -> int:
    run = _run_config(args)
    if not args.checkpoint:
        raise ConfigurationError("--checkpoint PATH is required")
    model, meta = load_checkpoint(args.checkpoint)
    # the split seed is the one the model was trained with, so the test split is held out
    _, test_fs = _load_split(run.data, model.config, meta["seed"])
    test_xs, test_labels = optim.stack_dataset(test_fs)
    count = model.config.class_count
    # manifest names are used only when they name exactly the model's classes
    names = {fs.label: fs.class_name for fs in test_fs}
    class_names = None
    if sorted(names) == list(range(count)):
        class_names = [names[i] for i in range(count)]

    preds = model.predict_batch(test_xs)
    cm = metrics_mod.confusion(preds, test_labels, count, class_names)
    report = metrics_mod.metrics(cm)

    out_dir = Path(run.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(metrics_mod.format_metrics_table(report) + "\n")
    (out_dir / "metrics.kv").write_text(metrics_mod.format_metrics_kv(report) + "\n")
    (out_dir / "confusion.tsv").write_text(metrics_mod.format_confusion(cm) + "\n")
    if args.histograms:
        feats = np.concatenate([model.extract_features(x) for x in test_xs])
        labels = np.repeat(test_labels, model.config.frames_per_segment)
        hists = metrics_mod.feature_histograms(feats, labels)
        (out_dir / "histograms.tsv").write_text(
            metrics_mod.format_histogram_table(hists, cm.class_names) + "\n")
    print(f"test_accuracy={report.accuracy:.4f}")
    return 0


def cmd_resources(args) -> int:
    run = _run_config(args)
    print(format_resources(count_resources(get_profile(run.profile))))
    return 0


def cmd_gradcheck(args) -> int:
    run = _run_config(args)
    config = get_profile(run.profile)
    model = build_model(config, seed=run.seed)
    rng = np.random.default_rng((run.seed, 987))
    xs = rng.standard_normal((1, config.frames_per_segment, config.frame_length))
    labels = rng.integers(0, config.class_count, size=1)
    per_param = None if model.param_count() <= EXHAUSTIVE_PARAM_LIMIT else 4
    err = optim.gradient_check(model, xs, labels, step=1e-5,
                               max_coords_per_param=per_param, seed=run.seed)
    print(f"max relative gradient error: {err:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if err <= GRADCHECK_THRESHOLD else 1


def cmd_trace(args) -> int:
    run = _run_config(args)
    print(format_trace(shape_trace(get_profile(run.profile))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atcnn",
        description="Raw-waveform ship-noise classifier: synthesis, training, "
                    "evaluation, and architecture reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--profile": dict(choices=sorted(PROFILES), help="architecture profile"),
        "--seed": dict(type=int, help="random seed"),
        "--out": dict(help="output directory"),
        "--checkpoint": dict(help="checkpoint path"),
        "--data": dict(help="dataset directory (WAVs + manifest.txt)"),
        "--histograms": dict(action="store_true",
                             help="also export per-feature class histograms"),
    }
    for name, func, names, help_text in (
        ("synth", cmd_synth, "--profile --seed --out", "write a synthetic ship-noise dataset"),
        ("train", cmd_train, "--profile --seed --out --checkpoint --data",
         "train a model and write checkpoint + epoch stats"),
        ("eval", cmd_eval, "--out --checkpoint --data --histograms",
         "evaluate a checkpoint on the held-out split of its training seed"),
        ("resources", cmd_resources, "--profile", "print per-layer mult-adds and parameter counts"),
        ("gradcheck", cmd_gradcheck, "--profile --seed", "finite-difference check of all gradients"),
        ("trace", cmd_trace, "--profile", "print the layer-by-layer shape trace"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="run configuration file (key = value lines)")
        for option in names.split():
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
