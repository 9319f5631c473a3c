import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from atcnn import audio, checkpoint
from atcnn.audio import default_synth_spec, write_synth_dataset
from atcnn.checkpoint import load_checkpoint, save_checkpoint
from atcnn.cli import main, parse_config
from atcnn.errors import CheckpointError, ConfigurationError
from atcnn.model import ExtractorLayerSpec, build_model, desk_profile, paper_profile, shape_trace

# sha256 of the stdout of `atcnn <command> --profile <profile>`
REPORT_SHA256 = {
    ("trace", "desk"): "1d623fc32dab2fa04c98c86fc91265b219d798dfa04c516dc1ec8549ff873b19",
    ("resources", "desk"): "c829f3fd97396bf4e5e97683746dffd02f53ef326968b4013d72dedb04f8331f",
    ("trace", "paper"): "de067fb21a36c055fa1e68af724019b1006ac9959cc0449e6662c69f45340830",
    ("resources", "paper"): "1e615590dbf63862c14e1c5a1956c7388e9f820c66fac8fa5f8ea35dda9eecee",
}

# (subcommand, option) pairs that the subcommand does not read
REMOVED_OPTIONS = [
    ("synth", "--checkpoint"), ("synth", "--data"),
    ("eval", "--profile"), ("eval", "--seed"),
    *((command, option) for command in ("resources", "trace")
      for option in ("--seed", "--out", "--checkpoint", "--data")),
    ("gradcheck", "--out"), ("gradcheck", "--checkpoint"), ("gradcheck", "--data"),
]


def _write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, ""))
        assert cfg.learning_rate == 0.001
        assert cfg.epochs == 100
        assert cfg.profile == "desk"

    def test_negative_learning_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            parse_config(_write_config(tmp_path, "learning_rate = -1\n"))

    def test_profile_selection(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, "profile = desk\n"))
        assert cfg.profile == "desk"

    def test_unknown_key_names_line(self, tmp_path):
        with pytest.raises(ConfigurationError, match=":2"):
            parse_config(_write_config(tmp_path, "epochs = 5\nwindow = 3\n"))

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(ConfigurationError, match="epochs"):
            parse_config(_write_config(tmp_path, "epochs = ten\n"))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, "# comment\n\nseed = 4\n"))
        assert cfg.seed == 4


class TestCheckpoint:
    def _random_segments(self, cfg, n, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, cfg.frames_per_segment, cfg.frame_length))

    def test_round_trip_bitwise_predictions(self, tmp_path):
        cfg = desk_profile()
        model = build_model(cfg, seed=5)
        # make running stats non-trivial so the buffers matter
        model.forward_batch(self._random_segments(cfg, 2, seed=1), train=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, seed=5, epoch=3)
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 5, "epoch": 3}
        xs = self._random_segments(cfg, 3, seed=2)
        for x in xs:
            assert np.array_equal(model.forward_segment(x), loaded.forward_segment(x))

    def test_interrupted_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        old = build_model(desk_profile(), seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(old, path, seed=1, epoch=2)
        old_bytes = path.read_bytes()

        def write_half_then_fail(out, tensors):
            out.write(b"\0" * 1000)
            raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint, "_write_tensors", write_half_then_fail)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(build_model(desk_profile(), seed=2), path, seed=2, epoch=9)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]  # no temporary file left
        assert path.read_bytes() == old_bytes
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 1, "epoch": 2}
        for name, arr in old.named_params().items():
            assert np.array_equal(loaded.named_params()[name].view(np.uint64), arr.view(np.uint64))

    def test_load_copies_each_tensor_once(self, tmp_path):
        model = build_model(desk_profile(), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        tensor_bytes = sum(a.nbytes for part in (model.named_params(), model.named_buffers())
                           for a in part.values())
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's bytes plus the model they are copied into, and no third copy
        # of the tensors: a copy per tensor between the two would add a model's size.
        assert peak < path.stat().st_size + 1.5 * tensor_bytes

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(desk_profile(), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        model = build_model(desk_profile(), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(b"XXXXXXXX" + data[8:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_profile_mismatch_names_tensor(self, tmp_path):
        model = build_model(desk_profile(), seed=0)
        model.config = paper_profile()  # embedded config no longer fits the tensors
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="tensor"):
            load_checkpoint(path)

    def test_config_that_does_not_close_names_file_and_stage(self, tmp_path):
        model = build_model(desk_profile(), seed=0)
        model.config = replace(model.config, feature_length=30)  # the extractor yields 25
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        assert "features: extractor yields 25 features, config declares 30" in str(info.value)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    cfg = desk_profile()
    spec = default_synth_spec(sample_rate=cfg.sample_rate, counts=(3, 3, 3), seed=0)
    write_synth_dataset(spec, data_dir)
    return data_dir


class TestCommands:
    def test_resources_paper_reproduces_reference_rows(self, capsys):
        assert main(["resources", "--profile", "paper"]) == 0
        out = capsys.readouterr().out
        for macs, params in ((11520, 832), (122880, 8320), (1920, 2048), (12800, 12900)):
            assert any(str(macs) in line and str(params) in line
                       for line in out.splitlines()), (macs, params)
        assert "91.0%" in out and "88.0%" in out

    def test_trace_paper_matches_reference_stages(self, capsys):
        assert main(["trace", "--profile", "paper"]) == 0
        out = capsys.readouterr().out
        for shape in ("800x100x1", "776x98x64", "388x49x64", "364x47x128",
                      "182x23x128", "158x21x256", "79x10x256", "55x8x512",
                      "27x4x512", "3x2x512", "1x1x512", "2176x1", "40x64"):
            assert shape in out, shape

    @pytest.mark.parametrize("command, profile", sorted(REPORT_SHA256))
    def test_reports_of_built_in_profiles_are_byte_stable(self, capsys, command, profile):
        assert main([command, "--profile", profile]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[(command, profile)]

    def test_trace_names_an_undilated_kernel_as_such(self):
        config = paper_profile()
        extractor = list(config.extractor)
        extractor[3] = ExtractorLayerSpec("dw", kernel=16, stride=1)  # input extent 15
        with pytest.raises(ConfigurationError) as info:
            shape_trace(replace(config, extractor=tuple(extractor)))
        assert str(info.value) == "extractor.3: kernel span 16 (kernel 16) exceeds input extent 15"

    def test_gradcheck_desk(self, capsys):
        assert main(["gradcheck", "--profile", "desk", "--seed", "1"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_synth_writes_dataset(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        assert main(["synth", "--out", str(out_dir), "--seed", "3"]) == 0
        assert (out_dir / "manifest.txt").exists()
        assert len(list(out_dir.glob("*.wav"))) == 60

    def test_train_eval_round_trip(self, small_dataset, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("epochs = 2\nbatch_size = 4\n")
        out_dir = tmp_path / "run1"
        rc = main(["train", "--data", str(small_dataset), "--out", str(out_dir),
                   "--config", str(cfg_path), "--seed", "1"])
        train_out = capsys.readouterr().out
        assert rc == 0
        ckpt = out_dir / "atcnn.ckpt"
        stats = out_dir / "stats.tsv"
        assert ckpt.exists() and stats.exists()
        stat_lines = stats.read_text().strip().splitlines()
        assert stat_lines[0].split("\t") == ["epoch", "loss", "train_acc",
                                             "test_acc", "seconds"]
        assert len(stat_lines) == 3  # header + 2 epochs
        final_test_acc = stat_lines[-1].split("\t")[3]

        # eval re-derives the training split from the checkpoint's seed
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(small_dataset),
                   "--out", str(out_dir), "--histograms"])
        eval_out = capsys.readouterr().out
        assert rc == 0
        assert f"test_accuracy={final_test_acc}" in eval_out
        for artifact in ("metrics.txt", "metrics.kv", "confusion.tsv", "histograms.tsv"):
            assert (out_dir / artifact).exists(), artifact
        # class names come from the synthesized manifest
        names = ["small_ship", "ferry", "big_ship"]
        confusion = (out_dir / "confusion.tsv").read_text().splitlines()
        assert confusion[0].split("\t")[1:] == names
        rows = (out_dir / "metrics.txt").read_text().splitlines()[1:4]
        assert [row.split("\t")[0].split(" ")[0] for row in rows] == names

        # rerun with the same seed: identical artifacts apart from timing
        out_dir2 = tmp_path / "run2"
        assert main(["train", "--data", str(small_dataset), "--out", str(out_dir2),
                     "--config", str(cfg_path), "--seed", "1"]) == 0
        capsys.readouterr()

        def strip_seconds(path):
            return ["\t".join(line.split("\t")[:4]) for line in path.read_text().splitlines()]

        assert strip_seconds(stats) == strip_seconds(out_dir2 / "stats.tsv")
        assert ckpt.read_bytes() == (out_dir2 / "atcnn.ckpt").read_bytes()

    def test_eval_splits_with_the_checkpoint_seed(self, small_dataset, tmp_path,
                                                  monkeypatch, capsys):
        cfg_path = _write_config(tmp_path, "epochs = 1\nbatch_size = 4\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--data", str(small_dataset), "--out", str(out_dir),
                     "--config", str(cfg_path), "--seed", "7"]) == 0
        seeds = []
        split = audio.split_dataset

        def spy(dataset, fraction, seed):
            seeds.append(seed)
            return split(dataset, fraction=fraction, seed=seed)

        monkeypatch.setattr(audio, "split_dataset", spy)
        assert main(["eval", "--checkpoint", str(out_dir / "atcnn.ckpt"),
                     "--data", str(small_dataset), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert seeds == [7]

    @pytest.mark.parametrize("command, option", REMOVED_OPTIONS)
    def test_options_a_subcommand_does_not_read_are_rejected(self, command, option):
        value = "desk" if option == "--profile" else "1"  # a value the option would accept
        with pytest.raises(SystemExit) as exc:
            main([command, option, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, line", [
        ("eval", "seed = 3"), ("eval", "profile = paper"), ("eval", "epochs = 5"),
        ("synth", "batch_size = 4"), ("resources", "seed = 3"), ("gradcheck", "out = run"),
    ])
    def test_config_keys_a_subcommand_does_not_read_are_rejected(self, tmp_path, capsys,
                                                                 command, line):
        cfg_path = _write_config(tmp_path, f"# {command}\n{line}\n")
        assert main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        key = line.split()[0]
        assert f"run.cfg:2: atcnn {command} does not read '{key}'" in err

    def test_command_line_values_are_validated(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_eval_without_checkpoint_fails(self, small_dataset, capsys):
        assert main(["eval", "--data", str(small_dataset)]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--wibble"])
        assert exc.value.code == 2

    def test_missing_data_reports_error(self, capsys):
        assert main(["train", "--out", "/tmp/nowhere"]) == 1
        assert "data" in capsys.readouterr().err
