import struct
import tracemalloc
import wave

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from atcnn import audio
from atcnn.audio import (
    ClassSpec,
    SampleBuffer,
    SynthSpec,
    default_synth_spec,
    frame_segment,
    hamming_window,
    load_dataset,
    read_wav,
    segment_audio,
    split_dataset,
    synth_dataset,
    write_synth_dataset,
    write_wav,
)
from atcnn.errors import FormatError, InvalidSpecError, ShapeError
from atcnn.model import desk_profile, paper_profile
from atcnn.optim import stack_dataset


def _write_pcm16(path, samples_i16, rate=48000, channels=1):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(np.asarray(samples_i16, dtype="<i2").tobytes())


class TestReadWav:
    def test_header_rate_echo(self, tmp_path):
        p = tmp_path / "a.wav"
        _write_pcm16(p, [0, 1, -1], rate=48000)
        assert read_wav(p).sample_rate == 48000

    def test_full_scale_scaling(self, tmp_path):
        p = tmp_path / "b.wav"
        _write_pcm16(p, [0x7FFF, -0x8000])
        buf = read_wav(p)
        assert buf.samples[0] == pytest.approx(32767.0 / 32768.0, abs=1e-12)
        assert buf.samples[1] == -1.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.wav"
        good = tmp_path / "good.wav"
        _write_pcm16(good, [0, 0, 0])
        p.write_bytes(b"RIFX" + good.read_bytes()[4:])
        with pytest.raises(FormatError):
            read_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "d.wav"
        _write_pcm16(p, [0, 0, 0, 0], channels=2)
        with pytest.raises(FormatError, match="mono"):
            read_wav(p)

    def test_non_16bit_rejected(self, tmp_path):
        p = tmp_path / "e.wav"
        with wave.open(str(p), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(1)
            wav.setframerate(8000)
            wav.writeframes(b"\x00\x01\x02")
        with pytest.raises(FormatError, match="16-bit"):
            read_wav(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "f.wav"
        x = 0.9 * np.sin(np.linspace(0, 20, 4800))
        write_wav(p, x, 4800)
        buf = read_wav(p)
        assert buf.sample_rate == 4800
        # quantization only: write rounds to the grid read divides by
        assert np.max(np.abs(buf.samples - x)) <= 0.5 / 32768.0


class TestSegmentAudio:
    def test_25s_gives_two_segments(self):
        buf = SampleBuffer(np.zeros(25 * 48000), 48000)
        segments = segment_audio(buf)
        assert len(segments) == 2
        assert all(len(s) == 480000 for s in segments)

    def test_exactly_10s(self):
        assert len(segment_audio(SampleBuffer(np.zeros(480000), 48000))) == 1

    def test_just_under_10s_discarded(self):
        assert segment_audio(SampleBuffer(np.zeros(480000 - 480), 48000)) == []

    def test_length_conservation_up_to_tail(self):
        buf = SampleBuffer(np.zeros(37 * 4800 + 123), 4800)
        segments = segment_audio(buf)
        assert sum(len(s) for s in segments) == 3 * 48000


class TestFrameSegment:
    def test_paper_framing_count_and_normalization(self):
        cfg = paper_profile()
        rng = np.random.default_rng(0)
        fs = frame_segment(rng.uniform(-0.5, 0.5, cfg.hop * cfg.frames_per_segment), cfg)
        assert fs.frames.shape == (800, 2176)
        assert np.max(np.abs(fs.frames.mean(axis=1))) <= 1e-6
        assert np.max(np.abs(fs.frames.var(axis=1) - 1.0)) <= 1e-6

    def test_frame_offsets_and_window(self):
        cfg = desk_profile()
        rng = np.random.default_rng(1)
        segment = rng.uniform(-0.5, 0.5, cfg.hop * cfg.frames_per_segment)
        fs = frame_segment(segment, cfg)
        window = hamming_window(cfg.frame_length)
        for t in (0, 3, 99):
            raw = segment[t * cfg.hop : t * cfg.hop + cfg.frame_length] * window
            expect = (raw - raw.mean()) / raw.std()
            assert np.allclose(fs.frames[t], expect, atol=1e-12)

    def test_final_frames_draw_zeros_past_end(self):
        # full-size geometry: 2176 + 799*600 = 481576 > 480000
        cfg = paper_profile()
        samples = cfg.hop * cfg.frames_per_segment
        assert (cfg.frames_per_segment - 1) * cfg.hop + cfg.frame_length > samples
        segment = np.ones(samples)
        fs = frame_segment(segment, cfg)
        assert fs.frames.shape == (800, 2176)

    def test_hamming_endpoints(self):
        w = hamming_window(2176)
        assert w[0] == pytest.approx(0.08, abs=1e-12)
        assert w[-1] == pytest.approx(0.08, abs=1e-12)

    def test_all_zero_segment_gives_zero_frames(self):
        cfg = desk_profile()
        fs = frame_segment(np.zeros(cfg.hop * cfg.frames_per_segment), cfg)
        assert not fs.frames.any()

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            frame_segment(np.zeros(100), desk_profile())


class TestSynth:
    def test_determinism(self):
        spec = default_synth_spec(seed=11)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))

    def test_pure_tonal_dft_peak(self):
        spec = SynthSpec(
            classes=(ClassSpec(name="tone", tonals_hz=(100.0,), tonal_amps=(1.0,)),),
            counts=(1,), sample_rate=4800, seed=0)
        seg = synth_dataset(spec)[0]
        mags = np.abs(np.fft.rfft(seg.samples))
        freqs = np.fft.rfftfreq(seg.samples.size, 1.0 / 4800)
        assert freqs[int(mags.argmax())] == pytest.approx(100.0, abs=1e-9)

    def test_counts_and_balance(self):
        spec = default_synth_spec(counts=(10, 10, 10), seed=1)
        segments = synth_dataset(spec)
        assert len(segments) == 30
        assert np.bincount([s.label for s in segments]).tolist() == [10, 10, 10]

    def test_peak_normalized(self):
        for seg in synth_dataset(default_synth_spec(counts=(2, 2, 2), seed=2)):
            assert np.max(np.abs(seg.samples)) <= 0.9 + 1e-12

    def test_nyquist_violation(self):
        spec = SynthSpec(
            classes=(ClassSpec(name="bad", tonals_hz=(2400.0,), tonal_amps=(1.0,)),),
            counts=(1,), sample_rate=4800)
        with pytest.raises(InvalidSpecError):
            synth_dataset(spec)

    def test_centroid_threshold_classifier_separates_classes(self):
        """Guards the default spec: a trivial spectral-centroid rule >= 80%."""
        spec = default_synth_spec(seed=5)
        segments = synth_dataset(spec)
        rate = spec.sample_rate

        def centroid(x):
            mags = np.abs(np.fft.rfft(x))
            freqs = np.fft.rfftfreq(x.size, 1.0 / rate)
            return float((freqs * mags).sum() / mags.sum())

        cents = np.array([centroid(s.samples) for s in segments])
        labels = np.array([s.label for s in segments])
        means = np.array([cents[labels == c].mean() for c in range(3)])
        preds = np.abs(cents[:, None] - means[None, :]).argmin(axis=1)
        assert (preds == labels).mean() >= 0.8


class TestSplit:
    class Item:
        def __init__(self, label):
            self.label = label

    def test_ten_segments_split_8_2(self):
        items = [self.Item(0) for _ in range(10)]
        train, test = split_dataset(items, fraction=0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_stratified_per_class(self):
        items = [self.Item(i % 3) for i in range(30)]
        train, test = split_dataset(items, fraction=0.8, seed=1)
        for c in range(3):
            assert sum(1 for i in train if i.label == c) == 8
            assert sum(1 for i in test if i.label == c) == 2

    def test_union_is_partition(self):
        items = [self.Item(i % 2) for i in range(9)]
        train, test = split_dataset(items, fraction=0.8, seed=2)
        assert len(train) + len(test) == len(items)
        assert {id(i) for i in train} | {id(i) for i in test} == {id(i) for i in items}
        assert {id(i) for i in train} & {id(i) for i in test} == set()

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            split_dataset([self.Item(0), self.Item(0)], fraction=1.0)

    def test_small_class_rejected(self):
        with pytest.raises(ValueError):
            split_dataset([self.Item(0), self.Item(0), self.Item(1)])


class TestDatasetFiles:
    def test_write_and_load_round_trip(self, tmp_path):
        cfg = desk_profile()
        spec = default_synth_spec(sample_rate=cfg.sample_rate, counts=(2, 2, 2), seed=3)
        manifest = write_synth_dataset(spec, tmp_path)
        assert manifest.exists()
        lines = manifest.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].count(",") == 2
        frames = load_dataset(tmp_path, cfg)
        assert len(frames) == 6
        assert sorted({f.label for f in frames}) == [0, 1, 2]
        assert frames[0].frames.shape == (cfg.frames_per_segment, cfg.frame_length)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path, desk_profile())

    def test_non_integer_class_index_names_line(self, tmp_path):
        spec = default_synth_spec(sample_rate=4800, counts=(2, 2, 2), seed=3)
        manifest = write_synth_dataset(spec, tmp_path)
        lines = manifest.read_text().splitlines()
        rel, _, name = lines[1].split(",")
        lines[1] = f"{rel},x,{name}"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"manifest\.txt:2: class index 'x'"):
            load_dataset(tmp_path, desk_profile())

    def test_rate_mismatch_rejected(self, tmp_path):
        spec = default_synth_spec(sample_rate=4800, counts=(2, 2, 2), seed=3)
        write_synth_dataset(spec, tmp_path)
        with pytest.raises(FormatError, match="sample rate"):
            load_dataset(tmp_path, paper_profile())


def _write_clips(directory, rate, clips):
    """One PCM16 WAV per (int16 samples, label) clip, plus the manifest naming them."""
    lines = []
    for i, (pcm, label) in enumerate(clips):
        _write_pcm16(directory / f"clip{i}.wav", pcm, rate=rate)
        lines.append(f"clip{i}.wav,{label},class{label}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def _clips(cfg, seconds_and_labels, seed=0):
    """Full-range random PCM16 clips whose last 3 s are silent, so some frames have no variance."""
    rng = np.random.default_rng(seed)
    clips = []
    for seconds, label in seconds_and_labels:
        pcm = rng.integers(-32768, 32768, seconds * cfg.sample_rate).astype("<i2")
        pcm[-3 * cfg.sample_rate :] = 0
        clips.append((pcm, label))
    return clips


def _eager_frames(segment, cfg):
    """The framing `frame_segment` did eagerly before frames were made when read."""
    n, hop, t = cfg.frame_length, cfg.hop, cfg.frames_per_segment
    segment = np.asarray(segment, dtype=np.float64)
    needed = (t - 1) * hop + n
    padded = np.zeros(needed, dtype=np.float64)
    take = min(needed, segment.size)
    padded[:take] = segment[:take]
    frames = sliding_window_view(padded, n)[::hop][:t].copy()
    frames *= hamming_window(n)
    mean = frames.mean(axis=1, keepdims=True)
    var = frames.var(axis=1, keepdims=True)
    live = var > 1e-30
    return np.where(live, (frames - mean) / np.sqrt(np.where(live, var, 1.0)), 0.0)


class TestFramedWhenRead:
    """Loaded segments keep float32 samples; frames are made into the stacked batch."""

    # desk: a 25 s clip (two segments and a dropped tail), 10 s and 12 s clips;
    # paper: one 20 s clip, two segments
    CLIPS = {"desk": [(25, 0), (10, 1), (12, 2)], "paper": [(20, 1)]}

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_stacked_batch_equals_eager_framing_bitwise(self, tmp_path, profile):
        cfg = {"desk": desk_profile, "paper": paper_profile}[profile]()
        _write_clips(tmp_path, cfg.sample_rate, _clips(cfg, self.CLIPS[profile]))
        dataset = load_dataset(tmp_path, cfg)
        xs, labels = stack_dataset(dataset)
        expect = np.stack([
            _eager_frames(segment, cfg)
            for i in range(len(self.CLIPS[profile]))
            for segment in segment_audio(read_wav(tmp_path / f"clip{i}.wav"))])
        assert xs.shape == expect.shape
        assert not xs[-1, -1].any()  # the silent tail gives all-zero rows
        assert np.array_equal(xs.view(np.uint64), expect.view(np.uint64))
        assert np.array_equal(labels, [fs.label for fs in dataset])
        for fs, row in zip(dataset, xs):
            assert fs.samples.dtype == np.float32
            assert np.array_equal(fs.frames.view(np.uint64), row.view(np.uint64))

    def test_every_pcm16_code_round_trips_through_float32(self, tmp_path):
        path = tmp_path / "codes.wav"
        _write_pcm16(path, np.arange(-32768, 32768))
        samples = read_wav(path).samples
        assert np.unique(samples).size == 65536
        back = samples.astype(np.float32).astype(np.float64)
        assert np.array_equal(back.view(np.uint64), samples.view(np.uint64))

    def test_load_and_stack_peak_within_twice_the_batch(self, tmp_path):
        # Holding every segment's frames and then copying them into the batch
        # peaks above twice the batch; framing into the batch stays below.
        cfg = paper_profile()
        _write_clips(tmp_path, cfg.sample_rate, _clips(cfg, self.CLIPS["paper"]))
        tracemalloc.start()
        try:
            xs, _ = stack_dataset(load_dataset(tmp_path, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.shape[0] == 2
        assert peak <= 2 * xs.nbytes, f"peak {peak / 2**20:.1f} MiB, batch {xs.nbytes / 2**20:.1f}"

    def test_load_dataset_calls_frame_segment_once_per_segment(self, tmp_path, monkeypatch):
        # the benchmark's tracer times framing by wrapping this module attribute
        cfg = desk_profile()
        _write_clips(tmp_path, cfg.sample_rate, _clips(cfg, self.CLIPS["desk"]))
        calls = []
        original = audio.frame_segment

        def counted(*args, **kwargs):
            calls.append(kwargs["segment_id"])
            return original(*args, **kwargs)

        monkeypatch.setattr(audio, "frame_segment", counted)
        dataset = load_dataset(tmp_path, cfg)
        assert calls == [fs.segment_id for fs in dataset]
        assert calls == ["clip0.wav#0", "clip0.wav#1", "clip1.wav#0", "clip2.wav#0"]

    def test_segment_is_copied_not_aliased(self):
        cfg = desk_profile()
        for dtype in (np.float64, np.float32):
            segment = np.random.default_rng(2).uniform(-0.5, 0.5, cfg.hop * cfg.frames_per_segment)
            segment = segment.astype(dtype)
            fs = frame_segment(segment, cfg)
            before = fs.frames
            segment[:] = 0.0
            assert fs.samples.dtype == dtype
            assert np.array_equal(fs.frames, before)
