"""Raw-audio ingestion and synthesis.

Covers WAV decode/encode (PCM16 mono), 10 s segmentation, Hamming-windowed
framing with per-frame normalization, stratified splitting, and a seeded
synthetic ship-noise generator (machinery tonals + tilted broadband noise
with propeller-style amplitude modulation).

A `FrameSequence` keeps its segment's samples and framing geometry, not its
frames, which at paper scale are 3.6x the samples: the frames are made when
they are read, and `optim.stack_dataset` makes them straight into the
stacked batch, so a loaded dataset holds its samples once and its frames
only there. `load_dataset` keeps PCM16 samples as float32, which holds every
code / 32768 exactly.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, InvalidSpecError, ShapeError
from .tensor_ops import FLOAT, heap_reuse

PCM_SCALE = 32768.0
_CONST_VAR = 1e-30  # below this a windowed frame counts as constant


@dataclass(frozen=True)
class SampleBuffer:
    samples: np.ndarray  # in [-1, 1]; float64 from read_wav
    sample_rate: int


class Framing(NamedTuple):
    """T frames of N samples, `hop` samples apart."""

    frame_length: int  # N
    hop: int
    frames_per_segment: int  # T


@dataclass
class FrameSequence:
    """One segment of the model input X, framed when read.

    Holds its own copy of the segment's samples (float32 or float64) and
    their framing, not the [T, N] frames: `frames` makes them on every
    read, and `frame_into` writes them into a caller's array.
    """

    samples: np.ndarray  # [hop * T]
    framing: Framing
    segment_id: str = ""
    label: int = -1
    class_name: str = ""  # the manifest's name for `label`

    @property
    def frames(self) -> np.ndarray:
        """The windowed, per-frame-normalized frames [T, N], made anew."""
        out = np.empty((self.framing.frames_per_segment, self.framing.frame_length),
                       dtype=FLOAT)
        self.frame_into(out)
        return out

    def frame_into(self, out: np.ndarray) -> None:
        """Write the frames into `out` [T, N], using no other [T, N] array but np.var's.

        Frame t covers samples [t*hop, t*hop + N); samples past the segment
        end are zero. Each frame is Hamming-windowed, mean-removed and
        scaled to unit variance (frames with no variance become all-zero
        rows). The steps are those of the plain formula, in its order, so
        the frames are bitwise the same.
        """
        n, hop, t = self.framing
        needed = (t - 1) * hop + n  # may exceed the segment (zero tail) or fall short of it
        padded = np.zeros(needed, dtype=FLOAT)
        take = min(needed, self.samples.size)
        padded[:take] = self.samples[:take]
        out[...] = sliding_window_view(padded, n)[::hop][:t]
        out *= hamming_window(n)
        mean = out.mean(axis=1, keepdims=True)
        var = out.var(axis=1, keepdims=True)
        live = var > _CONST_VAR
        out -= mean
        out /= np.sqrt(np.where(live, var, 1.0))
        out[~live[:, 0]] = 0.0


def read_wav(path) -> SampleBuffer:
    """Decode a RIFF/WAVE PCM 16-bit mono file; samples scaled by 1/32768."""
    try:
        wav = wave.open(str(path), "rb")
    except wave.Error as exc:
        raise FormatError(f"{path}: bad RIFF/WAVE header (magic/chunks): {exc}") from exc
    with wav:
        if wav.getcomptype() != "NONE":
            raise FormatError(f"{path}: unsupported encoding (compression "
                              f"{wav.getcomptype()!r}), need uncompressed PCM")
        if wav.getsampwidth() != 2:
            raise FormatError(f"{path}: unsupported sample width "
                              f"{8 * wav.getsampwidth()}-bit, need 16-bit PCM")
        if wav.getnchannels() != 1:
            raise FormatError(f"{path}: need mono, file has "
                              f"{wav.getnchannels()} channels")
        n = wav.getnframes()
        if n == 0:
            raise FormatError(f"{path}: file contains no samples")
        raw = wav.readframes(n)
        rate = wav.getframerate()
    samples = np.frombuffer(raw, dtype="<i2").astype(FLOAT) / PCM_SCALE
    return SampleBuffer(samples=samples, sample_rate=rate)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Encode float samples in [-1, 1] as PCM 16-bit mono (inverse of read_wav)."""
    pcm = np.clip(np.round(np.asarray(samples) * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(pcm.tobytes())


def segment_audio(buffer: SampleBuffer, segment_seconds: int = 10) -> list[np.ndarray]:
    """Consecutive non-overlapping windows; trailing partial segment dropped."""
    n = segment_seconds * buffer.sample_rate
    count = len(buffer.samples) // n
    return [buffer.samples[i * n : (i + 1) * n].copy() for i in range(count)]


def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming taper 0.54 - 0.46*cos(2*pi*k/(n-1))."""
    return np.hamming(n).astype(FLOAT)


def frame_segment(segment: np.ndarray, config, segment_id: str = "",
                  label: int = -1) -> FrameSequence:
    """One segment as a FrameSequence of T frames of N samples.

    The FrameSequence keeps a copy of the segment: float32 samples stay
    float32 (framing upcasts them exactly), any others become float64.
    `config` is anything with frame_length / hop / frames_per_segment
    attributes.
    """
    framing = Framing(config.frame_length, config.hop, config.frames_per_segment)
    segment = np.asarray(segment)
    if segment.ndim != 1 or segment.size != framing.hop * framing.frames_per_segment:
        raise ShapeError(f"expected a segment of {framing.hop * framing.frames_per_segment} "
                         f"samples, got {segment.shape}")
    dtype = np.float32 if segment.dtype == np.float32 else FLOAT
    return FrameSequence(samples=np.array(segment, dtype=dtype), framing=framing,
                         segment_id=segment_id, label=label)


def split_dataset(items: list, fraction: float = 0.8, seed: int = 0) -> tuple[list, list]:
    """Stratified split: per class, floor(fraction*n) to train after a seeded shuffle.

    Items need a `label` attribute. Every class must have at least 2 items,
    and the fraction must leave both sides nonempty.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    by_class: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_class.setdefault(item.label, []).append(i)
    for label, idxs in sorted(by_class.items()):
        if len(idxs) < 2:
            raise ValueError(f"class {label} has {len(idxs)} segment(s); need >= 2 to split")
    rng = np.random.default_rng(seed)
    train: list = []
    test: list = []
    for label, idxs in sorted(by_class.items()):
        order = rng.permutation(len(idxs))
        cut = int(np.floor(fraction * len(idxs)))
        train.extend(items[idxs[k]] for k in order[:cut])
        test.extend(items[idxs[k]] for k in order[cut:])
    return train, test


# ---------------------------------------------------------------------------
# Synthetic ship-radiated noise


@dataclass(frozen=True)
class ClassSpec:
    """Acoustic recipe for one vessel class."""

    name: str
    tonals_hz: tuple[float, ...]
    tonal_amps: tuple[float, ...]
    tilt_db_per_octave: float = 0.0
    am_rate_hz: float = 0.0
    am_depth: float = 0.0
    snr_db: Optional[float] = None  # tonal-to-broadband ratio; None = no noise
    jitter: float = 0.0  # relative per-segment tonal frequency spread


@dataclass(frozen=True)
class SynthSpec:
    classes: tuple[ClassSpec, ...]
    counts: tuple[int, ...]
    sample_rate: int = 4800
    duration_s: int = 10
    seed: int = 0


@dataclass
class LabeledSegment:
    samples: np.ndarray
    label: int
    class_name: str
    segment_id: str


def default_synth_spec(sample_rate: int = 4800, counts: tuple[int, ...] = (20, 20, 20),
                       seed: int = 0) -> SynthSpec:
    """Three vessel classes separated by tonal band, spectral tilt and AM rate."""
    classes = (
        ClassSpec(
            name="small_ship",
            tonals_hz=(180.0, 252.0, 333.0, 405.0),
            tonal_amps=(1.0, 0.8, 0.6, 0.45),
            tilt_db_per_octave=-2.0,
            am_rate_hz=7.5,
            am_depth=0.55,
            snr_db=14.0,
            jitter=0.015,
        ),
        ClassSpec(
            name="ferry",
            tonals_hz=(62.0, 95.0, 128.0, 170.0),
            tonal_amps=(1.0, 0.85, 0.65, 0.5),
            tilt_db_per_octave=-4.0,
            am_rate_hz=2.8,
            am_depth=0.4,
            snr_db=14.0,
            jitter=0.015,
        ),
        ClassSpec(
            name="big_ship",
            tonals_hz=(12.0, 22.0, 34.0, 52.0),
            tonal_amps=(1.0, 0.9, 0.75, 0.6),
            tilt_db_per_octave=-7.0,
            am_rate_hz=0.9,
            am_depth=0.35,
            snr_db=12.0,
            jitter=0.015,
        ),
    )
    return SynthSpec(classes=classes, counts=counts, sample_rate=sample_rate, seed=seed)


def _validate_spec(spec: SynthSpec) -> None:
    if len(spec.classes) != len(spec.counts):
        raise InvalidSpecError("one count per class required")
    if any(c < 1 for c in spec.counts):
        raise InvalidSpecError("class counts must be >= 1")
    nyquist = spec.sample_rate / 2.0
    for cls in spec.classes:
        if len(cls.tonals_hz) != len(cls.tonal_amps):
            raise InvalidSpecError(f"{cls.name}: one amplitude per tonal required")
        for f in cls.tonals_hz:
            if f >= nyquist:
                raise InvalidSpecError(
                    f"{cls.name}: tonal {f} Hz is at or above Nyquist ({nyquist} Hz)")


def _tilted_noise(rng: np.random.Generator, n: int, rate: int,
                  tilt_db_per_octave: float) -> np.ndarray:
    white = rng.standard_normal(n)
    if tilt_db_per_octave == 0.0:
        return white
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    f_ref = 50.0
    f_min = max(rate / n, 1.0)
    shaped = np.maximum(freqs, f_min) / f_ref
    # tilt in dB per octave -> amplitude power law
    spectrum *= shaped ** (tilt_db_per_octave / (20.0 * np.log10(2.0)))
    return np.fft.irfft(spectrum, n=n)


def _synth_segment(cls: ClassSpec, rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    t = np.arange(n, dtype=FLOAT) / rate
    signal = np.zeros(n, dtype=FLOAT)
    for f, a in zip(cls.tonals_hz, cls.tonal_amps):
        f_seg = f * (1.0 + cls.jitter * rng.uniform(-1.0, 1.0))
        signal += a * np.sin(2.0 * np.pi * f_seg * t + rng.uniform(0.0, 2.0 * np.pi))
    if cls.snr_db is not None:
        noise = _tilted_noise(rng, n, rate, cls.tilt_db_per_octave)
        p_sig = float(np.mean(signal**2)) or 1.0
        p_noise = float(np.mean(noise**2)) or 1.0
        noise *= np.sqrt(p_sig / (p_noise * 10.0 ** (cls.snr_db / 10.0)))
        signal = signal + noise
    if cls.am_depth > 0.0:
        env = 1.0 + cls.am_depth * np.sin(
            2.0 * np.pi * cls.am_rate_hz * t + rng.uniform(0.0, 2.0 * np.pi))
        signal = signal * env
    peak = float(np.max(np.abs(signal)))
    if peak > 0.0:
        signal *= 0.9 / peak
    return signal


def synth_dataset(spec: SynthSpec) -> list[LabeledSegment]:
    """Deterministic labeled segments; segment k of class c is seeded by
    (dataset seed, c, k) so generation order and parallelism do not matter."""
    _validate_spec(spec)
    n = int(spec.duration_s * spec.sample_rate)
    out: list[LabeledSegment] = []
    with heap_reuse():  # each segment frees its temporaries before the next allocates them
        for ci, (cls, count) in enumerate(zip(spec.classes, spec.counts)):
            for k in range(count):
                rng = np.random.default_rng((spec.seed, ci, k))
                out.append(LabeledSegment(
                    samples=_synth_segment(cls, rng, n, spec.sample_rate),
                    label=ci,
                    class_name=cls.name,
                    segment_id=f"{cls.name}_{k:04d}",
                ))
    return out


def write_synth_dataset(spec: SynthSpec, out_dir) -> Path:
    """Write one WAV per segment plus a manifest; returns the manifest path.

    Manifest lines: relative path, class index, class name (comma-separated).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for seg in synth_dataset(spec):
        rel = f"{seg.segment_id}.wav"
        write_wav(out_dir / rel, seg.samples, spec.sample_rate)
        lines.append(f"{rel},{seg.label},{seg.class_name}")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def load_dataset(data_dir, config) -> list[FrameSequence]:
    """Read a manifest directory into model inputs, one `frame_segment` call per segment.

    Files longer than 10 s contribute one FrameSequence per full segment,
    each carrying its manifest line's class index and class name. The
    samples are kept as float32, which is exact for PCM16; nothing is
    framed until the frames are read or stacked. `config` needs
    sample_rate plus the framing attributes.
    """
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.txt"
    if not manifest.exists():
        raise FormatError(f"{manifest}: manifest not found")
    out: list[FrameSequence] = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise FormatError(f"{manifest}:{lineno}: need 'path,class_index,class_name'")
        rel, label, name = parts[:3]
        try:
            label = int(label)
        except ValueError:
            raise FormatError(
                f"{manifest}:{lineno}: class index {label!r} is not an integer") from None
        buffer = read_wav(data_dir / rel)
        if buffer.sample_rate != config.sample_rate:
            raise FormatError(
                f"{data_dir / rel}: sample rate {buffer.sample_rate} does not match "
                f"the configured {config.sample_rate}")
        buffer = replace(buffer, samples=buffer.samples.astype(np.float32))  # exact for PCM16
        for si, segment in enumerate(segment_audio(buffer)):
            framed = frame_segment(segment, config, segment_id=f"{rel}#{si}", label=label)
            out.append(replace(framed, class_name=name))
    return out
