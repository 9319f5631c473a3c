"""Versioned binary checkpoint container.

Layout: magic, version, JSON-serialized model config, training metadata,
then length-prefixed named float64 tensors (parameters, then batch-norm
running statistics). Loading verifies every byte so truncation or a shape
mismatch against the embedded configuration fails loudly.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigurationError
from .model import DilatedBlockSpec, ExtractorLayerSpec, Model, ModelConfig, build_model
from .tensor_ops import FLOAT

MAGIC = b"ATCNNCK\x01"
VERSION = 1


def _config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    d["extractor"] = tuple(ExtractorLayerSpec(**e) for e in d["extractor"])
    d["dilated"] = tuple(DilatedBlockSpec(**b) for b in d["dilated"])
    return ModelConfig(**d)


def _write_tensors(out: io.BufferedWriter, tensors: dict[str, np.ndarray]) -> None:
    out.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=FLOAT)
        out.write(struct.pack("<H", len(encoded)))
        out.write(encoded)
        out.write(struct.pack("<B", arr.ndim))
        out.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.write(arr.tobytes())


def save_checkpoint(model: Model, path, seed: int = 0, epoch: int = 0) -> None:
    """Write `model` to `path`, replacing any old file there only once the new
    one is whole: the bytes go to a sibling temporary file first."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(MAGIC)
            out.write(struct.pack("<I", VERSION))
            blob = json.dumps(asdict(model.config)).encode("utf-8")
            out.write(struct.pack("<I", len(blob)))
            out.write(blob)
            out.write(struct.pack("<qI", seed, epoch))
            _write_tensors(out, model.named_params())
            _write_tensors(out, model.named_buffers())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        """The next `n` bytes, as a view into the file's bytes (no copy)."""
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint "
                                  f"(wanted {n} bytes at offset {self.pos})")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_tensors(r: _Reader) -> dict[str, np.ndarray]:
    """Name -> read-only view of each stored tensor in the file's bytes."""
    (count,) = r.unpack("<I")
    out = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = str(r.take(name_len), "utf-8")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        size = int(np.prod(shape))
        out[name] = np.frombuffer(r.take(size * 8), dtype=FLOAT).reshape(shape)
    return out


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint; bitwise round trip of all tensors.

    The model is built from the embedded config, and every stored tensor
    must match it; the first mismatched tensor, or the first stage of a
    config that does not close, is named in the error.
    Returns (model, {"seed": training seed, "epoch": last epoch}).
    """
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (blob_len,) = r.unpack("<I")
    try:
        config = _config_from_dict(json.loads(str(r.take(blob_len), "utf-8")))
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"{path}: unreadable config block: {exc}") from exc
    seed, epoch = r.unpack("<qI")
    params = _read_tensors(r)
    buffers = _read_tensors(r)
    if r.pos != len(r.data):
        raise CheckpointError(f"{path}: {len(r.data) - r.pos} trailing bytes")

    try:
        model = build_model(config, seed=0)
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: stored config does not close: {exc}") from exc
    for target, stored in ((model.named_params(), params), (model.named_buffers(), buffers)):
        for name, arr in target.items():
            if name not in stored:
                raise CheckpointError(f"{path}: tensor {name!r} missing from checkpoint")
            if stored[name].shape != arr.shape:
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {stored[name].shape}, "
                    f"model expects {arr.shape}")
            arr[:] = stored[name]
        extra = set(stored) - set(target)
        if extra:
            raise CheckpointError(f"{path}: unexpected tensor {sorted(extra)[0]!r}")
    return model, {"seed": seed, "epoch": epoch}
