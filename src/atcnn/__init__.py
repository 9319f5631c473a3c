"""Raw-waveform ship-noise classification.

A learnable per-frame feature extractor built from depthwise-separable 1-d
convolutions feeds a time-dilated 2-d convolution stack and a softmax
classifier; training, audio ingestion, synthetic data, resource accounting
and evaluation metrics are all included.
"""

from .audio import (
    FrameSequence,
    SampleBuffer,
    SynthSpec,
    default_synth_spec,
    frame_segment,
    read_wav,
    segment_audio,
    split_dataset,
    synth_dataset,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .model import (
    Model,
    ModelConfig,
    build_model,
    count_resources,
    desk_profile,
    get_profile,
    paper_profile,
    shape_trace,
)
from .optim import RmsProp, TrainStats, gradient_check, train
from .reference import complexity_decline_ratio, cross_entropy

__all__ = [
    "FrameSequence",
    "Model",
    "ModelConfig",
    "RmsProp",
    "SampleBuffer",
    "SynthSpec",
    "TrainStats",
    "build_model",
    "complexity_decline_ratio",
    "count_resources",
    "cross_entropy",
    "default_synth_spec",
    "desk_profile",
    "frame_segment",
    "get_profile",
    "gradient_check",
    "load_checkpoint",
    "paper_profile",
    "read_wav",
    "save_checkpoint",
    "segment_audio",
    "shape_trace",
    "split_dataset",
    "synth_dataset",
    "train",
]

__version__ = "0.1.0"
