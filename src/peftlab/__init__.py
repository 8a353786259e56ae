"""peftlab: parameter-efficient fine-tuning of a small vision transformer.

Linear probes and low-rank adapters over a self-contained numpy autodiff
engine, plus a deterministic few-shot experiment harness.
"""

from .data import DatasetManifest, Episode, SynthSpec, sample_episode, shot_fraction, synth_generate
from .head import LinearHead, predict_top1
from .lora import AdaptedModel, LoraConfig, LoraPair, inject, kaiming_init, trainable_param_count
from .rng import Rng
from .tensor import Tensor, grad_check
from .train import RunResult, TrainConfig, aggregate, pretrain_backbone, run_experiment
from .vit import PRESETS, ViTConfig, ViTModel, attention_forward, param_count, patchify

__version__ = "0.1.0"

__all__ = [
    "AdaptedModel", "DatasetManifest", "Episode", "LinearHead", "LoraConfig", "LoraPair",
    "PRESETS", "Rng", "RunResult", "SynthSpec", "Tensor", "TrainConfig", "ViTConfig",
    "ViTModel", "aggregate", "attention_forward", "grad_check", "inject", "kaiming_init",
    "param_count", "patchify", "predict_top1", "pretrain_backbone", "run_experiment",
    "sample_episode", "shot_fraction", "synth_generate", "trainable_param_count",
]
