"""Low-rank adaptation of the backbone's attention projections.

Each targeted d x d projection W gets an independent trainable pair
(A: r x n, B: m x r); the adapted projection computes
W x + gamma * B (A x) (two low-rank products plus the host product),
never materializing the m x n delta on the training path. The backbone
takes the pairs as per-block factors (A, B, gamma) through
`ViTModel.forward`, and each pair rides inside its block's
`tensor.attention_block` node; `LoraPair.adapted_forward` runs one
projection alone as a `tensor.lora_linear` node, with the same
arithmetic. gamma = alpha / r, recomputed from config on every use. A
starts Kaiming-uniform (fan-in), B starts at exactly zero, so injection
changes nothing until the first optimizer step. Merging folds gamma*B*A
into W for inference; unmerging subtracts the identical recomputed
quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, StateError
from .rng import Rng
from .tensor import Tensor
from .vit import TARGETS, ViTConfig, ViTModel

_SHORT = {"q": "query", "k": "key", "v": "value", "o": "output"}


def parse_targets(spec: str | tuple | list) -> tuple[str, ...]:
    """Normalize "q,v" / ("query","value") style target sets, order-canonical."""
    if isinstance(spec, str):
        raw = [s.strip() for s in spec.split(",") if s.strip()]
    else:
        raw = list(spec)
    names = []
    for r in raw:
        name = _SHORT.get(r.lower(), r.lower())
        if name not in TARGETS:
            raise ConfigError(f"unknown LoRA target {r!r}; valid: {TARGETS} or q/k/v/o")
        if name not in names:
            names.append(name)
    if not names:
        raise ConfigError("LoRA target set must be non-empty")
    return tuple(t for t in TARGETS if t in names)


@dataclass(frozen=True)
class LoraConfig:
    rank: int
    alpha: float | None = None  # None means alpha = rank, i.e. gamma = 1
    targets: tuple[str, ...] = ("query", "value")
    init_seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        object.__setattr__(self, "targets", parse_targets(self.targets))
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")

    @property
    def effective_alpha(self) -> float:
        return float(self.rank) if self.alpha is None else float(self.alpha)

    @property
    def gamma(self) -> float:
        # recomputed, never stored, so it cannot drift from alpha/rank
        return self.effective_alpha / self.rank

    def validate_for(self, vit: ViTConfig) -> None:
        if self.rank > vit.dim:
            raise ConfigError(f"rank {self.rank} exceeds projection size {vit.dim}")


def kaiming_init(shape: tuple[int, int], seed_or_rng) -> np.ndarray:
    """Kaiming-uniform, fan-in variant: i.i.d. uniform on +-sqrt(6 / fan_in).

    fan_in is the second extent (the input width of the r x n matrix);
    element variance is (2*sqrt(6/n))^2 / 12 = 2/n.
    """
    r, n = shape
    if n < 1:
        raise ConfigError("kaiming_init needs fan_in >= 1")
    rng = seed_or_rng if isinstance(seed_or_rng, Rng) else Rng(int(seed_or_rng))
    bound = float(np.sqrt(6.0 / n))
    return rng.uniform((r, n), low=-bound, high=bound)


class LoraPair:
    """One (A, B) factor pair adapting a frozen host projection W."""

    def __init__(self, host: Tensor, a: Tensor, b: Tensor, cfg: LoraConfig, key: str):
        self.host = host
        self.A = a
        self.B = b
        self.cfg = cfg
        self.key = key
        self.merged = False

    def delta(self) -> np.ndarray:
        """gamma * B A, materialized (merge/verification only, rank <= r)."""
        return self.cfg.gamma * (self.B.data @ self.A.data)

    def factors(self) -> tuple[Tensor, Tensor, float]:
        """(A, B, gamma): what `T.lora_linear` adds to the host projection."""
        return self.A, self.B, self.cfg.gamma

    def adapted_forward(self, x: Tensor) -> Tensor:
        """W x + gamma * B (A x), gradients flowing to A and B only."""
        if self.merged:
            raise StateError(f"{self.key}: adapted forward on a merged pair; use the plain weight")
        return T.lora_linear(x, self.host, *self.factors())

    def merge(self) -> None:
        if self.merged:
            raise StateError(f"{self.key}: already merged")
        self.host.data = self.host.data + self.delta().astype(self.host.data.dtype)
        self.merged = True

    def unmerge(self) -> None:
        if not self.merged:
            raise StateError(f"{self.key}: not merged")
        self.host.data = self.host.data - self.delta().astype(self.host.data.dtype)
        self.merged = False


class AdaptedModel:
    """Backbone plus injected LoRA pairs; only the pairs are trainable."""

    def __init__(self, base: ViTModel, cfg: LoraConfig, pairs: dict[tuple[int, str], LoraPair]):
        self.base = base
        self.cfg = cfg
        self.pairs = pairs

    @property
    def config(self) -> ViTConfig:
        return self.base.config

    def trainable_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for (i, target), pair in self.pairs.items():
            out[f"block{i}.{target}.lora_A"] = pair.A
            out[f"block{i}.{target}.lora_B"] = pair.B
        return out

    def forward(self, images) -> Tensor:
        """Backbone forward with every unmerged pair on its projection;
        a merged pair is already folded into its host weight."""
        adapters: list[dict] = [{} for _ in self.base.blocks]
        for (i, target), pair in self.pairs.items():
            if not pair.merged:
                adapters[i][target] = pair.factors()
        return self.base.forward(images, adapters)

    def merge_all(self) -> None:
        for pair in self.pairs.values():
            pair.merge()

    def unmerge_all(self) -> None:
        for pair in self.pairs.values():
            pair.unmerge()


def inject(model: ViTModel, cfg: LoraConfig, debug_nonzero_b: bool = False) -> AdaptedModel:
    """Attach one LoraPair per (block, target); freezes the backbone.

    `debug_nonzero_b` deliberately violates the zero-init contract so the
    verify suite can prove its zero-init check actually fires.
    """
    cfg.validate_for(model.config)
    model.set_trainable(False)
    dt = model.dtype
    pairs: dict[tuple[int, str], LoraPair] = {}
    root = Rng(cfg.init_seed)
    d = model.config.dim
    for i, blk in enumerate(model.blocks):
        for target in cfg.targets:
            host = blk.proj_weight(target)
            key = f"block{i}.{target}"
            a = Tensor(kaiming_init((cfg.rank, d), root.derive(i, target)).astype(dt),
                       requires_grad=True, name=key + ".lora_A")
            b_data = np.zeros((d, cfg.rank), dtype=dt)
            if debug_nonzero_b:
                b_data += dt.type(1e-3)
            b = Tensor(b_data, requires_grad=True, name=key + ".lora_B")
            pairs[(i, target)] = LoraPair(host, a, b, cfg, key)
    return AdaptedModel(model, cfg, pairs)


def trainable_param_count(cfg: LoraConfig, vit: ViTConfig, include_head: tuple[int, int] | None = None) -> int:
    """Closed-form trainable count: L * |targets| * r * (m + n), plus c*n for a head.

    All adapted projections are square (m = n = dim).
    """
    cfg.validate_for(vit)
    n = m = vit.dim
    total = vit.depth * len(cfg.targets) * cfg.rank * (m + n)
    if include_head is not None:
        c, hn = include_head
        total += c * hn
    return total
