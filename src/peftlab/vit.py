"""Vision transformer backbone: maps an image to one feature vector.

Pre-norm blocks, class-token readout, learned positional embeddings,
no bias on the four attention projections (query/key/value/output each
is a single d x d matrix so a low-rank delta attaches cleanly); the MLP
keeps its biases. The "tiny" preset trains at desk scale; "B16-shape"
and "L14-shape" exist only for parameter accounting.

A block is two tape nodes, `T.attention_block` and `T.mlp_block`, and
the token embedding is one, `T.embed`; their intermediates never become
graph tensors.

Only the class token is read out, so the last block updates only the
class token (as in CaiT's class-attention layers): every token goes
through LN1 and the key and value projections, but the query, the
attention core, the output projection, the residual and the MLP run on
the class-token row alone. This is exact in real arithmetic, but not
bit-exact: BLAS may round a product over the B class-token rows
differently from the same rows of a product over all B x T tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .rng import Rng
from .tensor import Tensor

TARGETS = ("query", "key", "value", "output")

_INIT_STD = 0.02


@dataclass(frozen=True)
class ViTConfig:
    image_size: int
    patch_size: int
    channels: int
    dim: int
    depth: int
    heads: int
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        for name in ("image_size", "patch_size", "channels", "dim", "depth", "heads", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


PRESETS = {
    "tiny": ViTConfig(image_size=32, patch_size=8, channels=1, dim=32, depth=2, heads=2, mlp_ratio=4),
    "B16-shape": ViTConfig(image_size=224, patch_size=16, channels=3, dim=768, depth=12, heads=12),
    "L14-shape": ViTConfig(image_size=224, patch_size=14, channels=3, dim=1024, depth=24, heads=16),
}


def preset(name: str) -> ViTConfig:
    for key, cfg in PRESETS.items():
        if key.lower() == name.lower():
            return cfg
    raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")


def patchify(image, patch_size: int):
    """Split (..., C, H, W) into (..., P, p*p*C) rows of non-overlapping patches.

    Patches are ordered row-major over the patch grid; each patch vector
    is channel-major: all pixels of channel 0 (row-major within the
    patch), then channel 1, and so on.
    """
    if isinstance(image, Tensor):
        shp = image.shape
    else:
        image = np.asarray(image)
        shp = image.shape
    if len(shp) not in (3, 4):
        raise DimensionError(f"patchify expects (C,H,W) or (B,C,H,W), got {shp}")
    c, h, w = shp[-3:]
    p = patch_size
    if h != w or h % p != 0:
        raise ConfigError(f"image {h}x{w} not divisible into {p}x{p} patches")
    g = h // p
    lead = shp[:-3]
    nl = len(lead)
    # (..., C, g, p, g, p) -> (..., g, g, C, p, p) -> (..., g*g, C*p*p)
    axes = tuple(range(nl)) + (nl + 1, nl + 3, nl, nl + 2, nl + 4)
    if isinstance(image, Tensor):
        x = T.reshape(image, lead + (c, g, p, g, p))
        x = T.transpose(x, axes)
        return T.reshape(x, lead + (g * g, c * p * p))
    x = image.reshape(lead + (c, g, p, g, p)).transpose(axes)
    return np.ascontiguousarray(x).reshape(lead + (g * g, c * p * p))


class AttentionBlock:
    """One pre-norm transformer block's weights."""

    def __init__(self, params: dict[str, Tensor]):
        self.ln1_g = params["ln1.g"]
        self.ln1_b = params["ln1.b"]
        self.Wq = params["attn.Wq"]
        self.Wk = params["attn.Wk"]
        self.Wv = params["attn.Wv"]
        self.Wo = params["attn.Wo"]
        self.ln2_g = params["ln2.g"]
        self.ln2_b = params["ln2.b"]
        self.mlp_W1 = params["mlp.W1"]
        self.mlp_b1 = params["mlp.b1"]
        self.mlp_W2 = params["mlp.W2"]
        self.mlp_b2 = params["mlp.b2"]

    def proj_weight(self, target: str) -> Tensor:
        try:
            return {"query": self.Wq, "key": self.Wk, "value": self.Wv, "output": self.Wo}[target]
        except KeyError:
            raise ConfigError(f"unknown projection target {target!r}; have {TARGETS}")

    def named(self) -> dict[str, Tensor]:
        return {
            "ln1.g": self.ln1_g, "ln1.b": self.ln1_b,
            "attn.Wq": self.Wq, "attn.Wk": self.Wk, "attn.Wv": self.Wv, "attn.Wo": self.Wo,
            "ln2.g": self.ln2_g, "ln2.b": self.ln2_b,
            "mlp.W1": self.mlp_W1, "mlp.b1": self.mlp_b1,
            "mlp.W2": self.mlp_W2, "mlp.b2": self.mlp_b2,
        }


def attention_forward(block: AttentionBlock, tokens: Tensor, heads: int, adapters=None,
                      cls_only: bool = False) -> Tensor:
    """Pre-norm multi-head self-attention sub-block: x + Wo attn(LN(x)),
    one `T.attention_block` node.

    Scores are softmax(Q K^T / sqrt(d/H)) per head; heads are
    concatenated and projected by the output matrix. `adapters` maps a
    projection target ("query", ...) to LoRA factors (A, B, gamma); such
    a projection is W x + gamma * B (A x), and every other projection is
    plain. With `cls_only`, every token still gives keys and values, but
    only the class token (row 0) queries and is updated: the result has
    one token row.
    """
    squeeze = tokens.data.ndim == 2
    x = T.reshape(tokens, (1,) + tokens.shape) if squeeze else tokens
    weights = [block.proj_weight(t) for t in TARGETS]
    lora = [adapters.get(t) for t in TARGETS] if adapters else None
    res = T.attention_block(x, block.ln1_g, block.ln1_b, weights, heads, lora, cls_only)
    return T.reshape(res, res.shape[1:]) if squeeze else res


def block_forward(block: AttentionBlock, x: Tensor, heads: int, adapters=None,
                  cls_only: bool = False) -> Tensor:
    """Full block: attention sub-block, then the pre-norm MLP sub-block
    with its residual (one `T.mlp_block` node). `cls_only` as in
    `attention_forward`."""
    x = attention_forward(block, x, heads, adapters, cls_only)
    return T.mlp_block(x, block.ln2_g, block.ln2_b,
                       block.mlp_W1, block.mlp_b1, block.mlp_W2, block.mlp_b2)


class ViTModel:
    """Backbone weights plus the forward pass producing features z.

    Parameters are plain Tensors; requires_grad doubles as the
    trainable/frozen flag. Forward never mutates weights, so concurrent
    evaluation is safe; training takes exclusive access.
    """

    def __init__(self, config: ViTConfig, params: dict[str, Tensor]):
        self.config = config
        self.patch_W = params["patch_embed.W"]
        self.patch_b = params["patch_embed.b"]
        self.cls_token = params["cls_token"]
        self.pos_embed = params["pos_embed"]
        self.blocks = [
            AttentionBlock({k.split(".", 1)[1]: v for k, v in params.items()
                            if k.startswith(f"block{i}.")})
            for i in range(config.depth)
        ]
        self.final_g = params["final_norm.g"]
        self.final_b = params["final_norm.b"]

    @classmethod
    def init(cls, config: ViTConfig, seed: int, precision: str = "f64") -> "ViTModel":
        """Fresh seeded init: Gaussian std 0.02 weights, zero biases, unit norms."""
        dt = T.resolve_dtype(precision)
        rng = Rng(seed)
        d, pd, ratio = config.dim, config.patch_dim, config.mlp_ratio

        def gauss(name, shape):
            return Tensor(rng.derive(name).normal(shape, std=_INIT_STD, dtype=dt),
                          requires_grad=True, name=name)

        def const(name, shape, value):
            return Tensor(np.full(shape, value, dtype=dt), requires_grad=True, name=name)

        params: dict[str, Tensor] = {
            "patch_embed.W": gauss("patch_embed.W", (d, pd)),
            "patch_embed.b": const("patch_embed.b", (d,), 0.0),
            "cls_token": gauss("cls_token", (1, d)),
            "pos_embed": gauss("pos_embed", (config.num_tokens, d)),
        }
        for i in range(config.depth):
            pre = f"block{i}."
            params[pre + "ln1.g"] = const(pre + "ln1.g", (d,), 1.0)
            params[pre + "ln1.b"] = const(pre + "ln1.b", (d,), 0.0)
            for tag in ("Wq", "Wk", "Wv", "Wo"):
                params[pre + "attn." + tag] = gauss(pre + "attn." + tag, (d, d))
            params[pre + "ln2.g"] = const(pre + "ln2.g", (d,), 1.0)
            params[pre + "ln2.b"] = const(pre + "ln2.b", (d,), 0.0)
            params[pre + "mlp.W1"] = gauss(pre + "mlp.W1", (ratio * d, d))
            params[pre + "mlp.b1"] = const(pre + "mlp.b1", (ratio * d,), 0.0)
            params[pre + "mlp.W2"] = gauss(pre + "mlp.W2", (d, ratio * d))
            params[pre + "mlp.b2"] = const(pre + "mlp.b2", (d,), 0.0)
        params["final_norm.g"] = const("final_norm.g", (d,), 1.0)
        params["final_norm.b"] = const("final_norm.b", (d,), 0.0)
        return cls(config, params)

    def parameters(self) -> dict[str, Tensor]:
        out = {
            "patch_embed.W": self.patch_W,
            "patch_embed.b": self.patch_b,
            "cls_token": self.cls_token,
            "pos_embed": self.pos_embed,
        }
        for i, blk in enumerate(self.blocks):
            for k, v in blk.named().items():
                out[f"block{i}.{k}"] = v
        out["final_norm.g"] = self.final_g
        out["final_norm.b"] = self.final_b
        return out

    @property
    def dtype(self):
        return self.patch_W.data.dtype

    def set_trainable(self, trainable: bool) -> None:
        for p in self.parameters().values():
            p.requires_grad = trainable
            if not trainable:
                p.grad = None

    def forward_patches(self, patches: Tensor, adapters=None) -> Tensor:
        """Run the transformer on an already-patchified (B, P, patch_dim) batch.

        `adapters`, when given, holds one {target: (A, B, gamma)} mapping
        per block (see `attention_forward`). The last block updates the
        class token only, since nothing reads its patch tokens.
        """
        cfg = self.config
        x = T.embed(patches, self.patch_W, self.patch_b, self.cls_token, self.pos_embed)
        last = len(self.blocks) - 1
        for i, blk in enumerate(self.blocks):
            factors = adapters[i] if adapters else None
            x = block_forward(blk, x, cfg.heads, factors, cls_only=i == last)
        x = T.layer_norm(x, self.final_g, self.final_b)
        return T.select(x, axis=1, index=0)

    def forward(self, images, adapters=None) -> Tensor:
        """Features for a (B,C,H,W) numpy batch (or (C,H,W) single image);
        `adapters` as in `forward_patches`."""
        arr = images if isinstance(images, np.ndarray) else np.asarray(images)
        single = arr.ndim == 3
        if single:
            arr = arr[None]
        cfg = self.config
        if arr.shape[1:] != (cfg.channels, cfg.image_size, cfg.image_size):
            raise DimensionError(
                f"image batch shape {arr.shape} does not match config "
                f"({cfg.channels},{cfg.image_size},{cfg.image_size})"
            )
        patches = Tensor(patchify(arr.astype(self.dtype, copy=False), cfg.patch_size))
        z = self.forward_patches(patches, adapters)
        return T.reshape(z, (cfg.dim,)) if single else z


def param_count(obj, trainable_only: bool = False) -> int:
    """Exact parameter count, by closed form (config) or shape walk (model)."""
    if isinstance(obj, ViTConfig):
        cfg = obj
        d, ratio = cfg.dim, cfg.mlp_ratio
        embed = d * cfg.patch_dim + d + d + cfg.num_tokens * d
        per_block = (
            2 * d            # ln1
            + 4 * d * d      # attention projections
            + 2 * d          # ln2
            + ratio * d * d + ratio * d   # mlp in
            + d * ratio * d + d           # mlp out
        )
        return embed + cfg.depth * per_block + 2 * d
    params = obj.parameters().values()
    if trainable_only:
        return sum(p.data.size for p in params if p.requires_grad)
    return sum(p.data.size for p in params)


def attention_projection_count(cfg: ViTConfig) -> int:
    """Parameters in the adaptable attention projections only: L * 4 * d^2."""
    return cfg.depth * 4 * cfg.dim * cfg.dim
