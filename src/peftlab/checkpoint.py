"""Binary checkpoint container shared by backbone, adapters, and head.

Layout (all little-endian):

    magic "PEFT" | version u16 | tensor_count u32
    per tensor: name_len u16, name utf-8, dtype u8 (1=f64, 2=f32),
                rank u8, extents u64 * rank, raw data
    config_len u32, config utf-8 ("key=value" lines, sorted by key)
    crc32 u32 over all preceding bytes

Tensors are written sorted by name, so identical contents always produce
identical bytes.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .files import write_atomic
from .tensor import Tensor
from .vit import ViTConfig, ViTModel

MAGIC = b"PEFT"
VERSION = 1

_DTYPE_TAG = {np.dtype(np.float64): 1, np.dtype(np.float32): 2}
_TAG_DTYPE = {1: np.dtype("<f8"), 2: np.dtype("<f4")}


def encode_config(config: dict) -> str:
    for k in config:
        if "=" in k or "\n" in k:
            raise ConfigError(f"bad config key {k!r}")
    return "".join(f"{k}={config[k]}\n" for k in sorted(config))


def decode_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        k, _, v = line.partition("=")
        out[k] = v
    return out


def save_checkpoint(path, tensors: dict[str, np.ndarray], config: dict) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<HI", VERSION, len(tensors))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        tag = _DTYPE_TAG.get(arr.dtype)
        if tag is None:
            raise ConfigError(f"unsupported tensor dtype {arr.dtype} for {name!r}")
        nb = name.encode("utf-8")
        blob += struct.pack("<H", len(nb)) + nb
        blob += struct.pack("<BB", tag, arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.astype(_TAG_DTYPE[tag], copy=False).tobytes()
    cfg = encode_config(config).encode("utf-8")
    blob += struct.pack("<I", len(cfg)) + cfg
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    write_atomic(path, bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"truncated checkpoint: needed {n} bytes at byte {self.off}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    data = Path(path).read_bytes()
    if len(data) < 4 + 2 + 4 + 4 + 4:
        raise FormatError(f"checkpoint too short ({len(data)} bytes) at byte 0")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} at byte 0")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(
            f"checksum mismatch at byte {len(data) - 4}: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    r = _Reader(data[:-4])
    r.take(4)
    version, count = r.unpack("<HI")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at byte 4")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = r.unpack("<H")
        name = r.take(nlen).decode("utf-8")
        tag, rank = r.unpack("<BB")
        if tag not in _TAG_DTYPE:
            raise FormatError(f"unknown dtype tag {tag} at byte {r.off - 2}")
        shape = r.unpack(f"<{rank}Q") if rank else ()
        dt = _TAG_DTYPE[tag]
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(n * dt.itemsize)
        tensors[name] = np.frombuffer(raw, dtype=dt).reshape(shape).astype(dt.newbyteorder("="))
    (clen,) = r.unpack("<I")
    config = decode_config(r.take(clen).decode("utf-8"))
    return tensors, config


def git_blob_sha1(data: bytes) -> str:
    """Content hash of a byte blob, computed the way git hashes blobs."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def checkpoint_hash(path) -> str:
    return git_blob_sha1(Path(path).read_bytes())


# -- backbone / adapter / head adapters ------------------------------------


def vit_config_to_dict(cfg: ViTConfig) -> dict[str, str]:
    out = {
        "image_size": cfg.image_size, "patch_size": cfg.patch_size,
        "channels": cfg.channels, "dim": cfg.dim, "depth": cfg.depth,
        "heads": cfg.heads, "mlp_ratio": cfg.mlp_ratio,
    }
    return {k: str(v) for k, v in out.items()}


def vit_config_from_dict(d: dict[str, str]) -> ViTConfig:
    try:
        return ViTConfig(
            image_size=int(d["image_size"]), patch_size=int(d["patch_size"]),
            channels=int(d["channels"]), dim=int(d["dim"]), depth=int(d["depth"]),
            heads=int(d["heads"]), mlp_ratio=int(d.get("mlp_ratio", 4)),
        )
    except KeyError as e:
        raise FormatError(f"checkpoint config missing field {e}")


def save_backbone(path, model: ViTModel) -> None:
    tensors = {name: p.data for name, p in model.parameters().items()}
    save_checkpoint(path, tensors, {"kind": "backbone", **vit_config_to_dict(model.config)})


def load_backbone(path, precision: str | None = None) -> ViTModel:
    tensors, config = load_checkpoint(path)
    if config.get("kind") != "backbone":
        raise FormatError(f"not a backbone checkpoint (kind={config.get('kind')!r})")
    cfg = vit_config_from_dict(config)
    params: dict[str, Tensor] = {}
    for name, arr in tensors.items():
        if precision is not None:
            from .tensor import resolve_dtype

            arr = arr.astype(resolve_dtype(precision))
        params[name] = Tensor(arr, requires_grad=True, name=name)
    return ViTModel(cfg, params)


def save_adapters(path, adapted) -> None:
    """Adapter-only checkpoint: block{i}.{target}.lora_A / lora_B tensors."""
    cfg = adapted.cfg
    tensors = {name: p.data for name, p in adapted.trainable_parameters().items()}
    meta = {
        "kind": "adapters",
        "rank": str(cfg.rank),
        "alpha": repr(cfg.effective_alpha),
        "targets": ",".join(cfg.targets),
        "init_seed": str(cfg.init_seed),
        "dim": str(adapted.config.dim),
        "depth": str(adapted.config.depth),
    }
    save_checkpoint(path, tensors, meta)


def load_adapters(path, model: ViTModel):
    """Re-attach saved adapters to a backbone with matching dim and depth."""
    from .lora import LoraConfig, inject

    tensors, config = load_checkpoint(path)
    if config.get("kind") != "adapters":
        raise FormatError(f"not an adapter checkpoint (kind={config.get('kind')!r})")
    if int(config["dim"]) != model.config.dim or int(config["depth"]) != model.config.depth:
        raise ConfigError(
            f"adapter checkpoint built for dim={config['dim']}, depth={config['depth']}; "
            f"backbone has dim={model.config.dim}, depth={model.config.depth}"
        )
    cfg = LoraConfig(
        rank=int(config["rank"]), alpha=float(config["alpha"]),
        targets=tuple(config["targets"].split(",")), init_seed=int(config["init_seed"]),
    )
    adapted = inject(model, cfg)
    for name, pair in adapted.trainable_parameters().items():
        if name not in tensors:
            raise FormatError(f"adapter checkpoint missing tensor {name!r}")
        if tensors[name].shape != pair.data.shape:
            raise FormatError(f"adapter tensor {name!r} has shape {tensors[name].shape}, expected {pair.data.shape}")
        pair.data = tensors[name].astype(pair.data.dtype)
    return adapted
