"""Dataset manifests, the raw image container, few-shot episode sampling,
and a synthetic transfer-learning image generator.

The generator draws class identity from blob GEOMETRY (a per-class
constellation of Gaussian bumps, shared between tasks) and task identity
from RENDERING STYLE (blob contrast/radius, background texture, noise),
so a backbone pretrained on the "source" task transfers imperfectly to
the "target" task: the few-shot gap between adapting the backbone and
probing frozen features is real but bridgeable.

Manifest format: UTF-8 CSV with two header comments then a column row,

    #classes=a;b;c
    #norm=mean0,mean1|std0,std1
    path,label,split
    images/img_00_000.cyt,0,train

Image format "CYT1": magic, u8 channels, u32 height, u32 width,
little-endian f32 pixels in (C, H, W) row-major order, CRC32 trailer.
Raw codecs are deliberately avoided so files are bit-exact everywhere.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, InsufficientDataError
from .files import write_atomic
from .rng import Rng

SPLITS = ("train", "val", "test")

IMG_MAGIC = b"CYT1"


# -- image container --------------------------------------------------------


def write_image(path, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels)
    if arr.ndim != 3:
        raise ConfigError(f"image must be (C,H,W), got {arr.shape}")
    c, h, w = arr.shape
    blob = bytearray()
    blob += IMG_MAGIC
    blob += struct.pack("<BII", c, h, w)
    blob += arr.astype("<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(blob))


def read_image(path) -> np.ndarray:
    """Raw (C,H,W) float32 pixels in [0,1]; no normalization."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: truncated before magic at byte {len(data)}")
    if data[:4] != IMG_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at byte 0")
    if len(data) < 13:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    c, h, w = struct.unpack("<BII", data[4:13])
    need = 13 + 4 * c * h * w + 4
    if len(data) < need:
        raise FormatError(f"{path}: truncated payload at byte {len(data)} (need {need})")
    stored = struct.unpack("<I", data[need - 4:need])[0]
    actual = zlib.crc32(data[:need - 4]) & 0xFFFFFFFF
    if stored != actual:
        raise FormatError(f"{path}: checksum mismatch at byte {need - 4}")
    return np.frombuffer(data[13:need - 4], dtype="<f4").reshape(c, h, w).astype(np.float32)


def load_image(path, norm: tuple | None = None) -> np.ndarray:
    """(C,H,W) pixels; per-channel (mean, std) normalization when given."""
    arr = read_image(path).astype(np.float64)
    if norm is not None:
        mean, std = norm
        arr = (arr - np.asarray(mean)[:, None, None]) / np.asarray(std)[:, None, None]
    return arr


# -- manifests ---------------------------------------------------------------


@dataclass(frozen=True)
class ManifestItem:
    path: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    name: str
    classes: tuple[str, ...]
    items: list[ManifestItem]
    norm_mean: tuple[float, ...]
    norm_std: tuple[float, ...]
    root: Path = field(default_factory=Path)

    def __post_init__(self):
        for it in self.items:
            if not 0 <= it.label < len(self.classes):
                raise DataError(f"label {it.label} out of range for {len(self.classes)} classes")
            if it.split not in SPLITS:
                raise DataError(f"unknown split {it.split!r}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def indices(self, split: str) -> list[int]:
        return [i for i, it in enumerate(self.items) if it.split == split]

    def by_class(self, split: str) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.classes]
        for i, it in enumerate(self.items):
            if it.split == split:
                out[it.label].append(i)
        return out

    def labels(self, indices) -> np.ndarray:
        return np.array([self.items[i].label for i in indices], dtype=np.int64)

    def load(self, index: int) -> np.ndarray:
        it = self.items[index]
        return load_image(self.root / it.path, (self.norm_mean, self.norm_std))

    def load_batch(self, indices) -> np.ndarray:
        return np.stack([self.load(i) for i in indices])


def save_manifest(path, manifest: DatasetManifest) -> None:
    lines = [
        "#classes=" + ";".join(manifest.classes),
        "#norm=" + ",".join(repr(m) for m in manifest.norm_mean)
        + "|" + ",".join(repr(s) for s in manifest.norm_std),
        "path,label,split",
    ]
    lines += [f"{it.path},{it.label},{it.split}" for it in manifest.items]
    write_atomic(path, "\n".join(lines) + "\n")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read manifest {path}: {e}")
    classes: tuple[str, ...] | None = None
    norm_mean: tuple[float, ...] = ()
    norm_std: tuple[float, ...] = ()
    items: list[ManifestItem] = []
    saw_header = False
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#classes="):
            classes = tuple(line[len("#classes="):].split(";"))
            continue
        if line.startswith("#norm="):
            mean_s, _, std_s = line[len("#norm="):].partition("|")
            norm_mean = tuple(float(v) for v in mean_s.split(",") if v)
            norm_std = tuple(float(v) for v in std_s.split(",") if v)
            continue
        if line == "path,label,split":
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}: line {ln}: expected path,label,split")
        try:
            items.append(ManifestItem(parts[0], int(parts[1]), parts[2]))
        except ValueError:
            raise FormatError(f"{path}: line {ln}: bad label {parts[1]!r}")
    if classes is None or not saw_header:
        raise FormatError(f"{path}: missing #classes header or column row")
    return DatasetManifest(
        name=path.parent.name, classes=classes, items=items,
        norm_mean=norm_mean, norm_std=norm_std, root=path.parent,
    )


# -- few-shot episodes --------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    shots: int
    seed: int
    selected: tuple[tuple[int, ...], ...]  # per class, sorted manifest indices

    def all_indices(self) -> list[int]:
        return [i for cls in self.selected for i in cls]

    @property
    def total(self) -> int:
        return sum(len(c) for c in self.selected)


def sample_episode(manifest: DatasetManifest, k: int, seed: int, exclude=()) -> Episode:
    """Balanced k-shot draw from the train split, without replacement.

    Deterministic in (manifest, k, seed); `exclude` removes indices from
    every class pool (used for support/validation disjointness).
    """
    if k < 0:
        raise ConfigError(f"shots must be >= 0, got {k}")
    excluded = set(exclude)
    rng = Rng(seed).derive("episode", k)
    selected = []
    for label, pool in enumerate(manifest.by_class("train")):
        pool = [i for i in pool if i not in excluded]
        if len(pool) < k:
            raise InsufficientDataError(
                f"class {manifest.classes[label]!r} has {len(pool)} train items, needs {k}"
            )
        picks = rng.derive(label).sample_without_replacement(len(pool), k)
        selected.append(tuple(pool[p] for p in picks))
    return Episode(shots=k, seed=seed, selected=tuple(selected))


def shot_fraction(manifest: DatasetManifest, k: int) -> float:
    n_train = len(manifest.indices("train"))
    if n_train == 0:
        raise InsufficientDataError("train split is empty")
    return (k * manifest.num_classes) / n_train


# -- synthetic transfer benchmark ---------------------------------------------


@dataclass(frozen=True)
class StyleParams:
    """Rendering style: what differs between the source and target tasks.

    Distractors are class-uninformative bright bumps at random per-image
    positions; they model confounding structures that a frozen backbone
    attends to but an adapted one learns to ignore."""

    base_level: float = 0.15      # background brightness
    blob_gain: float = 0.85       # blob intensity added onto the background
    blob_radius: float = 0.07     # Gaussian bump radius, fraction of image side
    texture_amp: float = 0.12
    texture_freq: float = 2.0     # cycles across the image
    texture_angle: float = 0.3    # radians
    jitter: float = 0.02          # per-image blob position jitter
    ramp_amp: float = 0.0         # illumination gradient, random direction per image
    distractor_count: int = 0
    distractor_gain: float = 0.0
    distractor_radius: float = 0.14


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = 5
    samples_per_class: int = 100
    image_size: int = 32
    channels: int = 1
    blobs_per_class: int = 3
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    source_style: StyleParams = field(default_factory=StyleParams)
    target_style: StyleParams = field(
        default_factory=lambda: StyleParams(
            base_level=0.70, blob_gain=-0.50, blob_radius=0.11,
            texture_amp=0.22, texture_freq=5.0, texture_angle=1.2, jitter=0.02,
        )
    )
    noise_level: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.image_size % 8 != 0:
            raise ConfigError(
                f"image_size {self.image_size} incompatible with tiny-preset 8x8 patching"
            )
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        if self.num_classes < 2 or self.samples_per_class < 1:
            raise ConfigError("need >= 2 classes and >= 1 sample per class")

    def split_counts(self) -> tuple[int, int, int]:
        n = self.samples_per_class
        tr = int(math.floor(self.split_fractions[0] * n + 1e-9))
        va = int(math.floor(self.split_fractions[1] * n + 1e-9))
        return tr, va, n - tr - va

    def style(self, task: str) -> StyleParams:
        if task == "source":
            return self.source_style
        if task == "target":
            return self.target_style
        raise ConfigError(f"task must be 'source' or 'target', got {task!r}")


def class_geometry(spec: SynthSpec, label: int) -> np.ndarray:
    """Blob centers for one class, in [0.2, 0.8]^2; shared by both tasks."""
    rng = Rng(spec.seed).derive("geometry", label)
    return rng.uniform((spec.blobs_per_class, 2), low=0.2, high=0.8)


def render_image(spec: SynthSpec, task: str, label: int, index: int) -> np.ndarray:
    """One deterministic (C,H,W) image in [0,1]."""
    style = spec.style(task)
    s = spec.image_size
    rng = Rng(spec.seed).derive(task, label, index)
    coords = (np.arange(s) + 0.5) / s
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    phase = rng.uniform(low=0.0, high=2.0 * math.pi)
    proj = xx * math.cos(style.texture_angle) + yy * math.sin(style.texture_angle)
    img = style.base_level + style.texture_amp * np.sin(
        2.0 * math.pi * style.texture_freq * proj + phase
    )

    if style.ramp_amp != 0.0:
        theta = rng.uniform(low=0.0, high=2.0 * math.pi)
        img = img + style.ramp_amp * (
            (xx - 0.5) * math.cos(theta) + (yy - 0.5) * math.sin(theta)
        )

    centers = class_geometry(spec, label)
    jit = rng.normal(centers.shape, std=style.jitter)
    gain = float(rng.uniform(low=0.85, high=1.15)) * style.blob_gain
    for (cy, cx) in centers + jit:
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        img = img + gain * np.exp(-d2 / (2.0 * style.blob_radius**2))

    for _ in range(style.distractor_count):
        dy, dx = rng.uniform(low=0.1, high=0.9), rng.uniform(low=0.1, high=0.9)
        dgain = float(rng.uniform(low=0.85, high=1.15)) * style.distractor_gain
        d2 = (yy - dy) ** 2 + (xx - dx) ** 2
        img = img + dgain * np.exp(-d2 / (2.0 * style.distractor_radius**2))

    if spec.noise_level > 0:
        img = img + rng.normal(img.shape, std=spec.noise_level)
    img = np.clip(img, 0.0, 1.0)
    return np.repeat(img[None], spec.channels, axis=0)


def synth_generate(spec: SynthSpec, task: str, out_dir) -> DatasetManifest:
    """Write images + manifest for one task; byte-identical on rerun."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    tr, va, te = spec.split_counts()
    items: list[ManifestItem] = []
    train_pixels = []
    for label in range(spec.num_classes):
        for j in range(spec.samples_per_class):
            split = "train" if j < tr else ("val" if j < tr + va else "test")
            rel = f"images/img_{label:02d}_{j:03d}.cyt"
            img = render_image(spec, task, label, j)
            write_image(out / rel, img)
            items.append(ManifestItem(rel, label, split))
            if split == "train":
                train_pixels.append(img)
    stack = np.stack(train_pixels).astype(np.float64)
    mean = tuple(float(v) for v in stack.mean(axis=(0, 2, 3)))
    std = tuple(max(float(v), 1e-6) for v in stack.std(axis=(0, 2, 3)))
    manifest = DatasetManifest(
        name=task, classes=tuple(f"class{c:02d}" for c in range(spec.num_classes)),
        items=items, norm_mean=mean, norm_std=std, root=out,
    )
    save_manifest(out / "manifest.csv", manifest)
    return manifest


def synth_spec_to_dict(spec: SynthSpec) -> dict[str, str]:
    out = {
        "num_classes": spec.num_classes, "samples_per_class": spec.samples_per_class,
        "image_size": spec.image_size, "channels": spec.channels,
        "blobs_per_class": spec.blobs_per_class, "noise_level": repr(spec.noise_level),
        "seed": spec.seed,
        "split_fractions": ",".join(repr(f) for f in spec.split_fractions),
    }
    for tag, st in (("source", spec.source_style), ("target", spec.target_style)):
        for f in (
            "base_level", "blob_gain", "blob_radius",
            "texture_amp", "texture_freq", "texture_angle", "jitter", "ramp_amp",
            "distractor_count", "distractor_gain", "distractor_radius",
        ):
            out[f"{tag}.{f}"] = repr(getattr(st, f))
    return {k: str(v) for k, v in out.items()}


def synth_spec_from_dict(d: dict[str, str]) -> SynthSpec:
    spec = SynthSpec()

    def style_from(tag: str, default: StyleParams) -> StyleParams:
        kw = {}
        for f in (
            "base_level", "blob_gain", "blob_radius",
            "texture_amp", "texture_freq", "texture_angle", "jitter", "ramp_amp",
            "distractor_count", "distractor_gain", "distractor_radius",
        ):
            key = f"{tag}.{f}"
            if key in d:
                kw[f] = int(d[key]) if f == "distractor_count" else float(d[key])
        return replace(default, **kw)

    kw: dict = {}
    for f, conv in (
        ("num_classes", int), ("samples_per_class", int), ("image_size", int),
        ("channels", int), ("blobs_per_class", int), ("noise_level", float), ("seed", int),
    ):
        if f in d:
            kw[f] = conv(d[f])
    if "split_fractions" in d:
        kw["split_fractions"] = tuple(float(v) for v in d["split_fractions"].split(","))
    kw["source_style"] = style_from("source", spec.source_style)
    kw["target_style"] = style_from("target", spec.target_style)
    return replace(spec, **kw)
