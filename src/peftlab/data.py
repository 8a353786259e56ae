"""Dataset manifests, the raw image container, few-shot episode sampling,
and a synthetic transfer-learning image generator.

The generator draws class identity from blob GEOMETRY (a per-class
constellation of Gaussian bumps, shared between tasks) and task identity
from RENDERING STYLE (blob contrast/radius, background texture, noise),
so a backbone pretrained on the "source" task transfers imperfectly to
the "target" task: the few-shot gap between adapting the backbone and
probing frozen features is real but bridgeable.

Every image draws from its own keyed stream, so it is a pure function of
(spec, task, label, index). `synth_generate` renders each class in
chunks of SYNTH_CHUNK images with batched numpy: one `Rng.streams` call
gives every image's draws as a row, laid out in the counter order
`_render` documents, and each step of the drawing runs once per chunk on
an (N, H, W) array, with the same elementwise arithmetic as one image.
`render_image` is the one-image case of the same code, so the files do
not depend on the chunk size.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, InsufficientDataError
from .files import write_atomic
from .rng import Rng, to_normal, to_uniform

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
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
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
        if self.image_size < 8 or self.image_size % 8 != 0:
            raise ConfigError(
                f"image_size {self.image_size} incompatible with tiny-preset 8x8 patching"
            )
        if len(self.split_fractions) != 3:
            raise ConfigError(
                f"split_fractions needs 3 values (train, val, test), got {len(self.split_fractions)}"
            )
        if abs(sum(self.split_fractions) - 1.0) > 1e-9 or min(self.split_fractions) < 0:
            raise ConfigError("split fractions must be >= 0 and sum to 1")
        if self.num_classes < 2 or self.samples_per_class < 1:
            raise ConfigError("need >= 2 classes and >= 1 sample per class")
        if self.split_counts()[0] < 1:
            raise ConfigError("the train split must get at least one image per class")
        if not 1 <= self.channels <= 255 or self.blobs_per_class < 1:
            raise ConfigError("need 1 to 255 channels and >= 1 blob per class")
        if not self.noise_level >= 0:
            raise ConfigError(f"noise_level must be >= 0, got {self.noise_level}")

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


# Images rendered per batch. It bounds the batch's working memory (about
# 0.1 MB of float64 temporaries per image at 32x32), which otherwise shows
# in the process's peak RSS.
SYNTH_CHUNK = 16


def _bump(yy, xx, cy, cx, gain, radius: float) -> np.ndarray:
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    return gain * np.exp(-d2 / (2.0 * radius**2))


def _render(spec: SynthSpec, task: str, label: int, indices: np.ndarray,
            centers: np.ndarray) -> np.ndarray:
    """(N,C,H,W) images `indices` of class `label`, whose blob centers are `centers`.

    Image j draws from its own stream, `Rng(seed).derive(task, label, j)`,
    in this counter order: phase 1, ramp angle 1 (only when ramp_amp is
    nonzero), jitter 2B, gain 1, each distractor 3, noise 2*ceil(s*s/2).
    """
    style = spec.style(task)
    s, b, n = spec.image_size, spec.blobs_per_class, len(indices)
    n_ramp = 1 if style.ramp_amp != 0.0 else 0
    n_noise = 2 * ((s * s + 1) // 2) if spec.noise_level > 0 else 0
    raw = Rng(spec.seed).derive(task, label).streams(
        indices, 1 + n_ramp + 2 * b + 1 + 3 * style.distractor_count + n_noise)
    cursor = 0

    def take(k: int) -> np.ndarray:
        nonlocal cursor
        cursor += k
        return raw[:, cursor - k:cursor]

    coords = (np.arange(s) + 0.5) / s
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    phase = to_uniform(take(1), 0.0, 2.0 * math.pi)[:, :, None]
    proj = xx * math.cos(style.texture_angle) + yy * math.sin(style.texture_angle)
    img = style.base_level + style.texture_amp * np.sin(
        2.0 * math.pi * style.texture_freq * proj + phase
    )

    if n_ramp:
        theta = to_uniform(take(1), 0.0, 2.0 * math.pi)[:, 0]
        # libm's scalar cos/sin, as the datasets have always used; numpy's vectorised
        # ones can differ in the last bit
        cos_t = np.array([math.cos(v) for v in theta])[:, None, None]
        sin_t = np.array([math.sin(v) for v in theta])[:, None, None]
        img = img + style.ramp_amp * ((xx - 0.5) * cos_t + (yy - 0.5) * sin_t)

    pos = centers + to_normal(take(2 * b), 2 * b, std=style.jitter).reshape(n, b, 2)
    gain = (to_uniform(take(1), 0.85, 1.15) * style.blob_gain)[:, :, None]
    for k in range(b):
        img = img + _bump(yy, xx, pos[:, k, 0, None, None], pos[:, k, 1, None, None],
                          gain, style.blob_radius)

    for _ in range(style.distractor_count):
        at = to_uniform(take(2), 0.1, 0.9)[:, :, None, None]
        dgain = (to_uniform(take(1), 0.85, 1.15) * style.distractor_gain)[:, :, None]
        img = img + _bump(yy, xx, at[:, 0], at[:, 1], dgain, style.distractor_radius)

    if n_noise:
        img = img + to_normal(take(n_noise), s * s, std=spec.noise_level).reshape(n, s, s)
    img = np.clip(img, 0.0, 1.0)
    return np.repeat(img[:, None], spec.channels, axis=1)


def render_image(spec: SynthSpec, task: str, label: int, index: int) -> np.ndarray:
    """One deterministic (C,H,W) image in [0,1]."""
    return _render(spec, task, label, np.array([index]), class_geometry(spec, label))[0]


def synth_generate(spec: SynthSpec, task: str, out_dir) -> DatasetManifest:
    """Write images + manifest for one task; byte-identical on rerun.

    Each class renders in batches of SYNTH_CHUNK images. The norm stats
    come from the train images as float64, before the float32 cast."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    tr, va, _ = spec.split_counts()
    per_class = spec.samples_per_class
    train = np.empty((spec.num_classes * tr, spec.channels, spec.image_size, spec.image_size))
    items: list[ManifestItem] = []
    for label in range(spec.num_classes):
        centers = class_geometry(spec, label)
        for j0 in range(0, per_class, SYNTH_CHUNK):
            indices = np.arange(j0, min(j0 + SYNTH_CHUNK, per_class))
            imgs = _render(spec, task, label, indices, centers)
            for j, img in zip(indices.tolist(), imgs):
                split = "train" if j < tr else ("val" if j < tr + va else "test")
                rel = f"images/img_{label:02d}_{j:03d}.cyt"
                write_image(out / rel, img)
                items.append(ManifestItem(rel, label, split))
            n_train = max(0, min(tr - j0, len(indices)))
            train[label * tr + j0:label * tr + j0 + n_train] = imgs[:n_train]
    mean = tuple(float(v) for v in train.mean(axis=(0, 2, 3)))
    std = tuple(max(float(v), 1e-6) for v in train.std(axis=(0, 2, 3)))
    manifest = DatasetManifest(
        name=task, classes=tuple(f"class{c:02d}" for c in range(spec.num_classes)),
        items=items, norm_mean=mean, norm_std=std, root=out,
    )
    save_manifest(out / "manifest.csv", manifest)
    return manifest


def _spec_keys(obj) -> dict[str, object]:
    """{spec file key: value}: one key per dataclass field, and one
    `<task>.<field>` key per field of each `<task>_style`."""
    out: dict[str, object] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, StyleParams):
            task = f.name.removesuffix("_style")
            out.update({f"{task}.{k}": v for k, v in _spec_keys(value).items()})
        else:
            out[f.name] = value
    return out


def synth_spec_keys() -> list[str]:
    """The keys a synth spec file accepts."""
    return list(_spec_keys(SynthSpec()))


def synth_spec_to_dict(spec: SynthSpec) -> dict[str, str]:
    return {k: ",".join(repr(x) for x in v) if isinstance(v, tuple) else repr(v)
            for k, v in _spec_keys(spec).items()}


def synth_spec_from_dict(d: dict[str, str]) -> SynthSpec:
    """The default SynthSpec with the keys of `d` replaced; ConfigError on an
    unknown key or a value that does not parse as its field's type."""
    defaults = _spec_keys(SynthSpec())
    top: dict[str, object] = {}
    styles: dict[str, dict[str, object]] = {}
    for key, raw in d.items():
        if key not in defaults:
            raise ConfigError(f"unknown synth spec key {key!r}; `peftlab synth --help` lists them")
        default = defaults[key]
        kind = float if isinstance(default, tuple) else type(default)
        try:
            value = (tuple(kind(v) for v in raw.split(",")) if isinstance(default, tuple)
                     else kind(raw))
        except ValueError:
            raise ConfigError(f"synth spec value {key}={raw!r} is not a valid {kind.__name__}")
        task, dot, name = key.partition(".")
        if dot:
            styles.setdefault(task, {})[name] = value
        else:
            top[key] = value
    spec = SynthSpec()
    for task, kw in styles.items():
        top[f"{task}_style"] = replace(getattr(spec, f"{task}_style"), **kw)
    return replace(spec, **top)
