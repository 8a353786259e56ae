import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab.data import (
    SYNTH_CHUNK,
    DatasetManifest,
    ManifestItem,
    StyleParams,
    SynthSpec,
    class_geometry,
    load_image,
    load_manifest,
    read_image,
    render_image,
    sample_episode,
    save_manifest,
    shot_fraction,
    synth_generate,
    synth_spec_from_dict,
    synth_spec_to_dict,
    write_image,
)
from peftlab.errors import ConfigError, DataError, FormatError, InsufficientDataError
from peftlab.rng import Rng

SMALL_SPEC = SynthSpec(num_classes=3, samples_per_class=10, image_size=32, seed=7)


def fake_manifest(per_class=60, classes=5, val=5, test=5):
    items = []
    for c in range(classes):
        for j in range(per_class):
            split = "train" if j < per_class - val - test else ("val" if j < per_class - test else "test")
            items.append(ManifestItem(f"img_{c}_{j}.cyt", c, split))
    return DatasetManifest(
        name="fake", classes=tuple(f"c{c}" for c in range(classes)), items=items,
        norm_mean=(0.5,), norm_std=(0.25,),
    )


# -- image container ----------------------------------------------------------


def test_image_roundtrip_bits(tmp_path):
    img = Rng(0).uniform((2, 8, 8)).astype(np.float32)
    p = tmp_path / "x.cyt"
    write_image(p, img)
    np.testing.assert_array_equal(read_image(p), img)


def test_image_constant_half(tmp_path):
    p = tmp_path / "half.cyt"
    write_image(p, np.full((1, 4, 4), 0.5))
    out = read_image(p)
    assert np.all(out == 0.5)


def test_image_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "x.cyt"
    write_image(p, np.zeros((1, 4, 4)))
    raw = p.read_bytes()

    bad = tmp_path / "bad.cyt"
    bad.write_bytes(b"JPEG" + raw[4:])
    with pytest.raises(FormatError, match="byte 0"):
        read_image(bad)

    trunc = tmp_path / "trunc.cyt"
    trunc.write_bytes(raw[:20])
    with pytest.raises(FormatError, match="byte"):
        read_image(trunc)

    corrupt = tmp_path / "corrupt.cyt"
    flip = bytearray(raw)
    flip[15] ^= 0x40
    corrupt.write_bytes(bytes(flip))
    with pytest.raises(FormatError, match="checksum"):
        read_image(corrupt)


def test_load_image_normalization(tmp_path):
    p = tmp_path / "x.cyt"
    write_image(p, np.full((1, 4, 4), 0.75))
    out = load_image(p, norm=((0.5,), (0.25,)))
    np.testing.assert_allclose(out, 1.0)


# -- manifest -----------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    man = fake_manifest(per_class=4, classes=2, val=1, test=1)
    path = tmp_path / "manifest.csv"
    save_manifest(path, man)
    text = path.read_text()
    assert text.startswith("#classes=c0;c1\n#norm=")
    assert "path,label,split" in text
    loaded = load_manifest(path)
    assert loaded.classes == man.classes
    assert loaded.items == man.items
    assert loaded.norm_mean == man.norm_mean and loaded.norm_std == man.norm_std


def test_manifest_parse_errors(tmp_path):
    p = tmp_path / "manifest.csv"
    p.write_text("#classes=a;b\n#norm=0|1\npath,label,split\nimg.cyt,notanint,train\n")
    with pytest.raises(FormatError, match="line 4"):
        load_manifest(p)
    p.write_text("path,label,split\nimg.cyt,0,train\n")
    with pytest.raises(FormatError, match="classes"):
        load_manifest(p)


def test_manifest_not_utf8_is_a_format_error(tmp_path):
    p = tmp_path / "manifest.csv"
    p.write_bytes(b"\xff\xfe#classes=a;b\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_manifest(p)


def test_manifest_label_range_guard():
    with pytest.raises(DataError):
        DatasetManifest(name="x", classes=("a",), items=[ManifestItem("i", 1, "train")],
                        norm_mean=(0.0,), norm_std=(1.0,))


# -- episodes -------------------------------------------------------------------


def test_episode_cardinality_all_shot_counts():
    man = fake_manifest(per_class=60, classes=5)
    for k in (1, 2, 4, 8, 16, 50):
        ep = sample_episode(man, k, seed=0)
        assert ep.total == k * 5
        for cls in ep.selected:
            assert len(cls) == k
            assert len(set(cls)) == k  # unique within class
            assert list(cls) == sorted(cls)


def test_episode_paper_case_k2_c5_is_10():
    ep = sample_episode(fake_manifest(classes=5), 2, seed=1)
    assert ep.total == 10


def test_episode_determinism_and_seed_independence():
    man = fake_manifest()
    assert sample_episode(man, 4, seed=5) == sample_episode(man, 4, seed=5)
    assert sample_episode(man, 4, seed=5) != sample_episode(man, 4, seed=6)


def test_episode_draws_from_train_only():
    man = fake_manifest()
    ep = sample_episode(man, 8, seed=2)
    for idx in ep.all_indices():
        assert man.items[idx].split == "train"


def test_episode_exclusion_disjoint():
    man = fake_manifest()
    support = sample_episode(man, 4, seed=3)
    val = sample_episode(man, 4, seed=4, exclude=support.all_indices())
    assert not set(support.all_indices()) & set(val.all_indices())


def test_episode_insufficient_data_names_class():
    man = fake_manifest(per_class=8, classes=3, val=2, test=2)  # 4 train per class
    one_of_c1 = [i for i, it in enumerate(man.items) if it.label == 1 and it.split == "train"][:1]
    with pytest.raises(InsufficientDataError, match="c1"):
        sample_episode(man, 4, seed=0, exclude=one_of_c1)  # only c1 drops below k


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 4, 8, 16]))
def test_episode_properties_randomized(seed, k):
    man = fake_manifest(per_class=30, classes=4, val=3, test=3)
    ep = sample_episode(man, k, seed=seed)
    assert ep.total == k * 4
    again = sample_episode(man, k, seed=seed)
    assert ep == again
    labels = [man.items[i].label for i in ep.all_indices()]
    assert all(labels.count(c) == k for c in range(4))  # exactly balanced


def test_shot_fraction_paper_case():
    # 25 classes, k=50, train size 28409: the 4.4%-of-the-data case
    items = []
    per_class = [28409 // 25 + (1 if c < 28409 % 25 else 0) for c in range(25)]
    for c, n in enumerate(per_class):
        items += [ManifestItem(f"i{c}_{j}", c, "train") for j in range(n)]
    man = DatasetManifest(name="h", classes=tuple(f"c{c}" for c in range(25)),
                          items=items, norm_mean=(0.0,), norm_std=(1.0,))
    frac = shot_fraction(man, 50)
    assert frac == pytest.approx(1250 / 28409)
    assert round(frac * 100, 1) == 4.4


def test_shot_fraction_edges():
    man = fake_manifest(per_class=10, classes=2, val=0, test=0)
    assert shot_fraction(man, 10) == 1.0
    assert shot_fraction(man, 0) == 0.0


def test_split_leak_freedom():
    man = fake_manifest()
    seen = {}
    for i, it in enumerate(man.items):
        assert i not in seen
        seen[i] = it.split


# -- synthetic generation ---------------------------------------------------------


def test_synth_spec_guards():
    with pytest.raises(ConfigError):
        SynthSpec(image_size=30)
    with pytest.raises(ConfigError):
        SynthSpec(split_fractions=(0.5, 0.2, 0.2))


@pytest.mark.parametrize("kw", [
    {"image_size": 0}, {"split_fractions": (1.0, 0.0)}, {"split_fractions": (1.2, -0.1, -0.1)},
    {"samples_per_class": 1}, {"channels": 0}, {"channels": 256}, {"blobs_per_class": 0},
    {"noise_level": -0.1}, {"noise_level": math.nan},
])
def test_synth_spec_rejects_specs_that_render_nothing_or_crash(kw):
    with pytest.raises(ConfigError):
        SynthSpec(**kw)


def test_synth_split_counts_default():
    assert SynthSpec().split_counts() == (70, 15, 15)
    assert SMALL_SPEC.split_counts() == (7, 1, 2)


def test_synth_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    synth_generate(SMALL_SPEC, "source", d1)
    synth_generate(SMALL_SPEC, "source", d2)
    assert (d1 / "manifest.csv").read_bytes() == (d2 / "manifest.csv").read_bytes()
    for rel in ("images/img_00_000.cyt", "images/img_02_009.cyt"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()


def test_synth_geometry_shared_between_tasks():
    for c in range(SMALL_SPEC.num_classes):
        np.testing.assert_array_equal(class_geometry(SMALL_SPEC, c), class_geometry(SMALL_SPEC, c))
    # geometry is task-independent by construction; styles are not
    src = render_image(SMALL_SPEC, "source", 0, 0)
    tgt = render_image(SMALL_SPEC, "target", 0, 0)
    assert src.shape == tgt.shape
    assert not np.allclose(src, tgt)


def test_synth_class_signal_above_noise():
    spec = SMALL_SPEC
    mean0 = np.mean([render_image(spec, "source", 0, j) for j in range(8)], axis=0)
    mean1 = np.mean([render_image(spec, "source", 1, j) for j in range(8)], axis=0)
    assert np.abs(mean0 - mean1).mean() > spec.noise_level / 2
    assert np.abs(mean0 - mean1).max() > spec.noise_level


def test_synth_zero_noise_nearest_mean_is_perfect(tmp_path):
    spec = SynthSpec(num_classes=4, samples_per_class=3, image_size=32, noise_level=0.0, seed=3)
    man = synth_generate(spec, "source", tmp_path / "zn")
    train = man.indices("train")
    imgs = np.stack([read_image(man.root / man.items[i].path) for i in train])
    labels = man.labels(train)
    means = np.stack([imgs[labels == c].mean(axis=0) for c in range(4)])
    # brute-force nearest-mean classification of the train items
    correct = 0
    for img, lab in zip(imgs, labels):
        dists = [np.square(img - m).sum() for m in means]
        correct += int(np.argmin(dists) == lab)
    assert correct == len(train)


def test_synth_images_in_unit_range(tmp_path):
    man = synth_generate(SMALL_SPEC, "target", tmp_path / "rng")
    img = read_image(man.root / man.items[0].path)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_synth_spec_dict_roundtrip():
    spec = SynthSpec(num_classes=7, noise_level=0.03, seed=5,
                     target_style=StyleParams(blob_gain=-0.4, texture_freq=6.0))
    again = synth_spec_from_dict(synth_spec_to_dict(spec))
    assert again == spec


# -- the per-image renderer the batched one replaced, kept as its oracle ---------------


def reference_render(spec, task, label, index):
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


def reference_generate(spec, task, out):
    (out / "images").mkdir(parents=True)
    tr, va, _ = spec.split_counts()
    items, train_pixels = [], []
    for label in range(spec.num_classes):
        for j in range(spec.samples_per_class):
            split = "train" if j < tr else ("val" if j < tr + va else "test")
            rel = f"images/img_{label:02d}_{j:03d}.cyt"
            img = reference_render(spec, task, label, j)
            write_image(out / rel, img)
            items.append(ManifestItem(rel, label, split))
            if split == "train":
                train_pixels.append(img)
    stack = np.stack(train_pixels).astype(np.float64)
    save_manifest(out / "manifest.csv", DatasetManifest(
        name=task, classes=tuple(f"class{c:02d}" for c in range(spec.num_classes)), items=items,
        norm_mean=tuple(float(v) for v in stack.mean(axis=(0, 2, 3))),
        norm_std=tuple(max(float(v), 1e-6) for v in stack.std(axis=(0, 2, 3))),
    ))


ORACLE_SPECS = {
    # 100 images per class: full chunks and a 4-image tail
    "default": SynthSpec(),
    # fewer images than one chunk
    "small": SMALL_SPEC,
    "chunk+1": SynthSpec(num_classes=2, samples_per_class=SYNTH_CHUNK + 1, image_size=16,
                         blobs_per_class=1, noise_level=0.2, seed=9),
    "ramp-distractors-rgb-noiseless": SynthSpec(
        num_classes=3, samples_per_class=37, channels=3, noise_level=0.0, seed=4,
        source_style=StyleParams(ramp_amp=0.3, distractor_count=2, distractor_gain=0.5),
        target_style=StyleParams(base_level=0.6, blob_gain=-0.5, ramp_amp=-0.2,
                                 distractor_count=1, distractor_gain=-0.4),
    ),
}


@pytest.mark.parametrize("task", ["source", "target"])
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_synth_is_bitwise_the_per_image_reference(tmp_path, name, task):
    spec = ORACLE_SPECS[name]
    man = synth_generate(spec, task, tmp_path / "batched")
    reference_generate(spec, task, tmp_path / "reference")
    for rel in ["manifest.csv"] + [it.path for it in man.items]:
        assert (tmp_path / "batched" / rel).read_bytes() == (tmp_path / "reference" / rel).read_bytes(), rel
    # the float64 pixels too, before the float32 cast, through the one-image batch
    last = spec.samples_per_class - 1
    for label, index in ((0, 0), (spec.num_classes - 1, last)):
        want = reference_render(spec, task, label, index)
        got = render_image(spec, task, label, index)
        assert got.dtype == want.dtype and np.array_equal(got, want)
