import pytest

from peftlab.data import SynthSpec, load_manifest, synth_generate
from peftlab.train import DEFAULT_PRETRAIN_STEPS, pretrain_backbone
from peftlab.vit import PRESETS

# Small corpus for fast trainer/CLI tests: 5 classes x 30 images (21/4/5 split).
FAST_SPEC = SynthSpec(num_classes=5, samples_per_class=30, seed=11)


@pytest.fixture(scope="session")
def fast_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fast-data")
    synth_generate(FAST_SPEC, "source", base / "source")
    synth_generate(FAST_SPEC, "target", base / "target")
    return base


@pytest.fixture(scope="session")
def fast_source(fast_dirs):
    return load_manifest(fast_dirs / "source" / "manifest.csv")


@pytest.fixture(scope="session")
def fast_target(fast_dirs):
    return load_manifest(fast_dirs / "target" / "manifest.csv")


@pytest.fixture(scope="session")
def fast_ckpt(fast_dirs, fast_source, tmp_path_factory):
    path = tmp_path_factory.mktemp("fast-ckpt") / "backbone.peft"
    pretrain_backbone(PRESETS["tiny"], fast_source, steps=120, seed=0, out_path=path)
    return path


# Full-size benchmark corpus for the acceptance suite (default generator).
BENCH_SPEC = SynthSpec()
BENCH_PRETRAIN_STEPS = DEFAULT_PRETRAIN_STEPS


@pytest.fixture(scope="session")
def bench_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench-data")
    synth_generate(BENCH_SPEC, "source", base / "source")
    synth_generate(BENCH_SPEC, "target", base / "target")
    return base


@pytest.fixture(scope="session")
def bench_source(bench_dirs):
    return load_manifest(bench_dirs / "source" / "manifest.csv")


@pytest.fixture(scope="session")
def bench_target(bench_dirs):
    return load_manifest(bench_dirs / "target" / "manifest.csv")


@pytest.fixture(scope="session")
def bench_ckpt(bench_dirs, bench_source, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-ckpt") / "backbone.peft"
    result = pretrain_backbone(
        PRESETS["tiny"], bench_source, steps=BENCH_PRETRAIN_STEPS, seed=0, out_path=path
    )
    assert result.test_top1 > 0.9  # generator learnability floor
    return path
