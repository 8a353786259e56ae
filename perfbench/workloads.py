"""The benchmark's three workloads and the measurement around them.

Each workload is one phase of the paper's protocol, built only from
peftlab's public API (README.md says why each was chosen). The workload
seed sets the synthetic data's `SynthSpec.seed`, the pretrain seed and
the run seeds, so the same seed always gives the same inputs and, the
engine being deterministic, the same results bit for bit.

An untraced measurement repeats set-up (see SETUP_REPS), then repeats
the workload's operation until `seconds` have passed, and reports medians.
A traced measurement sets up once, runs the operation untraced, traced
(with the tracing wrappers installed) and untraced again, and checks all
three give identical results.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

from peftlab import data, train
from peftlab.checkpoint import checkpoint_hash, git_blob_sha1
from peftlab.errors import PeftLabError
from peftlab.lora import LoraConfig
from peftlab.train import TrainConfig
from peftlab.vit import PRESETS

import tracing

# Set-up repeats at least SETUP_REPS times and for at least SETUP_MIN_S seconds.
SETUP_REPS = 3
SETUP_MIN_S = 5.0
# Steps of the set-up pretrain that gives probe-k16 and lora-k4 their backbone. Over
# seeds 0-11 this backbone kept both cells further above chance than a 200-step one.
SETUP_PRETRAIN_STEPS = 100
# The protocol's pretrain budget; it clears PRETRAIN_FLOOR on every seed tried (0-11).
PRETRAIN_STEPS = 400
# Source test top-1 a pretrain must reach: the learnability floor of tests/conftest.py.
PRETRAIN_FLOOR = 0.9
LORA_STEPS = 100
RUN_SEEDS = 3


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    # TrainConfig mode of the timed cell; None times pretrain_backbone itself
    mode: str | None
    shots: int = 0
    lr_grid: tuple[float, ...] = ()
    max_steps: int | None = None
    pretrain_steps: int = SETUP_PRETRAIN_STEPS


WORKLOADS = {w.name: w for w in (
    Workload("probe-k16", mode="linear_probe", shots=16, lr_grid=(1e-3, 1e-2)),
    Workload("lora-k4", mode="lora", shots=4, lr_grid=(1e-2,), max_steps=LORA_STEPS),
    Workload("pretrain", mode=None, pretrain_steps=PRETRAIN_STEPS),
)}


@dataclass
class Setup:
    dir: Path
    source: data.DatasetManifest
    target: data.DatasetManifest | None
    backbone: Path | None
    digest: str
    synth_s: float


@dataclass
class Outcome:
    """One timed operation: a cell of (lr, seed) runs, or one pretrain."""

    attempted: int
    failed: int
    reasons: list[str]
    test_top1: float
    final_loss: float
    digest: str

    def fingerprint(self) -> bytes:
        return struct.pack("<dd", self.test_top1, self.final_loss) + self.digest.encode()


@dataclass
class Result:
    """What one measurement found.

    `checks` lists broken integrity checks: set-up or repeated operations
    that disagree, traced results that differ from untraced ones, or
    tracing wrappers left in place. Operation failures are counted in
    `failed` and explained by the outcomes' reasons.
    """

    metrics: dict[str, float]
    outcomes: list[Outcome]
    checks: list[str]
    op_walls: list[float]
    op_cpus: list[float]
    setup_walls: list[float]
    table: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def failures(self) -> list[str]:
        return sorted({r for o in self.outcomes for r in o.reasons})

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


def setup(w: Workload, seed: int, d: Path) -> Setup:
    """Synthesize the tasks `w` needs and, for a cell, pretrain its backbone."""
    spec = data.SynthSpec(seed=seed)
    t0 = time.perf_counter()
    source = data.synth_generate(spec, "source", d / "source")
    target = data.synth_generate(spec, "target", d / "target") if w.mode else None
    synth_s = time.perf_counter() - t0
    if w.mode is None:
        digest = git_blob_sha1((d / "source" / "manifest.csv").read_bytes())
        return Setup(d, source, None, None, digest, synth_s)
    backbone = d / "backbone.peft"
    train.pretrain_backbone(PRESETS["tiny"], source, steps=w.pretrain_steps, seed=seed,
                            out_path=backbone)
    return Setup(d, source, target, backbone, checkpoint_hash(backbone), synth_s)


def cell_config(w: Workload, seed: int) -> TrainConfig:
    lora = LoraConfig(rank=2, targets=("query", "value")) if w.mode == "lora" else None
    return TrainConfig(
        mode=w.mode, lr_grid=w.lr_grid, max_steps=w.max_steps, lora=lora,
        seeds=tuple(RUN_SEEDS * seed + i for i in range(RUN_SEEDS)),
    )


def _finite(curve) -> bool:
    return all(math.isfinite(v) for v in curve)


def run_cell(w: Workload, s: Setup, seed: int) -> Outcome:
    cfg = cell_config(w, seed)
    attempted = len(set(cfg.lr_grid)) * len(cfg.seeds)
    try:
        result = train.run_experiment(s.backbone, s.target, cfg, k=w.shots)
    except PeftLabError as e:
        return Outcome(attempted, attempted, [f"{type(e).__name__}: {e}"], math.nan, math.nan, "")
    runs = result.runs
    reasons = [f"seed {r.seed}: non-finite loss" for r in runs if not _finite(r.loss_curve)]
    top1 = statistics.fmean(r.test_top1 for r in runs)
    chance = 1.0 / s.target.num_classes
    failed = len(reasons)
    if top1 <= chance:
        reasons.append(f"mean test_top1 {top1:.4f} at or below chance {chance:.4f}")
        failed = len(runs)
    h = hashlib.sha1(repr(result.chosen_lr).encode())
    for r in runs:
        h.update(repr((r.seed, r.lr, r.val_top1, r.test_top1, r.loss_curve)).encode())
    final_loss = statistics.fmean(r.loss_curve[-1] for r in runs)
    return Outcome(attempted, failed, reasons, top1, final_loss, h.hexdigest())


def run_pretrain(w: Workload, s: Setup, seed: int) -> Outcome:
    out = s.dir / "pretrained.peft"
    try:
        res = train.pretrain_backbone(PRESETS["tiny"], s.source, steps=w.pretrain_steps,
                                      seed=seed, out_path=out)
    except PeftLabError as e:
        return Outcome(1, 1, [f"{type(e).__name__}: {e}"], math.nan, math.nan, "")
    reasons = []
    if not _finite(res.loss_curve):
        reasons.append("non-finite loss")
    if res.test_top1 < PRETRAIN_FLOOR:
        reasons.append(f"source test_top1 {res.test_top1:.4f} under the {PRETRAIN_FLOOR} floor")
    digest = hashlib.sha1(repr((res.test_top1, res.loss_curve)).encode())
    digest.update(checkpoint_hash(out).encode())
    final_loss = res.loss_curve[-1] if res.loss_curve else math.nan
    return Outcome(1, 1 if reasons else 0, reasons, res.test_top1, final_loss, digest.hexdigest())


def run_op(w: Workload, s: Setup, seed: int) -> Outcome:
    return run_cell(w, s, seed) if w.mode else run_pretrain(w, s, seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_op(w: Workload, s: Setup, seed: int) -> tuple[Outcome, float, float]:
    w0, c0 = time.perf_counter(), time.process_time()
    out = run_op(w, s, seed)
    return out, time.perf_counter() - w0, time.process_time() - c0


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            setup_reps: int = SETUP_REPS, setup_min_s: float = SETUP_MIN_S) -> Result:
    """Set up, time the operation, and check its results; see the module doc."""
    checks: list[str] = []
    setup_walls: list[float] = []
    synth_walls: list[float] = []
    digests: set[str] = set()
    reps, min_s = (1, 0.0) if trace else (setup_reps, setup_min_s)
    s = None
    while len(setup_walls) < reps or sum(setup_walls) < min_s:
        if s is not None:
            shutil.rmtree(s.dir)
        t0 = time.perf_counter()
        s = setup(w, seed, workdir / f"setup{len(setup_walls)}")
        setup_walls.append(time.perf_counter() - t0)
        synth_walls.append(s.synth_s)
        digests.add(s.digest)
    if len(digests) != 1:
        checks.append(f"set-up gave {len(digests)} different results over {len(setup_walls)} reps")

    timed = []
    table = []
    if trace:
        # untraced runs before and after the traced one, so warm-up lands on neither side
        timed.append(_timed_op(w, s, seed))
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as patcher:
            patched = list(patcher.saved)
            timed.append(_timed_op(w, s, seed))
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patched
                if vars(o)[a] is not orig]
        if left:
            checks.append(f"tracing wrappers not restored: {', '.join(left)}")
        timed.append(_timed_op(w, s, seed))
        walls = [t[1] for t in timed]
        metrics = tracing.layer_metrics(tracer)
        metrics["data.synth_s"] = statistics.median(synth_walls)
        metrics["trace.overhead_frac"] = 2.0 * walls[1] / (walls[0] + walls[2]) - 1.0
        table = tracing.self_time_table(tracer)
    else:
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() < deadline:
            timed.append(_timed_op(w, s, seed))
        metrics = {
            "wall_s": statistics.median(t[1] for t in timed),
            "cpu_s": statistics.median(t[2] for t in timed),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": peak_rss_mb(),
        }
    outcomes = [t[0] for t in timed]
    if len({o.fingerprint() for o in outcomes}) != 1:
        checks.append(("traced results differ from untraced ones" if trace
                       else f"{len(outcomes)} repeats of the operation gave different results"))
    return Result(metrics, outcomes, checks, [t[1] for t in timed], [t[2] for t in timed],
                  setup_walls, table)
