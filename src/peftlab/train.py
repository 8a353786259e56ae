"""Training loops for the three experiment shapes: linear probe, LoRA
few-shot adaptation, and fraction-of-dataset scaling, plus the LR sweep
and multi-seed aggregation around them.

Every stochastic choice (episode draw, batch order, adapter init) is
derived from the run seed through the portable RNG, so a run is a pure
function of (checkpoint, data, config, seed) and reruns are
bit-identical within one precision. Wall-clock time is the one recorded
quantity that is not.

Probe and LoRA runs compute in f32 by default; f64 stays selectable and
is the reference for the determinism, merge and gradient checks. The
two precisions give different bits, not only different speeds, so the
CLI keeps each results cell in the precision it was first run in.
Pretraining stays f64: its checkpoint is the foundation every run
starts from.

A cell's (lr, seed) runs are independent, so `run_experiment` spreads
them over forked worker processes, one per available CPU by default.
The results come back in serial order and are bit-identical to
`jobs=1`, which is the plain serial loop and starts no process. Only
`SeedRun.wall_ms` differs: it is the run's own wall time, under
whatever CPU sharing the host gave it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import checkpoint_hash, load_backbone, save_backbone
from .data import DatasetManifest, sample_episode
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericError,
    ParseError,
    VerificationError,
)
from .files import write_atomic
from .head import LinearHead, top1_accuracy
from .lora import LoraConfig, inject
from .optim import AdamW
from .rng import Rng
from .tensor import Tensor
from .vit import ViTConfig, ViTModel

DEFAULT_LR_GRID = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
DEFAULT_SEEDS = (0, 1, 2)
# Source pretraining budget of `peftlab pretrain` and the test fixtures. In f64 it
# clears the 0.9 source floor on SynthSpec(seed=s) with pretrain seed s for s = 18
# and 23, where 400 steps miss it (tests/test_train.py).
DEFAULT_PRETRAIN_STEPS = 600

# Largest merged/unmerged relative error over the benchmark's lora-k4 cells
# (set-up seeds 0-39, lr 1e-3 and 1e-2, 360 runs): 1.7e-14 in f64 and
# 4.0e-6 in f32, a margin of 2.5x under the f32 tolerance.
MERGE_TOL = {"f64": 1e-10, "f32": 1e-5}


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "linear_probe"  # or "lora"
    lr_grid: tuple[float, ...] = DEFAULT_LR_GRID
    batch_size: int = 32
    max_steps: int | None = None        # None: max(200, 50k) few-shot, else epochs
    epochs: int = 20                    # full-split / fraction runs
    weight_decay: float = 1e-2
    schedule: str = "cosine"
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    # f32 is the fast path; f64 is the bit-exact reference. Reruns are
    # bit-identical within one precision, not across the two.
    precision: str = "f32"
    lora: LoraConfig | None = None
    data_fraction: float = 1.0
    val_mode: str = "fewshot"           # "fewshot" or "full"
    cache_features: bool = True

    def __post_init__(self):
        if self.mode not in ("linear_probe", "lora"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "lora" and self.lora is None:
            raise ConfigError("lora mode needs a LoraConfig")
        if not self.lr_grid:
            raise ConfigError("lr_grid must be non-empty")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(lr <= 0 for lr in self.lr_grid):
            raise ConfigError("learning rates must be positive")
        if not (0.0 < self.data_fraction <= 1.0):
            raise ConfigError(f"data_fraction must be in (0,1], got {self.data_fraction}")
        if self.val_mode not in ("fewshot", "full"):
            raise ConfigError(f"unknown val_mode {self.val_mode!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")


@dataclass
class SeedRun:
    seed: int
    lr: float
    val_top1: float
    test_top1: float
    trainable_params: int
    wall_ms: int
    loss_curve: list[float] = field(repr=False, default_factory=list)


@dataclass
class RunResult:
    mode: str
    dataset: str
    k_or_fraction: str
    chosen_lr: float
    runs: list[SeedRun]
    trainable_params: int

    def test_accs(self) -> list[float]:
        return [r.test_top1 for r in self.runs]


@dataclass(frozen=True)
class Aggregate:
    mean: float
    std: float
    n: int


def aggregate(values) -> Aggregate:
    """Arithmetic mean and sample (n-1) standard deviation.

    Identical inputs aggregate exactly (mean = the value, std = 0), so
    zero-variance rows really print as "±0"."""
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("aggregate of zero results")
    n = len(vals)
    if all(v == vals[0] for v in vals):
        return Aggregate(mean=vals[0], std=0.0, n=n)
    mean = sum(vals) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
    return Aggregate(mean=mean, std=std, n=n)


def format_mean_std(agg: Aggregate, percent: bool = False) -> str:
    """Table-style cell: "mean±std" to 2 decimals; exact-zero std prints "±0"."""
    scale = 100.0 if percent else 1.0
    std = "0" if agg.std == 0.0 else f"{agg.std * scale:.2f}"
    cell = f"{agg.mean * scale:.2f}±{std}"
    return cell + " (n=1)" if agg.n == 1 else cell


def derive_seed(seed: int, *tags) -> int:
    return int(Rng(seed).derive(*tags)._key)


def default_fewshot_steps(k: int) -> int:
    return max(200, 50 * k)


# -- shared plumbing ---------------------------------------------------------


def _batch_indices(n: int, batch_size: int, steps: int, rng: Rng):
    """Epoch-shuffled minibatches, `steps` of them in total."""
    if n == 0:
        raise InsufficientDataError("no training examples to draw minibatches from")
    done = 0
    while done < steps:
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            if done >= steps:
                return
            yield perm[lo:lo + batch_size]
            done += 1


def _logits_in_chunks(forward, images: np.ndarray, batch_size: int) -> np.ndarray:
    outs = []
    for lo in range(0, images.shape[0], batch_size):
        outs.append(forward(images[lo:lo + batch_size]).data)
    return np.concatenate(outs, axis=0)


class _Images:
    """The images at `indices`, each decoded once into `precision`'s dtype;
    held by one cell or one pretraining, never memoized on the manifest."""

    def __init__(self, manifest: DatasetManifest, indices, precision: str):
        self.manifest = manifest
        dtype = T.resolve_dtype(precision)
        self.pixels = {i: manifest.load(i).astype(dtype) for i in dict.fromkeys(indices)}

    def split(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(images stacked in the order of `indices`, their labels)."""
        return np.stack([self.pixels[i] for i in indices]), self.manifest.labels(indices)


def _fit(forward, trainable, images, labels, *, lr: float, seed: int, steps: int,
         batch_size: int, weight_decay: float, schedule: str) -> list[float]:
    """Optimize `trainable` on (images, labels); returns the loss curve."""
    opt = AdamW(trainable, lr=lr, weight_decay=weight_decay, schedule=schedule, max_steps=steps)
    rng = Rng(seed).derive("batches")
    curve: list[float] = []
    n = images.shape[0]
    for step, idx in enumerate(_batch_indices(n, batch_size, steps, rng)):
        opt.zero_grad()
        try:
            logits = forward(images[idx])
            loss = T.softmax_cross_entropy(logits, labels[idx])
        except NumericError as e:
            raise NumericError(f"divergence at step {step}: {e}") from e
        loss.backward()
        opt.step()
        curve.append(loss.item())
    return curve


def _snapshot(model: ViTModel) -> dict[str, bytes]:
    return {name: p.data.tobytes() for name, p in model.parameters().items()}


def _assert_backbone_unchanged(model: ViTModel, before: dict[str, bytes], context: str) -> None:
    for name, p in model.parameters().items():
        if p.data.tobytes() != before[name]:
            raise VerificationError(f"{context}: backbone parameter {name} changed during training")


# -- single runs -------------------------------------------------------------


def _probe_run(backbone_path, images: _Images, support, val_idx, test_idx, cfg, lr, seed, steps):
    model = load_backbone(backbone_path, precision=cfg.precision)
    model.set_trainable(False)
    before = _snapshot(model)
    head = LinearHead(images.manifest.num_classes, model.config.dim, precision=cfg.precision)

    sup_images, sup_labels = images.split(support)
    val_images, val_labels = images.split(val_idx)
    test_images, test_labels = images.split(test_idx)

    if cfg.cache_features:
        inputs = _logits_in_chunks(model.forward, sup_images, cfg.batch_size)

        def forward(batch):  # batch is a feature matrix here
            return head.forward(Tensor(batch))
    else:
        inputs = sup_images

        def forward(batch):
            return head.forward(model.forward(batch))

    curve = _fit(forward, list(head.parameters().values()), inputs, sup_labels, lr=lr, seed=seed,
                 steps=steps, batch_size=cfg.batch_size, weight_decay=cfg.weight_decay,
                 schedule=cfg.schedule)

    def eval_forward(batch):
        return head.forward(model.forward(batch))

    val_acc = top1_accuracy(_logits_in_chunks(eval_forward, val_images, cfg.batch_size), val_labels)
    test_acc = top1_accuracy(_logits_in_chunks(eval_forward, test_images, cfg.batch_size), test_labels)
    _assert_backbone_unchanged(model, before, "linear_probe")
    count = sum(p.data.size for p in head.parameters().values())
    return val_acc, test_acc, curve, count, head, model


def _lora_run(backbone_path, images: _Images, support, val_idx, test_idx, cfg, lr, seed, steps):
    model = load_backbone(backbone_path, precision=cfg.precision)
    lora_cfg = replace(cfg.lora, init_seed=derive_seed(seed, "lora", cfg.lora.init_seed))
    adapted = inject(model, lora_cfg)
    before = _snapshot(model)
    head = LinearHead(images.manifest.num_classes, model.config.dim, precision=cfg.precision)

    sup_images, sup_labels = images.split(support)
    val_images, val_labels = images.split(val_idx)
    test_images, test_labels = images.split(test_idx)

    trainable = list(adapted.trainable_parameters().values()) + list(head.parameters().values())

    def forward(batch):
        return head.forward(adapted.forward(batch))

    curve = _fit(forward, trainable, sup_images, sup_labels, lr=lr, seed=seed, steps=steps,
                 batch_size=cfg.batch_size, weight_decay=cfg.weight_decay, schedule=cfg.schedule)

    val_acc = top1_accuracy(_logits_in_chunks(forward, val_images, cfg.batch_size), val_labels)

    # merge for inference, re-verify merged == unmerged on the eval set
    unmerged_logits = _logits_in_chunks(forward, test_images, cfg.batch_size)
    _assert_backbone_unchanged(model, before, "lora (pre-merge)")
    adapted.merge_all()
    merged_logits = _logits_in_chunks(forward, test_images, cfg.batch_size)
    tol = MERGE_TOL[cfg.precision]
    denom = max(float(np.abs(unmerged_logits).max()), 1e-12)
    rel = float(np.abs(merged_logits - unmerged_logits).max()) / denom
    if rel > tol:
        raise VerificationError(f"merged/unmerged logits disagree: rel {rel:.3e} > {tol:g}")
    test_acc = top1_accuracy(merged_logits, test_labels)

    count = sum(p.data.size for p in trainable)
    return val_acc, test_acc, curve, count, head, adapted


def _single_run(backbone_path, images, support, val_idx, test_idx, cfg, lr, seed, steps) -> SeedRun:
    t0 = time.perf_counter()
    run = _probe_run if cfg.mode == "linear_probe" else _lora_run
    val_acc, test_acc, curve, count, _, _ = run(
        backbone_path, images, support, val_idx, test_idx, cfg, lr, seed, steps
    )
    wall_ms = int((time.perf_counter() - t0) * 1000)
    return SeedRun(seed=seed, lr=lr, val_top1=val_acc, test_top1=test_acc,
                   trainable_params=count, wall_ms=wall_ms, loss_curve=curve)


# -- experiment drivers --------------------------------------------------------


def _selections(manifest: DatasetManifest, cfg: TrainConfig, k: int | None, seed: int):
    """(support, val, test) index lists for one seed."""
    test_idx = manifest.indices("test")
    if k is not None:
        episode = sample_episode(manifest, k, seed)
        support = episode.all_indices()
        if cfg.val_mode == "fewshot":
            val_ep = sample_episode(
                manifest, min(k, 4), derive_seed(seed, "val-episode"), exclude=support
            )
            val_idx = val_ep.all_indices()
        else:
            val_idx = manifest.indices("val")
        return support, val_idx, test_idx
    support = _fraction_subset(manifest, cfg.data_fraction, seed)
    return support, manifest.indices("val"), test_idx


def _fraction_subset(manifest: DatasetManifest, fraction: float, seed: int) -> list[int]:
    """Per-class proportional subsample; nested across fractions for one seed."""
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0,1], got {fraction}")
    out: list[int] = []
    for label, pool in enumerate(manifest.by_class("train")):
        want = int(math.floor(fraction * len(pool) + 1e-9))
        if want == 0:
            raise InsufficientDataError(
                f"fraction {fraction:g} yields zero items for class {manifest.classes[label]!r}"
            )
        perm = Rng(seed).derive("fraction", label).permutation(len(pool))
        out.extend(sorted(pool[p] for p in perm[:want]))
    return sorted(out)


def _steps_for(cfg: TrainConfig, k: int | None, n_support: int) -> int:
    if cfg.max_steps is not None:
        return cfg.max_steps
    if k is not None:
        return default_fewshot_steps(k)
    return cfg.epochs * max(1, math.ceil(n_support / cfg.batch_size))


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rebuildable(e: Exception) -> Exception:
    """`e` if it survives a trip through a pipe, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(e))
        return e
    except Exception:
        return RuntimeError(f"{type(e).__name__}: {e}")


def _worker(fn, tasks, first: int, stride: int, conn) -> None:
    """Run tasks[first::stride] in order up to the first error. Each finished
    task's index is sent at once, a few bytes that never fill the pipe; the
    results, and the error that ended the share if one did, follow at the end."""
    # the parent stops the workers on an interrupt; one traceback is enough
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    done, error = {}, None
    for i in range(first, len(tasks), stride):
        try:
            done[i] = fn(*tasks[i])
        except Exception as e:  # re-raised by the parent, in _fan_out
            error = (i, _rebuildable(e))
            break
        conn.send(i)
    conn.send((done, error))
    conn.close()


def _collect(proc, recv, first: int, stride: int, done: dict, errors: dict) -> None:
    """Read one worker's results into `done` and its error into `errors`.

    A worker that dies counts as an error at the first task it did not
    report finished. A worker whose next task lies past the lowest error
    index so far is terminated: the serial loop would not have run it."""
    i = first
    while True:
        if errors and i > min(errors):
            proc.terminate()
            return
        try:
            msg = recv.recv()
        except EOFError:
            proc.join()
            errors[i] = RuntimeError(f"run worker {proc.pid} exited with code "
                                     f"{proc.exitcode} before reporting its results")
            return
        if isinstance(msg, int):
            i = msg + stride
            continue
        their_done, error = msg
        done.update(their_done)
        if error is not None:
            errors[error[0]] = error[1]
        return


def _fan_out(fn, tasks: list[tuple], jobs: int) -> list:
    """[fn(*task) for task in tasks], spread over `jobs` processes.

    The parent forks jobs - 1 workers and runs every jobs-th task itself;
    worker w runs tasks w, w + jobs, ... Each process stops at its first
    error and the lowest-index error is raised, so it is the one the serial
    loop raises first (see `_collect` for a worker that dies or is stopped
    early). Every worker is joined before this returns or raises. With one
    job or one task, without `fork`, with other threads in this process
    (which `fork` would not carry over), or in a daemonic process (which
    may not start processes), this is the serial loop. A BLAS library's
    own threads are not counted: OpenBLAS, which numpy's wheels ship,
    stops its pool around `fork`; with a BLAS that cannot be forked,
    pass jobs=1.
    """
    jobs = min(jobs, len(tasks))
    if (jobs < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return [fn(*task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    workers = []
    done: dict[int, object] = {}
    errors: dict[int, Exception] = {}
    try:
        for first in range(1, jobs):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(fn, tasks, first, jobs, send), daemon=True)
            workers.append((proc, recv))
            proc.start()
            send.close()
        for i in range(0, len(tasks), jobs):
            try:
                done[i] = fn(*tasks[i])
            except Exception as e:  # raised below unless an earlier task failed too
                errors[i] = e
                break
        for first, (proc, recv) in enumerate(workers, start=1):
            _collect(proc, recv, first, jobs, done, errors)
    except BaseException:
        for proc, _ in workers:
            if proc.pid is not None:
                proc.terminate()
        raise
    finally:
        for proc, recv in workers:
            if proc.pid is not None:
                proc.join()
            recv.close()
    if errors:
        raise errors[min(errors)]
    return [done[i] for i in range(len(tasks))]


def lr_sweep(run_fn, cfg: TrainConfig, jobs: int = 1):
    """Run per (lr, seed), pick the lr with best mean validation top-1.

    The grid is deduplicated before running; ties go to the smaller lr.
    The runs are spread over `jobs` processes (see `_fan_out`); the
    results do not depend on it.
    Returns (best_lr, {lr: [SeedRun per seed]}).
    """
    grid = sorted(set(cfg.lr_grid))
    n = len(cfg.seeds)
    runs = _fan_out(run_fn, [(lr, seed) for lr in grid for seed in cfg.seeds], jobs)
    results = {lr: runs[i * n:(i + 1) * n] for i, lr in enumerate(grid)}
    best_lr, best_val = None, -1.0
    for lr in grid:
        mean_val = aggregate([r.val_top1 for r in results[lr]]).mean
        if mean_val > best_val:
            best_lr, best_val = lr, mean_val
    return best_lr, results


def run_experiment(backbone_path, manifest: DatasetManifest, cfg: TrainConfig,
                   k: int | None = None, dataset_name: str | None = None,
                   jobs: int | None = None) -> RunResult:
    """Full protocol for one (mode, shots-or-fraction) cell: LR sweep on
    validation, final metrics on test, one SeedRun per configured seed.

    The runs may execute in up to `jobs` forked worker processes; None
    means one per available CPU, at most one per run. Results come back in
    serial order, bit-identical to `jobs=1`, which starts no process;
    `SeedRun.wall_ms` is each run's own time under whatever CPU sharing
    the host gave it. An exception from any run reaches the caller with
    its class and message, and it is the one `jobs=1` raises first (rerun
    with `jobs=1` for a traceback from inside the run).

    Before any run starts, every seed's images (support, validation and
    test) are chosen and decoded once for the whole cell, so a data error
    there is raised before any training.
    """
    if k is not None and k < 1:
        raise ConfigError(f"shots per class must be >= 1, got {k}")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    selections = {seed: _selections(manifest, cfg, k, seed) for seed in cfg.seeds}
    images = _Images(manifest, (i for split in selections.values() for indices in split
                                for i in indices), cfg.precision)

    def run_fn(lr: float, seed: int) -> SeedRun:
        support, val_idx, test_idx = selections[seed]
        steps = _steps_for(cfg, k, len(support))
        return _single_run(backbone_path, images, support, val_idx, test_idx, cfg, lr, seed, steps)

    best_lr, results = lr_sweep(run_fn, cfg, available_cpus() if jobs is None else jobs)
    runs = results[best_lr]
    k_or_fraction = str(k) if k is not None else f"{cfg.data_fraction:g}"
    return RunResult(
        mode=cfg.mode,
        dataset=dataset_name or manifest.name,
        k_or_fraction=k_or_fraction,
        chosen_lr=best_lr,
        runs=runs,
        trainable_params=runs[0].trainable_params,
    )


def run_fraction_scaling(backbone_path, manifest, fractions, cfg: TrainConfig,
                         dataset_name: str | None = None,
                         jobs: int | None = None) -> list[RunResult]:
    """One RunResult per fraction; subsets are nested per seed as the
    fraction grows (same per-class permutation, longer prefix). `jobs` is
    as in `run_experiment`."""
    out = []
    for fraction in sorted(set(float(f) for f in fractions)):
        fcfg = replace(cfg, data_fraction=fraction)
        out.append(run_experiment(backbone_path, manifest, fcfg, k=None,
                                  dataset_name=dataset_name, jobs=jobs))
    return out


# -- pretraining ----------------------------------------------------------------


@dataclass
class PretrainResult:
    path: Path
    test_top1: float
    loss_curve: list[float]


def pretrain_backbone(vit_cfg: ViTConfig, manifest: DatasetManifest, steps: int, seed: int,
                      out_path, lr: float = 1e-3, batch_size: int = 32,
                      precision: str = "f64") -> PretrainResult:
    """Train backbone + throwaway head end-to-end on the synthetic source
    task; the saved backbone acts as the pretrained foundation for every
    downstream run. steps=0 just saves the seeded initialization."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    model = ViTModel.init(vit_cfg, seed=seed, precision=precision)
    head = LinearHead(manifest.num_classes, vit_cfg.dim, precision=precision)
    train_idx = manifest.indices("train")
    images, labels = _Images(manifest, train_idx, precision).split(train_idx)

    trainable = list(model.parameters().values()) + list(head.parameters().values())
    curve: list[float] = []
    if steps > 0:
        def forward(batch):
            return head.forward(model.forward(batch))

        curve = _fit(forward, trainable, images, labels, lr=lr, seed=seed, steps=steps,
                     batch_size=batch_size, weight_decay=1e-2, schedule="cosine")

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_backbone(out_path, model)

    test_idx = manifest.indices("test")
    test_images, test_labels = _Images(manifest, test_idx, precision).split(test_idx)

    def eval_forward(batch):
        return head.forward(model.forward(batch))

    test_acc = top1_accuracy(_logits_in_chunks(eval_forward, test_images, batch_size), test_labels)
    return PretrainResult(path=out_path, test_top1=test_acc, loss_curve=curve)


# -- results CSV and run manifests ----------------------------------------------

CSV_HEADER = "mode,dataset,k_or_fraction,lr,seed,test_top1,params_trainable,wall_ms"


@dataclass(frozen=True)
class ResultRow:
    mode: str
    dataset: str
    k_or_fraction: str
    lr: float
    seed: int
    test_top1: float
    params_trainable: int
    wall_ms: int

    def key(self):
        return (self.mode, self.dataset, self.k_or_fraction, f"{self.lr:g}", self.seed)

    def to_csv(self) -> str:
        return (
            f"{self.mode},{self.dataset},{self.k_or_fraction},{self.lr:g},{self.seed},"
            f"{self.test_top1:.6f},{self.params_trainable},{self.wall_ms}"
        )


def result_rows(result: RunResult) -> list[ResultRow]:
    return [
        ResultRow(
            mode=result.mode, dataset=result.dataset, k_or_fraction=result.k_or_fraction,
            lr=result.chosen_lr, seed=r.seed, test_top1=r.test_top1,
            params_trainable=r.trainable_params, wall_ms=r.wall_ms,
        )
        for r in result.runs
    ]


def read_results(path) -> list[ResultRow]:
    rows: list[ResultRow] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line == CSV_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError(f"{path}: line {ln}: expected 8 fields, got {len(parts)}")
        try:
            rows.append(ResultRow(
                mode=parts[0], dataset=parts[1], k_or_fraction=parts[2], lr=float(parts[3]),
                seed=int(parts[4]), test_top1=float(parts[5]),
                params_trainable=int(parts[6]), wall_ms=int(parts[7]),
            ))
        except ValueError as e:
            raise ParseError(f"{path}: line {ln}: {e}")
    return rows


def append_results(path, rows: list[ResultRow]) -> int:
    """Append rows not already present (dedup on everything except wall
    time); a rerun with identical inputs leaves the file byte-identical."""
    path = Path(path)
    existing: set = set()
    lines: list[str] = [CSV_HEADER]
    if path.exists():
        have = read_results(path)
        existing = {r.key() for r in have}
        lines += [r.to_csv() for r in have]
    added = 0
    for r in rows:
        if r.key() in existing:
            continue
        existing.add(r.key())
        lines.append(r.to_csv())
        added += 1
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, "\n".join(lines) + "\n")
    return added


def build_run_manifest(cfg: TrainConfig, backbone_path, extra: dict | None = None) -> str:
    """Canonical key=value capture of every config field plus the backbone
    checkpoint content hash; deterministic, so reruns rewrite identical bytes."""
    fields: dict[str, str] = {
        "mode": cfg.mode,
        "lr_grid": ",".join(f"{lr:g}" for lr in cfg.lr_grid),
        "batch_size": str(cfg.batch_size),
        "max_steps": "" if cfg.max_steps is None else str(cfg.max_steps),
        "epochs": str(cfg.epochs),
        "weight_decay": repr(cfg.weight_decay),
        "schedule": cfg.schedule,
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "precision": cfg.precision,
        "data_fraction": repr(cfg.data_fraction),
        "val_mode": cfg.val_mode,
        "cache_features": str(cfg.cache_features),
        "backbone_hash": checkpoint_hash(backbone_path),
    }
    if cfg.lora is not None:
        fields.update({
            "lora.rank": str(cfg.lora.rank),
            "lora.alpha": repr(cfg.lora.effective_alpha),
            "lora.targets": ",".join(cfg.lora.targets),
            "lora.init_seed": str(cfg.lora.init_seed),
        })
    for k, v in (extra or {}).items():
        fields[str(k)] = str(v)
    return "".join(f"{k}={fields[k]}\n" for k in sorted(fields))
