"""Command-line entry point.

Subcommands: synth, pretrain, probe, lora, sweep, scale, verify, report.
Every flag can also come from a flat key=value config file passed with
--config; explicit flags win over file values, which win over defaults.
Exit codes: 0 ok, 2 config error, 3 data error (a file that cannot be
read or written included), 4 numeric error, 5 verification failure.

probe, lora, sweep and scale take --jobs N (or jobs=N in the config
file): a cell's (lr, seed) runs are spread over N processes, 1 to the
number of CPUs this process may use, all of them by default. The results
CSV rows (apart from wall_ms) and the .manifest files do not depend on
N, and N is not recorded in them. Run it as `peftlab` or `python -m peftlab`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .checkpoint import checkpoint_hash
from .data import SynthSpec, load_manifest, synth_generate, synth_spec_from_dict
from .errors import ConfigError, DataError, PeftLabError, VerificationError
from .files import write_atomic
from .lora import LoraConfig, parse_targets
from .report import render_series, render_table
from .train import (
    DEFAULT_LR_GRID,
    DEFAULT_SEEDS,
    TrainConfig,
    aggregate,
    append_results,
    available_cpus,
    build_run_manifest,
    format_mean_std,
    pretrain_backbone,
    read_results,
    result_rows,
    run_experiment,
    run_fraction_scaling,
)
from .verify import run_verify
from .vit import preset


def _read_kv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e}")
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {ln}: expected key=value")
        k, _, v = line.partition("=")
        out[k.strip()] = v.strip()
    return out


class _Opts:
    """Flag > config-file > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = _read_kv(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None, conv=str):
        flag = self.args.get(name.replace("-", "_"))
        if flag is not None:
            return flag
        if name in self.file:
            raw = self.file[name]
            try:
                return conv(raw)
            except ValueError:
                raise ConfigError(f"config file value {name}={raw!r} is not a valid {conv.__name__}")
        return default


_DATASET_NAME = re.compile(r"[A-Za-z0-9._-]+")


def _dataset_name(o: _Opts) -> str | None:
    """--dataset-name, checked before anything runs: it becomes a results
    CSV field and part of the run manifest's file name."""
    name = o.get("dataset-name")
    if name is not None and not _DATASET_NAME.fullmatch(name):
        raise ConfigError(
            f"dataset name {name!r} must be non-empty and use only letters, digits, '.', '_' and '-'"
        )
    return name


def _jobs(o: _Opts) -> int | None:
    """--jobs, checked before anything runs or is written."""
    jobs = o.get("jobs", None, int)
    cpus = available_cpus()
    if jobs is not None and not 1 <= jobs <= cpus:
        raise ConfigError(f"--jobs must be between 1 and {cpus}, the CPUs available, got {jobs}")
    return jobs


def _parse_floats(s: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in str(s).split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}")


def _parse_ints(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(s).split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {s!r}")


def _bool(s) -> bool:
    if isinstance(s, bool):
        return s
    return str(s).lower() in ("1", "true", "yes", "on")


_CELL_PRECISION_HELP = "default f32; f64 is the bit-exact reference"
_JOBS_HELP = ("processes for a cell's (lr, seed) runs, 1 to the available CPUs "
              "(default: all of them); results do not depend on it")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="peftlab")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file; flags take precedence")

    sp = sub.add_parser("synth", help="generate the synthetic source/target datasets")
    common(sp)
    sp.add_argument("--spec", help="key=value synthesis spec file")
    sp.add_argument("--out", required=True)
    sp.add_argument("--task", choices=["source", "target", "both"], default="both")

    sp = sub.add_parser("pretrain", help="pretrain the tiny backbone on the source task")
    common(sp)
    sp.add_argument("--data", required=True, help="dataset directory (contains manifest.csv)")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--precision", choices=["f64", "f32"], help="default f64")
    sp.add_argument("--preset", default=None)
    sp.add_argument("--out", required=True)

    for mode in ("probe", "lora"):
        sp = sub.add_parser(mode, help=f"run {mode} fine-tuning")
        common(sp)
        sp.add_argument("--backbone", required=True)
        sp.add_argument("--data", required=True)
        sp.add_argument("--shots", type=int, help="shots per class; omit to use the full train split")
        sp.add_argument("--seeds")
        sp.add_argument("--lr-grid")
        sp.add_argument("--steps", type=int)
        sp.add_argument("--epochs", type=int)
        sp.add_argument("--batch-size", type=int)
        sp.add_argument("--precision", choices=["f64", "f32"], help=_CELL_PRECISION_HELP)
        sp.add_argument("--val", choices=["fewshot", "full"])
        sp.add_argument("--dataset-name")
        sp.add_argument("--jobs", type=int, help=_JOBS_HELP)
        sp.add_argument("--out", required=True)
        if mode == "lora":
            sp.add_argument("--rank", type=int)
            sp.add_argument("--targets")
            sp.add_argument("--alpha", type=float)
        else:
            # default None, not False, so that a config file's no-cache is not overridden
            sp.add_argument("--no-cache", action="store_true", default=None,
                            help="recompute features every step")

    sp = sub.add_parser("sweep", help="probe and lora across a list of shot counts")
    common(sp)
    sp.add_argument("--backbone", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--shots-list")
    sp.add_argument("--seeds")
    sp.add_argument("--lr-grid")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--precision", choices=["f64", "f32"], help=_CELL_PRECISION_HELP)
    sp.add_argument("--val", choices=["fewshot", "full"])
    sp.add_argument("--rank", type=int)
    sp.add_argument("--targets")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--dataset-name")
    sp.add_argument("--jobs", type=int, help=_JOBS_HELP)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("scale", help="fraction-of-dataset scaling runs")
    common(sp)
    sp.add_argument("--backbone", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--fractions")
    sp.add_argument("--mode", choices=["linear_probe", "lora"])
    sp.add_argument("--seeds")
    sp.add_argument("--lr-grid")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--precision", choices=["f64", "f32"], help=_CELL_PRECISION_HELP)
    sp.add_argument("--rank", type=int)
    sp.add_argument("--targets")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--dataset-name")
    sp.add_argument("--jobs", type=int, help=_JOBS_HELP)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("verify", help="run the cross-module invariant suite")
    common(sp)
    sp.add_argument("--backbone", help="also verify this checkpoint's integrity")
    sp.add_argument("--debug-nonzero-b", action="store_true", default=None,
                    help="deliberately break LoRA zero-init to prove the check fires")

    sp = sub.add_parser("report", help="render a results CSV")
    common(sp)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--shape", choices=["table", "series"], default="table")
    sp.add_argument("--mode")
    sp.add_argument("--dataset")
    sp.add_argument("--baseline", type=float, help="reference accuracy row for series output")
    sp.add_argument("--out", help="write here instead of stdout")
    return p


def _train_config(o: _Opts, mode: str) -> TrainConfig:
    lora_cfg = None
    if mode == "lora":
        lora_cfg = LoraConfig(
            rank=o.get("rank", 2, int),
            alpha=o.get("alpha", None, float),
            targets=parse_targets(o.get("targets", "q,v")),
            init_seed=o.get("lora-init-seed", 0, int),
        )
    return TrainConfig(
        mode="lora" if mode == "lora" else "linear_probe",
        lr_grid=o.get("lr-grid", DEFAULT_LR_GRID, _parse_floats),
        batch_size=o.get("batch-size", 32, int),
        max_steps=o.get("steps", None, int),
        epochs=o.get("epochs", 20, int),
        seeds=o.get("seeds", DEFAULT_SEEDS, _parse_ints),
        precision=o.get("precision", "f32"),
        lora=lora_cfg,
        val_mode=o.get("val", "fewshot"),
        cache_features=not o.get("no-cache", False, _bool),
    )


def _parse_seeds_grid(o: _Opts) -> None:
    # argparse keeps these as raw strings when passed as flags
    if isinstance(o.args.get("seeds"), str):
        o.args["seeds"] = _parse_ints(o.args["seeds"])
    if isinstance(o.args.get("lr_grid"), str):
        o.args["lr_grid"] = _parse_floats(o.args["lr_grid"])


def _manifest_precision(path: Path) -> str | None:
    """The precision a cell's existing run manifest records, or None."""
    if not path.exists():
        return None
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key == "precision":
            return value
    return None


def _report_run(result, out_path, cfg: TrainConfig, backbone: str) -> None:
    manifest_path = Path(out_path).parent / (
        f"{Path(out_path).stem}_{result.mode}_{result.dataset}_{result.k_or_fraction}.manifest"
    )
    # the results key has no precision: rows of the other precision would be
    # dropped as duplicates, and the manifest would no longer describe the file
    recorded = _manifest_precision(manifest_path)
    if recorded is not None and recorded != cfg.precision:
        raise ConfigError(
            f"{manifest_path} records precision {recorded}, this run is {cfg.precision}; "
            f"rerun with --precision {recorded} or write to another --out"
        )
    added = append_results(out_path, result_rows(result))
    write_atomic(manifest_path, build_run_manifest(cfg, backbone, extra={
        "dataset": result.dataset, "k_or_fraction": result.k_or_fraction,
        "chosen_lr": f"{result.chosen_lr:g}",
    }))
    agg = aggregate(result.test_accs())
    print(
        f"{result.mode} {result.dataset} k_or_fraction={result.k_or_fraction} "
        f"lr={result.chosen_lr:g} params={result.trainable_params} "
        f"test={format_mean_std(agg, percent=True)} ({added} new rows)"
    )


def _cmd_synth(o: _Opts) -> int:
    spec = synth_spec_from_dict(_read_kv(o.args["spec"])) if o.args.get("spec") else SynthSpec()
    out = Path(o.args["out"])
    tasks = ("source", "target") if o.args["task"] == "both" else (o.args["task"],)
    for task in tasks:
        man = synth_generate(spec, task, out / task)
        print(f"synth {task}: {len(man.items)} images, {man.num_classes} classes -> {out / task}")
    return 0


def _cmd_pretrain(o: _Opts) -> int:
    manifest = load_manifest(Path(o.args["data"]) / "manifest.csv")
    vit_cfg = preset(o.get("preset", "tiny"))
    result = pretrain_backbone(
        vit_cfg, manifest,
        steps=o.get("steps", 600, int),
        seed=o.get("seed", 0, int),
        out_path=o.args["out"],
        lr=o.get("lr", 1e-3, float),
        batch_size=o.get("batch-size", 32, int),
        precision=o.get("precision", "f64"),
    )
    print(
        f"pretrain: {o.get('steps', 600, int)} steps, source test top-1 "
        f"{result.test_top1 * 100:.2f}%, checkpoint {result.path} "
        f"(hash {checkpoint_hash(result.path)[:12]})"
    )
    return 0


def _cmd_run(o: _Opts, mode: str) -> int:
    dataset_name, jobs = _dataset_name(o), _jobs(o)
    _parse_seeds_grid(o)
    cfg = _train_config(o, mode)
    manifest = load_manifest(Path(o.args["data"]) / "manifest.csv")
    result = run_experiment(
        o.args["backbone"], manifest, cfg,
        k=o.get("shots", None, int), dataset_name=dataset_name, jobs=jobs,
    )
    _report_run(result, o.args["out"], cfg, o.args["backbone"])
    return 0


def _cmd_sweep(o: _Opts) -> int:
    dataset_name, jobs = _dataset_name(o), _jobs(o)
    _parse_seeds_grid(o)
    manifest = load_manifest(Path(o.args["data"]) / "manifest.csv")
    shots = _parse_ints(o.get("shots-list", "1,2,4,8,16,50"))
    for mode in ("probe", "lora"):
        cfg = _train_config(o, mode)
        for k in shots:
            result = run_experiment(o.args["backbone"], manifest, cfg, k=k,
                                    dataset_name=dataset_name, jobs=jobs)
            _report_run(result, o.args["out"], cfg, o.args["backbone"])
    return 0


def _cmd_scale(o: _Opts) -> int:
    dataset_name, jobs = _dataset_name(o), _jobs(o)
    _parse_seeds_grid(o)
    mode = o.get("mode", "lora")
    cfg = _train_config(o, "lora" if mode == "lora" else "probe")
    manifest = load_manifest(Path(o.args["data"]) / "manifest.csv")
    fractions = _parse_floats(o.get("fractions", "0.05,0.25,1.0"))
    for result in run_fraction_scaling(o.args["backbone"], manifest, fractions, cfg,
                                       dataset_name=dataset_name, jobs=jobs):
        _report_run(result, o.args["out"], cfg, o.args["backbone"])
    return 0


def _cmd_verify(o: _Opts) -> int:
    checks = run_verify(
        backbone=o.args.get("backbone"),
        debug_nonzero_b=o.get("debug-nonzero-b", False, _bool),
    )
    for c in checks:
        print(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
        if not c.ok:
            print(json.dumps({"check": c.name, "ok": False, "detail": c.detail}))
    failed = [c.name for c in checks if not c.ok]
    if failed:
        raise VerificationError(f"invariants failed: {', '.join(failed)}")
    return 0


def _cmd_report(o: _Opts) -> int:
    # a missing path is an OSError, exit 3; an existing empty file only warns
    rows = read_results(o.args["infile"])
    if not rows:
        print("warning: no result rows to report", file=sys.stderr)
        out = ""
    elif o.args["shape"] == "table":
        out = render_table(rows, mode=o.args.get("mode"), dataset=o.args.get("dataset"))
    else:
        out = render_series(
            rows, mode=o.args.get("mode"), dataset=o.args.get("dataset"),
            baseline=o.args.get("baseline"),
        )
    if o.args.get("out"):
        write_atomic(o.args["out"], out)
    else:
        sys.stdout.write(out)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "pretrain": _cmd_pretrain,
    "probe": lambda o: _cmd_run(o, "probe"),
    "lora": lambda o: _cmd_run(o, "lora"),
    "sweep": _cmd_sweep,
    "scale": _cmd_scale,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_Opts(args))
    except PeftLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a file the command reads or writes, outside the checks above
        print(f"error: {e}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
