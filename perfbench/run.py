#!/usr/bin/env python3
"""Run one benchmark workload of peftlab and print its metrics.

    python3 perfbench/run.py --workload lora-k4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (any directory works; paths are taken from
this file). `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every run's environment, metrics and result fingerprint are also written
to .perfbench/runs/ at the repository root. Without the peftlab sources
next to this directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("probe-k16", "lora-k4", "pretrain")


def metric_units(trace: int) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="timed window of an untraced run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "peftlab" / "__init__.py").is_file():
        print(f"no peftlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(HERE))
    import envinfo

    envinfo.pin_blas_threads()  # before numpy is first imported
    sys.path.insert(1, str(ROOT / "src"))
    import workloads

    w = workloads.WORKLOADS[args.workload]
    env = envinfo.collect(ROOT)
    workdir = ROOT / ".perfbench" / "work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        res = workloads.measure(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    out = res.outcomes[0]
    attempted, failed = res.attempted, res.failed
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"fingerprint test_top1={out.test_top1!r} final_loss={out.final_loss!r} digest={out.digest}")
    print(f"operations attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f}")
    for reason in res.failures:
        print(f"FAILED: {reason}")
    for check in res.checks:
        print(f"CHECK FAILED: {check}")
    if args.trace:
        print(f"{'span':32s} {'self_s':>10s} {'calls':>8s} {'incl_s':>10s}")
        for name, self_s, calls, incl in res.table:
            print(f"{name:32s} {self_s:10.4f} {calls:8d} {incl:10.4f}")
    print(f"op walls {[round(x, 4) for x in res.op_walls]} cpus {[round(x, 4) for x in res.op_cpus]} "
          f"setups {[round(x, 4) for x in res.setup_walls]}")
    for name, unit in units.items():
        print(f"  {name:36s} {res.metrics[name]:.6g} {unit}")

    result = {
        "correct": res.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "result": result, "failures": res.failures, "checks": res.checks,
        "fingerprint": {"test_top1": out.test_top1, "final_loss": out.final_loss,
                        "digest": out.digest},
        "op_walls": res.op_walls, "op_cpus": res.op_cpus, "setup_walls": res.setup_walls,
        "self_time_table": res.table,
    }
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
