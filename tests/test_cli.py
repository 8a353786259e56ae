import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peftlab
from peftlab import cli, train
from peftlab.cli import main
from peftlab.data import load_manifest, synth_spec_keys
from peftlab.errors import NumericError
from peftlab.train import read_results


def run_cli(*argv):
    return main([str(a) for a in argv])


# -- synth ---------------------------------------------------------------------


def test_synth_generates_both_tasks(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("num_classes=3\nsamples_per_class=8\nseed=5\n")
    out = tmp_path / "data"
    assert run_cli("synth", "--spec", spec, "--out", out) == 0
    for task in ("source", "target"):
        man = load_manifest(out / task / "manifest.csv")
        assert man.num_classes == 3
        assert len(man.items) == 24


def test_synth_rerun_byte_identical(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("num_classes=2\nsamples_per_class=6\nseed=9\n")
    out = tmp_path / "data"
    run_cli("synth", "--spec", spec, "--out", out, "--task", "source")
    manifest_bytes = (out / "source" / "manifest.csv").read_bytes()
    img = sorted((out / "source" / "images").iterdir())[0]
    img_bytes = img.read_bytes()
    run_cli("synth", "--spec", spec, "--out", out, "--task", "source")
    assert (out / "source" / "manifest.csv").read_bytes() == manifest_bytes
    assert img.read_bytes() == img_bytes


@pytest.mark.parametrize("line", ["num_clases=3", "num_classes=abc", "split_fractions=1,0",
                                  "source.distractor_count=1.5"])
def test_synth_bad_spec_exits_2_and_writes_nothing(tmp_path, capsys, line):
    spec = tmp_path / "spec.txt"
    spec.write_text(f"samples_per_class=4\n{line}\n")
    out = tmp_path / "data"
    assert run_cli("synth", "--spec", spec, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and line.partition("=")[0] in err[0]
    assert not out.exists()


def test_synth_help_lists_every_spec_key(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert all(key in text for key in synth_spec_keys())


@pytest.mark.parametrize("flag", ["--spec", "--config"])
def test_synth_non_utf8_spec_or_config_exits_3(tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfenum_classes=3\n")
    assert run_cli("synth", flag, bad, "--out", tmp_path / "data") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not UTF-8" in err[0]
    assert not (tmp_path / "data").exists()


# -- pretrain -------------------------------------------------------------------


def test_pretrain_cli(fast_dirs, tmp_path, capsys):
    ckpt = tmp_path / "bb.peft"
    code = run_cli("pretrain", "--data", fast_dirs / "source", "--steps", 5, "--seed", 3,
                   "--out", ckpt)
    assert code == 0
    assert ckpt.exists()
    out = capsys.readouterr().out
    assert "source test top-1" in out and "hash" in out


# -- probe / lora ------------------------------------------------------------------


def test_probe_and_lora_cli_idempotent(fast_dirs, fast_ckpt, tmp_path, capsys):
    out = tmp_path / "results.csv"
    args = ["--backbone", fast_ckpt, "--data", fast_dirs / "target", "--shots", 1,
            "--seeds", "0", "--lr-grid", "1e-2", "--steps", 10, "--out", out]
    assert run_cli("probe", *args) == 0
    assert run_cli("lora", *args, "--rank", 2, "--targets", "q,v") == 0
    rows = read_results(out)
    assert {r.mode for r in rows} == {"linear_probe", "lora"}
    first = out.read_bytes()
    # rerun: dedup keeps the file byte-identical
    assert run_cli("probe", *args) == 0
    assert out.read_bytes() == first
    # run manifests are written next to the results file
    manifests = list(tmp_path.glob("*.manifest"))
    assert len(manifests) == 2
    text = manifests[0].read_text()
    assert "backbone_hash=" in text


def test_a_cell_keeps_the_precision_it_was_first_run_in(fast_dirs, fast_ckpt, tmp_path, capsys):
    # the results key has no precision, so f32 rows would be dropped as
    # duplicates of the f64 ones while the manifest was rewritten as f32
    out = tmp_path / "results.csv"
    args = ["lora", "--backbone", fast_ckpt, "--data", fast_dirs / "target", "--shots", 1,
            "--seeds", "0", "--lr-grid", "1e-2", "--steps", 4, "--out", out]
    assert run_cli(*args, "--precision", "f64") == 0
    manifest = next(tmp_path.glob("*.manifest"))
    assert "precision=f64" in manifest.read_text()
    csv_bytes, manifest_bytes = out.read_bytes(), manifest.read_bytes()
    capsys.readouterr()
    assert run_cli(*args, "--precision", "f32") == 2
    err = capsys.readouterr().err
    assert "precision f64" in err and "this run is f32" in err
    assert out.read_bytes() == csv_bytes and manifest.read_bytes() == manifest_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, manifest.name])
    assert run_cli(*args) == 2  # the default is f32 too
    assert run_cli(*args, "--precision", "f64") == 0
    assert out.read_bytes() == csv_bytes and manifest.read_bytes() == manifest_bytes


def test_config_file_with_flag_precedence(fast_dirs, fast_ckpt, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("steps=10\nseeds=0\nlr-grid=1e-2\nrank=2\n")
    out = tmp_path / "results.csv"
    assert run_cli("lora", "--config", cfgfile, "--backbone", fast_ckpt,
                   "--data", fast_dirs / "target", "--shots", 1, "--targets", "q",
                   "--out", out, "--steps", 6) == 0
    rows = read_results(out)
    assert len(rows) == 1  # one seed from file
    # the flag steps=6 won over the file's 10: quick sanity via wall time is
    # flaky, so assert through the run manifest instead
    manifest = next(tmp_path.glob("*.manifest")).read_text()
    assert "max_steps=6" in manifest


def test_config_file_store_true_flags_are_not_overridden(fast_dirs, fast_ckpt, tmp_path):
    # an absent --no-cache flag must leave the file's no-cache=true in force
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("no-cache=true\n")
    out = tmp_path / "results.csv"
    assert run_cli("probe", "--config", cfgfile, "--backbone", fast_ckpt,
                   "--data", fast_dirs / "target", "--shots", 1, "--seeds", "0",
                   "--lr-grid", "1e-2", "--steps", 2, "--out", out) == 0
    assert "cache_features=False" in next(tmp_path.glob("*.manifest")).read_text()


def test_config_file_shots_and_dataset_name(fast_dirs, fast_ckpt, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    # 2, not 1: the full train split (what an ignored shots= runs) also reads "1"
    cfgfile.write_text("shots=2\ndataset-name=from-file\nseeds=0\nlr-grid=1e-2\nsteps=2\n")
    out = tmp_path / "results.csv"
    assert run_cli("probe", "--config", cfgfile, "--backbone", fast_ckpt,
                   "--data", fast_dirs / "target", "--out", out) == 0
    assert [(r.dataset, r.k_or_fraction) for r in read_results(out)] == [("from-file", "2")]


def test_config_file_shots_list_and_fractions(fast_dirs, fast_ckpt, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("shots-list=2\nfractions=0.5\nseeds=0\nlr-grid=1e-2\nsteps=2\n"
                       "epochs=1\ndataset-name=cfg\n")
    common = ["--config", cfgfile, "--backbone", fast_ckpt, "--data", fast_dirs / "target"]
    assert run_cli("sweep", *common, "--out", tmp_path / "sweep.csv") == 0
    assert {(r.dataset, r.k_or_fraction) for r in read_results(tmp_path / "sweep.csv")} == {("cfg", "2")}
    assert run_cli("scale", *common, "--out", tmp_path / "scale.csv") == 0
    assert [r.k_or_fraction for r in read_results(tmp_path / "scale.csv")] == ["0.5"]


def test_verify_debug_flag_from_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "verify.cfg"
    cfgfile.write_text("debug-nonzero-b=true\n")
    assert run_cli("verify", "--config", cfgfile) == 5


# -- scale --------------------------------------------------------------------------


def test_scale_cli(fast_dirs, fast_ckpt, tmp_path):
    out = tmp_path / "scale.csv"
    assert run_cli("scale", "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--fractions", "0.5,1.0", "--seeds", "0", "--lr-grid", "1e-2",
                   "--epochs", 1, "--rank", 2, "--out", out) == 0
    rows = read_results(out)
    assert [r.k_or_fraction for r in rows] == ["0.5", "1"]


# -- --jobs ---------------------------------------------------------------------------


def jobs_args(fast_dirs, fast_ckpt, out):
    return ["--backbone", fast_ckpt, "--data", fast_dirs / "target", "--shots", 2,
            "--seeds", "0,1", "--lr-grid", "1e-3,1e-2", "--steps", 10, "--out", out]


@pytest.mark.parametrize("jobs", [0, 999])
@pytest.mark.parametrize("command", ["probe", "lora", "sweep", "scale"])
def test_jobs_out_of_range_exits_2_and_writes_nothing(fast_dirs, fast_ckpt, tmp_path, capsys,
                                                      command, jobs):
    out = tmp_path / "runs" / "r.csv"
    code = run_cli(command, "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--jobs", jobs, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def test_jobs_from_config_file_is_checked(fast_dirs, fast_ckpt, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("jobs=0\n")
    out = tmp_path / "r.csv"
    assert run_cli("probe", "--config", conf, *jobs_args(fast_dirs, fast_ckpt, out)) == 2
    assert "--jobs" in capsys.readouterr().err and not out.exists()


def test_jobs_do_not_change_the_results_or_manifests(fast_dirs, fast_ckpt, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "available_cpus", lambda: 2)  # the worker path on any runner
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}" / "r.csv"
        assert run_cli("lora", *jobs_args(fast_dirs, fast_ckpt, out), "--jobs", jobs) == 0
        assert multiprocessing.active_children() == []
        outs[jobs] = out
    rows = [[r.to_csv().rsplit(",", 1)[0] for r in read_results(outs[j])] for j in (1, 2)]
    assert len(rows[0]) == 2 and rows[0] == rows[1]
    manifests = [sorted(outs[j].parent.glob("*.manifest")) for j in (1, 2)]
    assert [m.name for m in manifests[0]] == [m.name for m in manifests[1]]
    assert [m.read_bytes() for m in manifests[0]] == [m.read_bytes() for m in manifests[1]]
    assert b"jobs" not in manifests[0][0].read_bytes()


def test_a_workers_numeric_error_exits_4(fast_dirs, fast_ckpt, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "available_cpus", lambda: 2)
    real = train._single_run

    def single_run(*args):
        lr, seed = args[-3:-1]
        if (lr, seed) == (1e-3, 1):  # the second run in serial order: the worker's
            raise NumericError(f"diverged in process {os.getpid()}")
        return real(*args)

    monkeypatch.setattr(train, "_single_run", single_run)
    out = tmp_path / "r.csv"
    assert run_cli("lora", *jobs_args(fast_dirs, fast_ckpt, out), "--jobs", 2) == 4
    err = capsys.readouterr().err
    assert "diverged in process" in err and f"process {os.getpid()}" not in err
    assert multiprocessing.active_children() == []
    assert not out.exists()


# -- report --------------------------------------------------------------------------


def _write_results(path):
    path.write_text(
        "mode,dataset,k_or_fraction,lr,seed,test_top1,params_trainable,wall_ms\n"
        "linear_probe,target,4,0.01,0,0.40,160,100\n"
        "linear_probe,target,4,0.01,1,0.44,160,100\n"
        "lora,target,4,0.01,0,0.70,672,900\n"
        "lora,target,4,0.01,1,0.72,672,900\n"
        "lora,target,16,0.01,0,0.80,672,900\n"
        "lora,target,16,0.01,1,0.84,672,900\n"
    )


def test_report_table(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    _write_results(csv)
    assert run_cli("report", "--in", csv, "--shape", "table") == 0
    out = capsys.readouterr().out
    assert "dataset" in out and "target" in out
    assert "42.00±2.83" in out       # probe cell, percent, 2 decimals
    assert "lora[4]" in out and "lora[16]" in out


def test_report_series_sorted_with_baseline(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    _write_results(csv)
    assert run_cli("report", "--in", csv, "--shape", "series", "--mode", "lora",
                   "--baseline", "66.5") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,mean,std"
    xs = [ln.split(",")[0] for ln in lines[1:]]
    assert xs == ["4", "16", "baseline"]
    assert lines[-1] == "baseline,66.50,0.00"


def test_report_empty_warns_exit_zero(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("mode,dataset,k_or_fraction,lr,seed,test_top1,params_trainable,wall_ms\n")
    assert run_cli("report", "--in", csv, "--shape", "table") == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing.csv", "afile/r.csv"])
def test_report_on_a_path_that_is_no_file_exits_3(tmp_path, capsys, where):
    (tmp_path / "afile").write_text("")
    path = tmp_path / where
    assert run_cli("report", "--in", path, "--shape", "table") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(path) in err[0]


def test_report_non_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_bytes(b"\xff\xfemode,dataset\n")
    assert run_cli("report", "--in", path, "--shape", "table") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not UTF-8" in err[0]


def test_report_to_file(tmp_path):
    csv = tmp_path / "r.csv"
    _write_results(csv)
    dest = tmp_path / "series.csv"
    assert run_cli("report", "--in", csv, "--shape", "series", "--mode", "lora",
                   "--out", dest) == 0
    assert dest.read_text().startswith("x,mean,std\n")


# -- verify ----------------------------------------------------------------------------


@pytest.mark.slow
def test_verify_green(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5 and "FAIL" not in out


@pytest.mark.slow
def test_verify_debug_nonzero_b_fails(capsys):
    assert run_cli("verify", "--debug-nonzero-b") == 5
    out = capsys.readouterr().out
    assert '"check": "zero_init_identity"' in out


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    from peftlab import verify

    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "check_count_law", boom)
    assert run_cli("verify") == 5
    captured = capsys.readouterr()
    assert "FAIL count_law: raised RuntimeError: boom (test_cli.py:" in captured.out
    assert '"check": "count_law"' in captured.out
    # every other check still ran and printed its record, including the one after
    assert captured.out.count("PASS") == 4 and "PASS sampler_determinism" in captured.out
    assert "count_law" in captured.err


def test_verify_corrupt_checkpoint(fast_ckpt, tmp_path, capsys):
    bad = tmp_path / "bad.peft"
    raw = bytearray(fast_ckpt.read_bytes())
    raw[100] ^= 0x01
    bad.write_bytes(bytes(raw))
    # only run the cheap checkpoint check by corrupting; full suite still runs first
    from peftlab.verify import check_checkpoint

    res = check_checkpoint(bad)
    assert not res.ok and "checksum" in res.detail


# -- exit codes --------------------------------------------------------------------------


def test_exit_code_config_error(fast_dirs, fast_ckpt, tmp_path, capsys):
    assert run_cli("lora", "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--shots", 1, "--targets", "q,z", "--out", tmp_path / "r.csv") == 2


def test_exit_code_data_error(fast_ckpt, tmp_path, capsys):
    missing = tmp_path / "nope"
    code = run_cli("probe", "--backbone", fast_ckpt, "--data", missing,
                   "--shots", 1, "--out", tmp_path / "r.csv")
    assert code == 3


def test_exit_code_zero_shots(fast_dirs, fast_ckpt, tmp_path, capsys):
    code = run_cli("probe", "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--shots", 0, "--seeds", "0", "--lr-grid", "1e-2",
                   "--out", tmp_path / "r.csv")
    assert code == 2
    assert "shots" in capsys.readouterr().err


def test_exit_code_zero_batch_size(fast_dirs, fast_ckpt, tmp_path, capsys):
    assert run_cli("pretrain", "--data", fast_dirs / "source", "--steps", 2,
                   "--batch-size", 0, "--out", tmp_path / "bb.peft") == 2
    assert run_cli("probe", "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--shots", 1, "--batch-size", 0, "--out", tmp_path / "r.csv") == 2
    assert "batch_size" in capsys.readouterr().err


def test_exit_code_insufficient_shots(fast_dirs, fast_ckpt, tmp_path, capsys):
    code = run_cli("probe", "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--shots", 500, "--seeds", "0", "--lr-grid", "1e-2",
                   "--out", tmp_path / "r.csv")
    assert code == 3

@pytest.mark.parametrize("name", ["a,b", "../../x", "a/b", ""])
def test_exit_code_bad_dataset_name_writes_nothing(fast_dirs, fast_ckpt, tmp_path, capsys, name):
    # a comma used to write a 9-field row that broke every later append;
    # a slash appended the row and then crashed writing the run manifest
    out = tmp_path / "runs" / "r.csv"
    code = run_cli("probe", "--backbone", fast_ckpt, "--data", fast_dirs / "target",
                   "--shots", 1, "--seeds", "0", "--lr-grid", "1e-2", "--steps", 2,
                   "--dataset-name", name, "--out", out)
    assert code == 2
    assert "dataset name" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists() and list(tmp_path.iterdir()) == []


def test_bad_dataset_name_rejected_by_sweep_and_scale(fast_dirs, fast_ckpt, tmp_path):
    common = ["--backbone", fast_ckpt, "--data", fast_dirs / "target", "--dataset-name", "a,b"]
    assert run_cli("sweep", *common, "--out", tmp_path / "sweep.csv") == 2
    assert run_cli("scale", *common, "--out", tmp_path / "scale.csv") == 2
    assert list(tmp_path.iterdir()) == []


def test_python_m_peftlab_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(peftlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "peftlab", "report", "--in", tmp_path / "no.csv"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert "no.csv" in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "peftlab", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: peftlab")
