import errno

import numpy as np
import pytest

from peftlab import files
from peftlab.checkpoint import save_checkpoint
from peftlab.cli import main
from peftlab.data import DatasetManifest, ManifestItem, save_manifest
from peftlab.files import write_atomic
from peftlab.train import ResultRow, append_results


class HalfWriter:
    """A file that takes half of each write, then fails as a full disk would."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def manifest(n):
    items = [ManifestItem(f"img_{i}.cyt", i % 2, "train") for i in range(n)]
    return DatasetManifest(name="toy", classes=("a", "b"), items=items, norm_mean=(0.0,), norm_std=(1.0,))


def row(seed):
    return ResultRow("lora", "target", "4", 0.01, seed, 0.5, 672, 900)


def report(path, mode):
    csv = path.parent.parent / "r.csv"  # written by the test before the report runs
    return main(["report", "--in", str(csv), "--shape", "series", "--mode", mode, "--out", str(path)])


# each writer, called with a version number, writes different contents for each version
WRITERS = {
    "bytes": lambda path, n: write_atomic(path, bytes(range(n + 3))),
    "checkpoint": lambda path, n: save_checkpoint(path, {"w": np.full(n + 2, 0.5)}, {"v": n}),
    "manifest": lambda path, n: save_manifest(path, manifest(n + 2)),
    "results": lambda path, n: append_results(path, [row(s) for s in range(n + 1)]),
    "report --out": lambda path, n: report(path, ("lora", "probe")[n]),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_that_fails_midway_leaves_the_old_file(writer, tmp_path, monkeypatch):
    append_results(tmp_path / "r.csv", [row(0), row(1)])
    out = tmp_path / "out" / "file"
    out.parent.mkdir()
    WRITERS[writer](out, 0)
    old = out.read_bytes()
    monkeypatch.setattr(files, "open", HalfWriter, raising=False)
    if writer == "report --out":
        assert WRITERS[writer](out, 1) == 3  # the CLI maps a failed write to a data error
    else:
        with pytest.raises(OSError, match="No space left"):
            WRITERS[writer](out, 1)
    assert out.read_bytes() == old
    assert [p.name for p in out.parent.iterdir()] == ["file"]  # no temporary file left
    monkeypatch.undo()
    WRITERS[writer](out, 1)
    assert out.read_bytes() != old
    assert [p.name for p in out.parent.iterdir()] == ["file"]


def test_write_atomic_encodes_text_as_utf8(tmp_path):
    path = tmp_path / "t.txt"
    write_atomic(path, "λ=1\n")
    assert path.read_bytes() == "λ=1\n".encode("utf-8")


def test_a_failed_write_names_the_target_not_the_temporary_file(tmp_path):
    target = tmp_path / "missing" / "x.txt"
    with pytest.raises(OSError, match=f"cannot write {target}: No such file") as info:
        write_atomic(target, "x")
    assert ".tmp" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_report_into_a_missing_directory_exits_3(tmp_path, capsys):
    append_results(tmp_path / "r.csv", [row(0)])
    dest = tmp_path / "missing" / "x.txt"
    assert main(["report", "--in", str(tmp_path / "r.csv"), "--out", str(dest)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot write {dest}: No such file or directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


def test_a_write_under_a_regular_file_exits_3(fast_dirs, fast_ckpt, tmp_path, capsys):
    append_results(tmp_path / "r.csv", [row(0)])
    (tmp_path / "afile").write_text("")
    assert main(["report", "--in", str(tmp_path / "r.csv"), "--out",
                 str(tmp_path / "afile" / "x.txt")]) == 3
    # append_results creates the results directory, which fails here
    assert main(["probe", "--backbone", str(fast_ckpt), "--data", str(fast_dirs / "target"),
                 "--shots", "1", "--seeds", "0", "--lr-grid", "1e-2", "--steps", "2",
                 "--out", str(tmp_path / "afile" / "sub" / "r.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert "afile" in err[0] and "afile" in err[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "r.csv"]
