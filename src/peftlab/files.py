"""Whole-file writes that a failure cannot leave half done."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .errors import WriteError


def write_atomic(path, data: bytes | str) -> None:
    """Replace `path` with `data` (str is written as UTF-8) in one step.

    The bytes go to a temporary file in the target's directory, which is
    then renamed over the target, so a reader sees the old file or the
    new one and never a part. If the write fails, the temporary file is
    removed and the old file is left as it was. This guards against a
    failing or killed process, not against power loss: nothing is synced.
    An OSError is raised again as a `WriteError` that names `path`, not
    the temporary file.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            tmp.unlink()  # absent when it could not be created
        if isinstance(e, OSError):
            raise WriteError(f"cannot write {path}: {e.strerror or e}") from e
        raise
