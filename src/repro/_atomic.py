"""Atomic file replacement, private to the package.

The trace writer (:func:`repro.telemetry.tracing`) and the report store
(:class:`repro.explore.store.ReportStore`) both publish a whole file at
once with :func:`write_atomic`.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterable


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated ``chunks``.

    A reader, or a crash mid-write, sees the old complete file or the new
    one, never a torn mix: the text goes to a temp file beside ``path``,
    which is fsynced and then ``os.replace``-d over it; the directory
    entry is fsynced best-effort afterwards.  The temp file is removed if
    any step fails.  A new file gets the mode a plain ``open(path, "w")``
    gives it (``0o666`` less the umask); an existing file keeps its mode.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
