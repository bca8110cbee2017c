"""Crash-safe file writes shared by the cache, checkpoint and exporters.

:func:`atomic_write` is the one write-fsync-rename routine.  Its temp
file sits next to the target as ``{name}.tmp-{pid}-{tid}-{n}``: the
thread id and a process-wide counter keep concurrent writers in one
process apart, and the pid lets a sweep of a shared directory tell a
dead writer's leftover from a live one's (see :func:`pid_alive`).  The
sweeps themselves stay with their directories, because the rules
differ: a checkpoint directory belongs to one run, a cache directory
to every process using it.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path

__all__ = ["atomic_write", "fsync_directory", "pid_alive"]

_WRITE_COUNTER = itertools.count()


def fsync_directory(directory: str | os.PathLike) -> None:
    """Flush ``directory``'s entries, so a rename in it survives a crash.

    A platform that cannot open a directory for reading skips the flush.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str | os.PathLike, data: bytes) -> Path:
    """Replace ``path`` with ``data`` so it is either complete or absent.

    The bytes go to a temp file in the same directory (a rename must not
    cross filesystems), are fsynced, renamed over ``path``, and the
    directory is fsynced, so the file survives a machine crash and not
    just a process one.  On failure the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-"
                         f"{threading.get_ident()}-{next(_WRITE_COUNTER)}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    return path


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (signal-0 probe).

    A process this user may not signal (``EPERM``) counts as alive.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True
