"""Crash-safe files shared by the cache, checkpoint and exporters.

:func:`atomic_write` is the one write-fsync-rename routine.  Its temp
file sits next to the target as ``{name}.tmp-{pid}-{tid}-{n}``: the
thread id and a process-wide counter keep concurrent writers in one
process apart, and the pid lets :func:`sweep_temp_files` tell a dead
writer's leftover from a live one's (see :func:`pid_alive`).

The result cache and the checkpoint store keep their files in one
format.  :func:`write_entry` pickles a payload inside a header naming
the schema, the format version and the content key, next to the
payload's SHA-256; :func:`read_entry` serves a payload only when all
four match, so a flipped bit is caught when the entry is read.  Each
directory's JSON manifest goes through :func:`read_manifest` and
:func:`write_manifest`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import threading
from pathlib import Path

__all__ = ["CorruptEntry", "NewerEntry", "atomic_write", "fsync_directory",
           "pid_alive", "read_entry", "read_manifest", "sweep_temp_files",
           "write_entry", "write_manifest"]

_WRITE_COUNTER = itertools.count()


class CorruptEntry(Exception):
    """An entry that fails to parse, names another schema or fails its
    checksum; :func:`read_entry` has unlinked it."""


class NewerEntry(Exception):
    """An entry in a format newer than the reader understands."""


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


def sweep_temp_files(directory: str | os.PathLike) -> None:
    """Remove the ``.tmp-*`` leftovers of crashed writers (best effort).

    A directory may be shared by live writers in several processes and
    threads, any of which may be mid-write while another opens it, so a
    temp is swept only when the pid in its name is no longer alive (our
    own pid included: if the name says *us*, another of our threads owns
    it).
    """
    for leftover in Path(directory).glob("*.tmp-*"):
        pid_word = leftover.name.rsplit(".tmp-", 1)[1].split("-", 1)[0]
        try:
            pid = int(pid_word)
        except ValueError:
            pid = None
        if pid is not None and (pid == os.getpid() or pid_alive(pid)):
            continue  # the writer is still running
        try:
            leftover.unlink()
        except OSError:  # pragma: no cover - concurrent cleanup
            pass


def write_entry(path: str | os.PathLike, schema: str, version: int, key,
                payload) -> int:
    """Write ``payload`` under its header atomically; return its bytes."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    data = pickle.dumps({"schema": schema, "version": version, "key": key,
                         "sha256": hashlib.sha256(body).hexdigest(),
                         "payload": body},
                        protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write(path, data)
    return len(data)


def read_entry(path: str | os.PathLike, schema: str, version: int, key):
    """The payload of the entry at ``path``, or ``None`` for a miss.

    A miss is a missing file, an entry of an older format or one under
    another ``key``; the file is left alone.

    Raises
    ------
    NewerEntry
        For an entry of a format newer than ``version``, left alone.
    CorruptEntry
        After unlinking a file that fails to parse, names another
        schema or whose payload fails its checksum.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        header = pickle.loads(raw)
        if header["schema"] != schema:
            raise ValueError(f"schema {header['schema']!r}, not {schema!r}")
        found = int(header["version"])
        if found > version:
            raise NewerEntry(
                f"{path.name} has format v{found}, newer than this build "
                f"understands (v{version})")
        if found < version or header["key"] != key:
            return None
        body = header["payload"]
        if hashlib.sha256(body).hexdigest() != header["sha256"]:
            raise ValueError("the payload fails its SHA-256 checksum")
        return pickle.loads(body)
    except NewerEntry:
        raise
    except Exception as exc:
        path.unlink(missing_ok=True)
        raise CorruptEntry(f"{path.name}: {exc}") from exc


def read_manifest(path: str | os.PathLike, schema: str, version: int,
                  error: type[Exception]) -> dict | None:
    """The JSON manifest at ``path``, or ``None`` when there is none.

    Raises ``error`` for a file that is not JSON, names another schema
    or records a format newer than ``version``.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return None
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise error(f"manifest {str(path)!r} is not valid JSON: "
                    f"{exc}") from exc
    if (not isinstance(manifest, dict)
            or manifest.get("schema") != schema
            or not isinstance(manifest.get("version"), int)):
        raise error(f"{str(path)!r} is not a manifest of schema "
                    f"{schema!r}")
    if manifest["version"] > version:
        raise error(f"{str(path)!r} records format v{manifest['version']}, "
                    f"newer than this build understands (v{version})")
    return manifest


def write_manifest(path: str | os.PathLike, manifest: dict) -> None:
    """Write one JSON manifest atomically."""
    atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True)
                        + "\n").encode())
