"""Atomic artifact writes: temp file -> fsync -> ``os.replace``.

Every JSON/CSV/text artifact the toolchain persists (trace exports,
metrics snapshots, run reports, run history, store entries) goes
through these helpers so that a kill -- SIGKILL, OOM, power loss -- at
any instant leaves either the complete old file or the complete new
file, never a torn hybrid:

1. the payload is written to a same-directory temp file
   (``.<name>.<pid>.tmp`` -- same filesystem, so the final rename
   cannot degrade to a copy);
2. the temp file is flushed and ``os.fsync``-ed, so the bytes are
   durable before they become visible;
3. ``os.replace`` atomically installs it over the destination;
4. best-effort, the containing directory is fsynced so the rename
   itself survives a crash (skipped silently where directories cannot
   be opened, e.g. some network filesystems and Windows).

A crash between (1) and (3) leaves a stale ``.tmp`` beside an intact
destination; writers that raise clean their temp file up, killed
writers leave it for the next atomic write of the same name (same pid)
or a manual sweep -- it is never loaded, because readers only ever see
the destination path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union


def _temp_path(path: Path) -> Path:
    """Same-directory temp name (pid-tagged: concurrent writers never
    collide, and a leftover from a killed run is overwritten by the
    same pid's next attempt rather than accumulating)."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of ``path``'s directory (rename durability)."""
    try:
        fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        # A directory that cannot be opened skips its fsync; that
        # costs durability, never integrity.
        return
    try:
        os.fsync(fd)
    except OSError:
        # Filesystems that reject fsync (tmpfs, some network mounts)
        # lose durability, never integrity.
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with ``data``; returns the path.

    Raises ``OSError`` on failure, with the destination untouched and
    the temp file removed.
    """
    path = Path(path)
    temp = _temp_path(path)
    try:
        with temp.open("wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp, path)
    except OSError:
        temp.unlink(missing_ok=True)
        raise
    if fsync:
        _fsync_directory(path)
    return path


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``text``; returns the path."""
    return atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(
    path: Union[str, Path],
    obj,
    indent=None,
    sort_keys: bool = False,
    fsync: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``obj`` serialised as JSON."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text + "\n", fsync=fsync)
