"""Crash-safe JSON persistence shared by every on-disk artifact.

Three subsystems write JSON state that must never be observed
half-written: simulation checkpoints
(:func:`repro.simulation.runner.run_replicated`), the sweep result
cache (:mod:`repro.analysis.sweep`), and fleet checkpoints
(:mod:`repro.simulation.fleet`).  All of them go through
:func:`atomic_write_json`: serialize to a temporary file in the target
directory, fsync, then :func:`os.replace` over the destination --
readers only ever see the old payload or the complete new one.

The error path is as important as the happy path.  Serialization can
fail *after* the temporary file exists (a payload that is not
JSON-representable, a full disk, an interrupt), and historically that
orphaned ``*.tmp`` files next to every checkpoint and cache entry.
This helper guarantees that on any failure the temporary file is
unlinked and the file descriptor from :func:`tempfile.mkstemp` is
closed, whether the failure happens in ``fdopen``, ``json.dump``,
``fsync``, or the final rename.

Both checkpoint formats are read back through
:func:`read_checkpoint`, which turns an unreadable file, or JSON that
is not an object with a ``"fingerprint"`` object, into a
:class:`~repro.exceptions.ParameterError` naming the problem.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Tuple, Union

from .exceptions import ParameterError

__all__ = ["atomic_write_json", "read_checkpoint"]


def atomic_write_json(path: Union[str, Path], payload: object) -> Path:
    """Atomically serialize ``payload`` as JSON to ``path``.

    Write-to-temp + fsync + rename in ``path``'s own directory (rename
    is only atomic within a filesystem).  On *any* failure the
    temporary file is removed and the original file -- if one existed
    -- is left untouched; the exception propagates unchanged.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    fd_owned = True
    try:
        with os.fdopen(fd, "w") as handle:
            fd_owned = False  # fdopen succeeded; the handle owns fd now
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if fd_owned:
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_checkpoint(path: Path, label: str) -> Tuple[dict, dict]:
    """``(payload, stored fingerprint)`` of the ``label`` file ``path``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"unreadable {label} {path}: {exc}") from exc
    stored = payload.get("fingerprint") if isinstance(payload, dict) else None
    if not isinstance(stored, dict):
        raise ParameterError(
            f"malformed {label} {path}: expected a JSON object with a "
            '"fingerprint" object'
        )
    return payload, stored
