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

All three files are read back through :func:`read_checkpoint`, the
one place that decides whether a file on disk may be trusted: an
unreadable file, JSON that is not an object with a ``"fingerprint"``
object, a different schema version, a fingerprint of a different run,
or entries that do not parse each become a
:class:`~repro.exceptions.ParameterError` naming the file and the
problem, never a traceback.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, TypeVar, Union

from .exceptions import ParameterError

__all__ = ["atomic_write_json", "read_checkpoint"]

T = TypeVar("T")


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


def read_checkpoint(
    path: Path,
    fingerprint: dict,
    parse: Callable[[dict], T],
    label: str,
    mismatch: str,
    remedy: str,
) -> T:
    """Load the ``label`` file ``path`` written for ``fingerprint``.

    The stored fingerprint must carry ``fingerprint["version"]`` and
    then equal ``fingerprint``; ``parse`` turns the trusted payload into
    the caller's entries.  Every way the file can fail to be what this
    run wrote -- unreadable, not a fingerprinted object, another schema
    version, another run (``"belongs to " + mismatch``), or entries
    whose parsing raises ``KeyError``/``TypeError``/``ValueError`` --
    raises :class:`~repro.exceptions.ParameterError` ending in
    ``remedy``.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"unreadable {label} {path}: {exc}; {remedy}") from exc
    stored = payload.get("fingerprint") if isinstance(payload, dict) else None
    if not isinstance(stored, dict):
        raise ParameterError(
            f"malformed {label} {path}: expected a JSON object with a "
            f'"fingerprint" object; {remedy}'
        )
    version = stored.get("version")
    if version != fingerprint["version"]:
        raise ParameterError(
            f"{label} {path} uses schema version {version!r}, but this "
            f"library writes version {fingerprint['version']}; {remedy}"
        )
    if stored != fingerprint:
        raise ParameterError(f"{label} {path} belongs to {mismatch}; {remedy}")
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed {label} {path}: {exc!r}; {remedy}") from exc
