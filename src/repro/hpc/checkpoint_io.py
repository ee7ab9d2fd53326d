"""Checkpoint storage: one sealed file per window plus a run manifest.

The paper checkpoints every posterior trajectory between calibration windows.
At HPC scale that is thousands of snapshots per window.  Resampling
duplicates them: every copy of one ancestor restarts from the same state.
:class:`CheckpointStore` therefore writes a window as **one** JSON file
holding each distinct checkpoint payload once and a per-particle row index
into those payloads, next to the window's metadata.  A window costs one
fsync whatever the posterior size.

Durability contract
-------------------
Every file is published with write-to-temp + ``fsync`` + ``os.replace``
(:func:`write_json_atomic`), so a reader never sees a torn file.  Publishing
``window.json`` *is* the window's seal: the checkpoints, the row index and
the metadata land in the same rename, so a window is either sealed whole
or absent.  The crash points are:

* before the rename — the window directory holds at most a ``*.tmp``
  file; the window is unsealed, restart discovery skips it and
  :meth:`~CheckpointStore.prune` never touches it;
* after the rename, before the manifest update — the window is sealed and
  restart discovery finds it; ``manifest.json`` (informational) lags one
  window until the next seal or :meth:`~CheckpointStore.write_manifest`.

A window file that does not parse or whose row index points outside its
payload list (a damaged copy, say) counts as unsealed.
``run_meta.json`` pins the run's config/seed fingerprint so a store can
refuse to mix checkpoints from differently-configured runs.  Stores in the
earlier per-particle layout (``particle_*.ckpt.json`` files sealed by
``COMPLETE.json``) are refused with a :class:`CheckpointError`.

Layout::

    <root>/
      manifest.json
      run_meta.json
      window_000/
        window.json   # {"format", "meta", "checkpoints": [distinct
                      #  payloads], "rows": [payload index per particle]}
      window_001/
        ...
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..seir.checkpoint import Checkpoint, CheckpointError, distinct_checkpoints

__all__ = ["CheckpointStore", "StoreManifest", "write_json_atomic"]

_MANIFEST_NAME = "manifest.json"
_RUN_META_NAME = "run_meta.json"
_WINDOW_NAME = "window.json"
_WINDOW_FORMAT = "repro.checkpoint-window/1"
#: The seal marker of the earlier per-particle layout.
_LEGACY_MARKER = "COMPLETE.json"


def write_json_atomic(path: str | os.PathLike, payload: dict, *,
                      sort_keys: bool = False) -> None:
    """Durably publish a JSON file: write-temp + ``fsync`` + ``os.replace``.

    The one atomic-publication primitive shared by the checkpoint store and
    the forecast artifact store (:mod:`repro.service.artifacts`): the temp
    file lands in the destination directory (same filesystem, so the rename
    is atomic), is fsync'd before the rename, and is unlinked on any
    failure — a reader can observe the old file or the new file, never a
    torn one.  ``sort_keys`` makes the byte stream a pure function of the
    payload (the artifact store's bit-identity contract needs that; the
    checkpoint store doesn't care).
    """
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dest.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=sort_keys))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class StoreManifest:
    """Summary of what a checkpoint store currently contains."""

    run_id: str
    windows: dict[int, int]
    """Mapping window index -> number of particles stored."""
    complete: dict[int, bool] = field(default_factory=dict)
    """Mapping window index -> whether the window is sealed."""

    def latest_window(self) -> int | None:
        return max(self.windows) if self.windows else None

    def latest_complete_window(self) -> int | None:
        done = [w for w, ok in self.complete.items() if ok]
        return max(done) if done else None

    def to_dict(self) -> dict:
        return {"run_id": self.run_id,
                "windows": {str(k): v for k, v in self.windows.items()},
                "complete": {str(k): v for k, v in self.complete.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "StoreManifest":
        return cls(run_id=str(d.get("run_id", "")),
                   windows={int(k): int(v)
                            for k, v in dict(d.get("windows", {})).items()},
                   complete={int(k): bool(v)
                             for k, v in dict(d.get("complete", {})).items()})


class CheckpointStore:
    """File-backed store of checkpoint windows, one sealed file each."""

    def __init__(self, root: str | os.PathLike, run_id: str = "run") -> None:
        self._root = Path(root)
        self._run_id = str(run_id)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    @property
    def run_id(self) -> str:
        return self._run_id

    # ------------------------------------------------------------------ #
    def _window_dir(self, window_index: int) -> Path:
        if window_index < 0:
            raise ValueError("window_index must be >= 0")
        return self._root / f"window_{window_index:03d}"

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        """Parse a JSON file; ``None`` when missing or unreadable.

        Unreadable metadata is treated like absent metadata (the window is
        simply not trusted) rather than an exception: restart discovery
        must keep working on a store damaged by the very crash it exists
        to survive.
        """
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _sealed(self, window_index: int) -> dict | None:
        """The window's parsed file when it is sealed, else ``None``.

        Sealed means ``window.json`` parses, lists at least one checkpoint
        payload, and maps every particle row to one of them.
        """
        directory = self._window_dir(window_index)
        path = directory / _WINDOW_NAME
        if not path.exists():
            if (directory / _LEGACY_MARKER).exists():
                raise CheckpointError(
                    f"{directory} is in the per-particle checkpoint layout "
                    f"({_LEGACY_MARKER} + particle_*.ckpt.json), which this "
                    "version no longer reads; recalibrate into a fresh "
                    "checkpoint directory")
            return None
        payload = self._read_json(path)
        if payload is None or payload.get("format") != _WINDOW_FORMAT:
            return None
        payloads, rows = payload.get("checkpoints"), payload.get("rows")
        meta = payload.get("meta")
        if not isinstance(payloads, list) or not isinstance(rows, list) \
                or not payloads or not rows \
                or not (meta is None or isinstance(meta, dict)):
            return None
        n = len(payloads)
        if not all(type(r) is int and 0 <= r < n for r in rows):
            return None
        return payload

    def save_window(self, window_index: int,
                    checkpoints: Sequence[Checkpoint]) -> None:
        """Seal a window's checkpoints (no metadata); refresh the manifest."""
        self.save_window_state(window_index, checkpoints, meta=None)

    def save_window_state(self, window_index: int,
                          checkpoints: Sequence[Checkpoint],
                          meta: dict | None = None) -> None:
        """Seal a window: its per-particle checkpoints plus optional
        metadata, in one atomically published file.

        ``checkpoints`` has one entry per particle; entries that are the
        same object (resampled duplicates) are stored once.  The manifest
        is updated after the seal, for this window only.
        """
        if not checkpoints:
            raise ValueError("cannot persist an empty window")
        distinct, rows = distinct_checkpoints(checkpoints)
        write_json_atomic(self._window_dir(window_index) / _WINDOW_NAME, {
            "format": _WINDOW_FORMAT,
            "meta": meta,
            "checkpoints": [cp.to_dict() for cp in distinct],
            "rows": rows.tolist(),
        })
        self._update_manifest(sealed={window_index: len(rows)})

    def window_complete(self, window_index: int) -> bool:
        """Whether the window is sealed: its ``window.json`` parses and maps
        every particle row to one of its checkpoint payloads."""
        return self._sealed(window_index) is not None

    def load_window_meta(self, window_index: int) -> dict[str, Any]:
        """The sealed window's metadata payload."""
        payload = self._sealed(window_index)
        if payload is None or payload["meta"] is None:
            raise CheckpointError(
                f"no state metadata stored for window {window_index}")
        return payload["meta"]

    def load_window_state(self, window_index: int
                          ) -> tuple[list[Checkpoint], dict[str, Any]]:
        """Load a sealed window's per-particle checkpoints and metadata.

        Refuses unsealed (torn or damaged) windows.  Particles that shared
        one checkpoint when the window was saved share one restored
        :class:`Checkpoint` object.
        """
        payload = self._sealed(window_index)
        if payload is None:
            raise CheckpointError(
                f"window {window_index} is not sealed (no valid "
                f"{_WINDOW_NAME}); refusing to load a possibly torn window")
        if payload["meta"] is None:
            raise CheckpointError(
                f"no state metadata stored for window {window_index}")
        return self._checkpoints_in(payload), payload["meta"]

    @staticmethod
    def _checkpoints_in(payload: dict) -> list[Checkpoint]:
        """A sealed window file's per-particle checkpoints, duplicates
        sharing one object."""
        distinct = [Checkpoint.from_dict(p) for p in payload["checkpoints"]]
        return [distinct[r] for r in payload["rows"]]

    def stored_windows(self) -> list[int]:
        """Indices of all windows with a directory, sealed or not."""
        out = []
        for child in sorted(self._root.glob("window_*")):
            if child.is_dir():
                out.append(int(child.name.split("_", 1)[1]))
        return out

    def prune(self, keep_last: int) -> list[int]:
        """Retention GC: delete old *sealed* windows, keep the newest
        ``keep_last``.

        Only sealed windows are candidates — an unsealed window directory
        is never touched (it may be mid-write by a live run, and it is the
        crash evidence a resume inspects), and the latest sealed window is
        always kept (``keep_last >= 1``) because it is the restart point.
        Batch :meth:`~repro.core.smc.SequentialCalibrator.run` resume
        restores a gapless prefix, so prune only *after* a batch run
        finishes; the streaming service resumes from the latest sealed
        window alone and can prune continuously.  Returns the deleted
        window indices (oldest first).
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        sealed = [i for i in self.stored_windows() if self.window_complete(i)]
        doomed = sealed[:-keep_last]
        for index in doomed:
            shutil.rmtree(self._window_dir(index))
        if doomed:
            self._update_manifest(dropped=doomed)
        return doomed

    # ------------------------------------------------------------------ #
    def write_run_meta(self, fingerprint: dict) -> None:
        """Durably record the run's config/seed fingerprint."""
        write_json_atomic(self._root / _RUN_META_NAME, fingerprint)

    def read_run_meta(self) -> dict | None:
        """The stored fingerprint, or ``None`` for a fresh store."""
        return self._read_json(self._root / _RUN_META_NAME)

    def validate_run_meta(self, fingerprint: dict) -> None:
        """Bind the store to one run configuration.

        First call on a fresh store records the fingerprint; later calls
        must match it exactly, so checkpoints written under one
        ``(base_seed, shard layout, config)`` can never silently seed a
        resume under another — which would break the bit-identical-resume
        guarantee without any detectable symptom.
        """
        existing = self.read_run_meta()
        if existing is None:
            self.write_run_meta(fingerprint)
            return
        if existing != fingerprint:
            differing = sorted(
                k for k in set(existing) | set(fingerprint)
                if existing.get(k) != fingerprint.get(k))
            raise CheckpointError(
                "checkpoint store was produced by a different run "
                f"configuration (differing keys: {differing}); resuming "
                "would not be bit-identical — use a fresh --checkpoint-dir")

    # ------------------------------------------------------------------ #
    def write_manifest(self) -> StoreManifest:
        """Scan every stored window and atomically rewrite the manifest."""
        windows: dict[int, int] = {}
        complete: dict[int, bool] = {}
        for index in self.stored_windows():
            payload = self._sealed(index)
            windows[index] = 0 if payload is None else len(payload["rows"])
            complete[index] = payload is not None
        manifest = StoreManifest(run_id=self._run_id, windows=windows,
                                 complete=complete)
        write_json_atomic(self._root / _MANIFEST_NAME, manifest.to_dict())
        return manifest

    def _update_manifest(self, *, sealed: dict[int, int] | None = None,
                         dropped: Sequence[int] = ()) -> None:
        """Record sealed or deleted windows without rescanning the store.

        A missing or unreadable manifest is rebuilt by a full scan.
        """
        current = self._read_json(self._root / _MANIFEST_NAME)
        if current is None:
            self.write_manifest()
            return
        try:
            manifest = StoreManifest.from_dict(current)
        except (TypeError, ValueError, AttributeError):
            self.write_manifest()
            return
        windows, complete = dict(manifest.windows), dict(manifest.complete)
        for index, n_particles in (sealed or {}).items():
            windows[index], complete[index] = n_particles, True
        for index in dropped:
            windows.pop(index, None)
            complete.pop(index, None)
        write_json_atomic(self._root / _MANIFEST_NAME, StoreManifest(
            run_id=self._run_id, windows=dict(sorted(windows.items())),
            complete=dict(sorted(complete.items()))).to_dict())

    def read_manifest(self) -> StoreManifest:
        path = self._root / _MANIFEST_NAME
        if not path.exists():
            return StoreManifest(run_id=self._run_id, windows={})
        with open(path) as fh:
            return StoreManifest.from_dict(json.load(fh))

    def latest_restart_point(self) -> tuple[int, list[Checkpoint]] | None:
        """Most recent *sealed* window for resuming an interrupted run.

        Walks stored windows newest-first and skips unsealed ones, so a
        window torn by the crash being recovered from is never mistaken
        for a restart point.
        """
        self.write_manifest()
        for index in sorted(self.stored_windows(), reverse=True):
            payload = self._sealed(index)
            if payload is not None:
                return index, self._checkpoints_in(payload)
        return None
