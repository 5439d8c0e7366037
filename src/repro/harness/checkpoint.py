"""Checkpoint files for resumable experiment runs.

A checkpoint is one JSON file carrying the full
:class:`~repro.noc.snapshot` state of a mid-run experiment plus the
harness-level phase bookkeeping (:func:`repro.harness.runner.run_spec`
owns the layout).  Files are written through the same atomic path as
cache entries, so a SIGKILL mid-write leaves either the previous
checkpoint or a ``.tmp`` orphan — never a torn file; a checkpoint that
*is* unreadable or stale is discarded with a warning and the run simply
starts from scratch (the resume contract in ``docs/checkpoint.md``).

Checkpoints are keyed by the spec's cache digest — the same
kernel-independent key the result cache uses — so a sweep re-run after
an interruption finds each cell's checkpoint without a manifest, and a
resume may switch kernels.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..atomicio import atomic_write_json, read_json_checked
from ..noc.snapshot import SNAPSHOT_SCHEMA_VERSION, check_schema

__all__ = ["CheckpointInterrupt", "DEFAULT_CHECKPOINT_DIR",
           "checkpoint_path", "load_checkpoint", "write_checkpoint",
           "SNAPSHOT_SCHEMA_VERSION"]

DEFAULT_CHECKPOINT_DIR = ".repro_checkpoints"


class CheckpointInterrupt(RuntimeError):
    """A checkpointing run stopped early because its ``interrupt`` hook
    fired; the just-written checkpoint at :attr:`path` resumes it.

    Raised by :func:`~repro.harness.runner.run_spec` only at checkpoint
    boundaries, immediately *after* the checkpoint file is persisted —
    so catching this always means a complete, resumable snapshot is on
    disk.  The experiment service maps it to job preemption.
    """

    def __init__(self, path) -> None:
        super().__init__(f"run interrupted; resume from checkpoint {path}")
        self.path = str(path)


def checkpoint_path(directory: str | os.PathLike[str] | None,
                    spec) -> Path:
    """Checkpoint file for ``spec`` under ``directory``.

    Uses the spec's *cache* digest (kernel excluded), so a checkpoint
    written by one kernel is found when resuming on another.
    """
    from .cache import spec_digest
    root = Path(directory if directory is not None
                else DEFAULT_CHECKPOINT_DIR)
    return root / f"ckpt-{spec_digest(spec)}.json"


def write_checkpoint(path: str | os.PathLike[str],
                     payload: dict[str, Any]) -> None:
    """Atomically persist a checkpoint payload."""
    atomic_write_json(Path(path), payload)


def load_checkpoint(path: str | os.PathLike[str], *,
                    kind: str | None = None) -> dict[str, Any] | None:
    """Read a checkpoint, or None if missing, torn, or stale.

    Corrupt and stale-schema files are discarded with a warning — a bad
    checkpoint must never crash a resume, only downgrade it to a fresh
    run.  Use :func:`repro.noc.snapshot.check_schema` directly when a
    hard :class:`~repro.noc.snapshot.SnapshotError` is wanted instead.
    """

    def check(payload: Any) -> None:
        check_schema(payload, kind=kind)

    return read_json_checked(Path(path), label="checkpoint", check=check)
