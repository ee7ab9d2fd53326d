"""Checkpoint / restart of simulator state (paper section III-B).

A :class:`Checkpoint` captures everything needed to continue a trajectory
from an intermediate day: the disease parameterisation, the engine-specific
state snapshot (compartment occupancy, clock, cumulative outputs, RNG stream,
and — for the event-driven engine — the pending future-transition events),
and the optional transmission schedule.

Restarting accepts a :class:`~repro.seir.parameters.ParameterOverride`
covering exactly the six knobs the paper allows, so a stored posterior
trajectory can be continued "along a new trajectory" with an updated
transmission rate and a fresh random seed — the mechanism that makes
window-to-window sequential calibration O(window) instead of O(history).

Batch snapshots: :func:`stack_leap_snapshots` validates a set of scalar
binomial-leap snapshots taken at the same day and stacks their state into
the arrays the batched ensemble engine
(:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`) restarts
from, so a whole posterior's continuation needs no per-particle engine
objects or JSON round-trips.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..data.schedule import PiecewiseConstant
from .parameters import DiseaseParameters, ParameterOverride

__all__ = ["Checkpoint", "CheckpointError", "StackedLeapState",
           "stack_leap_snapshots"]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised for malformed or incompatible checkpoint payloads."""


@dataclass(frozen=True)
class Checkpoint:
    """Immutable, JSON-serialisable snapshot of a simulation.

    Attributes
    ----------
    params:
        Disease parameters in force when the snapshot was taken.
    snapshot:
        Engine state dict (includes the ``engine`` tag naming which engine
        class can consume it).
    theta_schedule:
        Optional transmission schedule the run was using.
    """

    params: DiseaseParameters
    snapshot: dict
    theta_schedule: PiecewiseConstant | None = None

    @property
    def engine_name(self) -> str:
        return str(self.snapshot.get("engine", ""))

    @property
    def day(self) -> int:
        """Simulated day at which the trajectory can be resumed."""
        return int(self.snapshot["day"])

    @property
    def seed(self) -> int:
        return int(self.snapshot["seed"])

    # ------------------------------------------------------------------ #
    def restart(self, override: ParameterOverride | None = None,
                theta_schedule: PiecewiseConstant | None = None):
        """Build a resumed engine, optionally re-parameterised.

        Parameters
        ----------
        override:
            The paper's six restart knobs; ``None`` resumes bit-exactly.
        theta_schedule:
            Replacement transmission schedule; defaults to the checkpointed
            one (note an overridden ``transmission_rate`` only takes effect
            when no schedule is active, mirroring the engine precedence).

        Returns
        -------
        A fresh engine instance positioned at :attr:`day`.
        """
        from .model import engine_class  # local import to avoid cycle

        params = self.params
        seed: int | None = None
        if override is not None:
            params = override.apply_to(params)
            seed = override.seed
        schedule = theta_schedule if theta_schedule is not None else self.theta_schedule
        if override is not None and override.transmission_rate is not None \
                and theta_schedule is None:
            # An explicit transmission-rate override supersedes a stale schedule.
            schedule = None
        cls = engine_class(self.engine_name)
        return cls.from_snapshot(self.snapshot, params, seed=seed,
                                 theta_schedule=schedule)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": _FORMAT_VERSION,
            "params": self.params.to_dict(),
            "snapshot": self.snapshot,
            "theta_schedule": (self.theta_schedule.to_dict()
                               if self.theta_schedule is not None else None),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Checkpoint":
        version = d.get("format_version")
        if version != _FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format {version!r}")
        try:
            params = DiseaseParameters.from_dict(d["params"])
            snapshot = dict(d["snapshot"])
            schedule = (PiecewiseConstant.from_dict(d["theta_schedule"])
                        if d.get("theta_schedule") is not None else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
        if "engine" not in snapshot or "day" not in snapshot:
            raise CheckpointError("snapshot missing engine/day fields")
        return cls(params=params, snapshot=snapshot, theta_schedule=schedule)

    def save(self, path: str | os.PathLike) -> None:
        """Atomically and durably write the checkpoint as JSON.

        Write-to-temp + ``fsync`` + ``os.replace`` in the same directory:
        a reader (or a resumed run) either sees the complete previous
        content or the complete new content, never a torn file — even
        across a crash between the write and the rename, because the
        payload is flushed to disk before the atomic rename publishes it.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self.to_dict(), fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        with open(os.fspath(path)) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"checkpoint file is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


# --------------------------------------------------------------------------- #
# Batch snapshots
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StackedLeapState:
    """Column-stacked state of many same-day binomial-leap snapshots.

    The interchange format between per-particle checkpoints (what the
    calibrator stores and resamples) and the batched ensemble engine (which
    restarts a whole particle cloud at once).
    """

    day: int
    steps_per_day: int
    counts: np.ndarray            # (n_particles, n_compartments) int64
    cum_infections: np.ndarray    # (n_particles,) int64
    cum_deaths: np.ndarray        # (n_particles,) int64
    seeds: np.ndarray             # (n_particles,) int64

    @property
    def n_particles(self) -> int:
        return int(self.counts.shape[0])

    def rows(self, index: np.ndarray | slice) -> "StackedLeapState":
        """The members at ``index`` (an integer array or a slice)."""
        return StackedLeapState(day=self.day, steps_per_day=self.steps_per_day,
                                counts=self.counts[index],
                                cum_infections=self.cum_infections[index],
                                cum_deaths=self.cum_deaths[index],
                                seeds=self.seeds[index])


def stack_leap_snapshots(snapshots: Sequence[dict]) -> StackedLeapState:
    """Validate and stack scalar ``binomial_leap`` snapshots for batching.

    Every snapshot must come from the binomial-leap engine family, sit at
    the same simulation day, and use the same ``steps_per_day`` — the batch
    engine advances all members on one clock.  RNG state is *not* stacked:
    a batched restart always begins a fresh batch stream (the paper's
    restart knob 1 applied ensemble-wide; see
    :func:`~repro.seir.seeding.batch_generator_for`).
    """
    if not snapshots:
        raise CheckpointError("cannot stack an empty snapshot list")
    first = snapshots[0]
    try:
        day = int(first["day"])
        steps = int(first["steps_per_day"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed leap snapshot: {exc}") from exc
    if steps < 1:
        raise CheckpointError(f"snapshot steps_per_day must be >= 1, got {steps}")
    counts_rows = []
    cum_inf = np.empty(len(snapshots), dtype=np.int64)
    cum_dead = np.empty(len(snapshots), dtype=np.int64)
    seeds = np.empty(len(snapshots), dtype=np.int64)
    for i, snap in enumerate(snapshots):
        engine = str(snap.get("engine", ""))
        if engine != "binomial_leap":
            raise CheckpointError(
                f"snapshot {i} is from engine {engine!r}; batch restart "
                "requires binomial_leap snapshots")
        try:
            if int(snap["day"]) != day:
                raise CheckpointError(
                    f"snapshot {i} is at day {snap['day']}, expected {day}; "
                    "a batch must share one clock")
            if int(snap["steps_per_day"]) != steps:
                raise CheckpointError(
                    f"snapshot {i} uses steps_per_day={snap['steps_per_day']}, "
                    f"expected {steps}")
            counts_rows.append(np.asarray(snap["counts"], dtype=np.int64))
            cum_inf[i] = int(snap["cum_infections"])
            cum_dead[i] = int(snap["cum_deaths"])
            seeds[i] = int(snap["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed leap snapshot {i}: {exc}") from exc
    counts = np.vstack(counts_rows)
    return StackedLeapState(day=day, steps_per_day=steps, counts=counts,
                            cum_infections=cum_inf, cum_deaths=cum_dead,
                            seeds=seeds)
