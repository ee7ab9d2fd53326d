"""Particles: weighted trajectory hypotheses.

A particle in this framework is richer than a parameter vector — it is the
tuple the paper calibrates: parameters ``theta``, reporting probability
``rho``, the random seed ``s`` (a first-class coordinate, section IV), the
stored simulator state (checkpoint) at the end of the last calibrated
window, and the trajectory history it has generated so far.

A :class:`ParticleEnsemble` stores those coordinates as columns — a
parameter matrix, seed / log-weight / ancestor vectors, segment and history
channel matrices (:class:`~repro.seir.batch_engine.BatchTrajectory`) and a
checkpoint column — so weighting and resampling are array operations.  A
:class:`Particle` is built only when a caller indexes or iterates the
ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..seir.batch_engine import BatchTrajectory
from ..seir.checkpoint import Checkpoint
from ..seir.outputs import Trajectory
from .weights import (effective_sample_size, normalize_log_weights,
                      weighted_mean, weighted_quantile)

__all__ = ["Particle", "ParticleEnsemble"]


@dataclass(frozen=True)
class Particle:
    """One weighted trajectory hypothesis.

    Attributes
    ----------
    params:
        Calibration parameters, e.g. ``{"theta": 0.31, "rho": 0.62}``.
    seed:
        The random seed that generated :attr:`segment`.
    log_weight:
        Unnormalised importance log-weight from the current window.
    segment:
        Trajectory of the most recent calibration window.
    history:
        Full trajectory from simulation start through the current window
        (used for posterior ribbons across the whole horizon).
    checkpoint:
        Simulator state at the end of the current window, for restart.
    ancestor:
        Index of the parent particle in the previous window's posterior
        (-1 for first-window particles); exposes lineage for diagnostics.
    """

    params: dict[str, float]
    seed: int
    log_weight: float = 0.0
    segment: Trajectory | None = None
    history: Trajectory | None = None
    checkpoint: Checkpoint | None = None
    ancestor: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           {k: float(v) for k, v in dict(self.params).items()})
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "log_weight", float(self.log_weight))

    def value(self, name: str) -> float:
        """Parameter value by name (KeyError if absent)."""
        return self.params[name]

    def with_weight(self, log_weight: float) -> "Particle":
        return replace(self, log_weight=float(log_weight))


def _stack_trajectories(trajectories: Sequence[Trajectory | None],
                        which: str) -> BatchTrajectory | None:
    """One channel-matrix block from per-particle trajectories (or None)."""
    present = [t for t in trajectories if t is not None]
    if not present:
        return None
    first = present[0]
    if len(present) != len(trajectories) or any(
            t.start_day != first.start_day or len(t) != len(first)
            for t in present):
        raise ValueError(f"particles disagree on {which} trajectory days")
    return BatchTrajectory(first.start_day,
                           np.stack([t.infections for t in present]),
                           np.stack([t.deaths for t in present]),
                           np.stack([t.hospital_census for t in present]),
                           np.stack([t.icu_census for t in present]))


class ParticleEnsemble:
    """An ordered, columnar collection of particles with weight-aware
    summaries.

    Row ``i`` of every column is particle ``i``: the ``(n, n_params)``
    parameter matrix (columns in the order the parameters were first
    named), the seed, log-weight and ancestor vectors, the segment and
    history channel matrices, and the checkpoint column.  The checkpoint
    column may be any sequence; the calibrator passes one that builds each
    member's :class:`~repro.seir.checkpoint.Checkpoint` on first access and
    caches it, so only resampled survivors ever get one.

    Indexing or iterating materialises :class:`Particle` objects, cached
    per row, so repeated access returns the same object.
    """

    _names: tuple[str, ...]
    _column: dict[str, int]
    _params: np.ndarray
    _seeds: np.ndarray
    _log_weights: np.ndarray
    _ancestors: np.ndarray
    _segments: BatchTrajectory | None
    _histories: BatchTrajectory | None
    _checkpoints: Sequence[Checkpoint | None] | None
    _rows: list[Particle | None]

    def __init__(self, particles: Sequence[Particle]) -> None:
        if not particles:
            raise ValueError("ensemble must contain at least one particle")
        names = tuple(particles[0].params)
        for p in particles:
            if set(p.params) != set(names):
                raise ValueError("particles disagree on parameter names")
        checkpoints = [p.checkpoint for p in particles]
        self._set_columns(
            names,
            np.array([[p.params[name] for name in names] for p in particles],
                     dtype=np.float64).reshape(len(particles), len(names)),
            np.array([p.seed for p in particles], dtype=np.int64),
            log_weights=np.array([p.log_weight for p in particles],
                                 dtype=np.float64),
            ancestors=np.array([p.ancestor for p in particles],
                               dtype=np.int64),
            segments=_stack_trajectories([p.segment for p in particles],
                                         "segment"),
            histories=_stack_trajectories([p.history for p in particles],
                                          "history"),
            checkpoints=(None if all(c is None for c in checkpoints)
                         else checkpoints))
        self._rows = list(particles)

    @classmethod
    def from_columns(cls, names: Sequence[str], params: np.ndarray,
                     seeds: np.ndarray, *,
                     log_weights: np.ndarray | None = None,
                     ancestors: np.ndarray | None = None,
                     segments: BatchTrajectory | None = None,
                     histories: BatchTrajectory | None = None,
                     checkpoints: Sequence[Checkpoint | None] | None = None
                     ) -> "ParticleEnsemble":
        """Build an ensemble straight from its columns (no per-row work).

        ``params`` is ``(n, len(names))``; log-weights default to zero and
        ancestors to -1 (no lineage).
        """
        ensemble = cls.__new__(cls)
        ensemble._set_columns(tuple(names), params, seeds,
                              log_weights=log_weights, ancestors=ancestors,
                              segments=segments, histories=histories,
                              checkpoints=checkpoints)
        return ensemble

    def _set_columns(self, names: tuple[str, ...], params: np.ndarray,
                     seeds: np.ndarray, *, log_weights: np.ndarray | None,
                     ancestors: np.ndarray | None,
                     segments: BatchTrajectory | None,
                     histories: BatchTrajectory | None,
                     checkpoints: Sequence[Checkpoint | None] | None) -> None:
        seeds_arr = np.asarray(seeds, dtype=np.int64)
        n = len(seeds_arr)
        if n == 0:
            raise ValueError("ensemble must contain at least one particle")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        params_arr = np.asarray(params, dtype=np.float64)
        if seeds_arr.shape != (n,) or params_arr.shape != (n, len(names)):
            raise ValueError(
                f"parameter matrix {params_arr.shape} and seed vector "
                f"{seeds_arr.shape} do not describe {len(names)} "
                f"parameter(s) of {n} particles")
        self._log_weights = (np.zeros(n) if log_weights is None else
                             np.asarray(log_weights, dtype=np.float64))
        self._ancestors = (np.full(n, -1, dtype=np.int64) if ancestors is None
                           else np.asarray(ancestors, dtype=np.int64))
        if self._log_weights.shape != (n,) or self._ancestors.shape != (n,):
            raise ValueError("log-weights and ancestors need one entry per "
                             "particle")
        for which, batch in (("segment", segments), ("history", histories)):
            if batch is not None and batch.n_particles != n:
                raise ValueError(f"{which} matrices cover "
                                 f"{batch.n_particles} members, expected {n}")
        if checkpoints is not None and len(checkpoints) != n:
            raise ValueError(f"{len(checkpoints)} checkpoints for {n} "
                             "particles")
        self._names = names
        self._column = {name: j for j, name in enumerate(names)}
        self._params = params_arr
        self._seeds = seeds_arr
        self._segments = segments
        self._histories = histories
        self._checkpoints = checkpoints
        self._rows = [None] * n

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._seeds)

    def __iter__(self) -> Iterator[Particle]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> Particle:
        i = range(len(self))[index]
        row = self._rows[i]
        if row is None:
            row = self._row(i)
            self._rows[i] = row
        return row

    def _row(self, i: int) -> Particle:
        return Particle(
            params=dict(zip(self._names, self._params[i].tolist())),
            seed=int(self._seeds[i]),
            log_weight=float(self._log_weights[i]),
            segment=(None if self._segments is None
                     else self._segments.trajectory(i)),
            history=(None if self._histories is None
                     else self._histories.trajectory(i)),
            checkpoint=(None if self._checkpoints is None
                        else self._checkpoints[i]),
            ancestor=int(self._ancestors[i]))

    @property
    def particles(self) -> list[Particle]:
        return list(self)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._names))

    # ------------------------------------------------------------------ #
    def values(self, name: str) -> np.ndarray:
        """Array of one named parameter across the ensemble."""
        if name not in self._column:
            raise KeyError(name)
        return self._params[:, self._column[name]].copy()

    def seeds(self) -> np.ndarray:
        return self._seeds.copy()

    def log_weights(self) -> np.ndarray:
        return self._log_weights.copy()

    def checkpoints(self) -> list[Checkpoint | None]:
        """Every row's checkpoint (``None`` where a row carries none)."""
        if self._checkpoints is None:
            return [None] * len(self)
        return [self._checkpoints[i] for i in range(len(self))]

    def normalized_weights(self) -> np.ndarray:
        """Normalised weights (uniform if all log-weights are equal)."""
        return normalize_log_weights(self._log_weights)

    def effective_sample_size(self) -> float:
        return effective_sample_size(self.normalized_weights())

    # ------------------------------------------------------------------ #
    def weighted_mean(self, name: str) -> float:
        return weighted_mean(self.values(name), self.normalized_weights())

    def weighted_quantile(self, name: str,
                          q: float | np.ndarray) -> np.ndarray | float:
        return weighted_quantile(self.values(name), self.normalized_weights(), q)

    def credible_interval(self, name: str, level: float = 0.9) -> tuple[float, float]:
        """Equal-tailed credible interval at the given level."""
        if not 0 < level < 1:
            raise ValueError("level must be in (0, 1)")
        alpha = (1.0 - level) / 2.0
        lo, hi = self.weighted_quantile(name, np.array([alpha, 1.0 - alpha]))
        return float(lo), float(hi)

    # ------------------------------------------------------------------ #
    def with_log_weights(self, log_weights: np.ndarray) -> "ParticleEnsemble":
        """The same particles carrying new log-weights (columns shared)."""
        return ParticleEnsemble.from_columns(
            self._names, self._params, self._seeds, log_weights=log_weights,
            ancestors=self._ancestors, segments=self._segments,
            histories=self._histories, checkpoints=self._checkpoints)

    def select(self, indices: Sequence[int] | np.ndarray) -> "ParticleEnsemble":
        """Sub-ensemble by ancestor indices (weights reset to uniform).

        This is the post-resampling constructor: resampled particles are
        equally weighted draws from the weighted ensemble, and each records
        which ancestor it came from.  Duplicates of one ancestor share its
        checkpoint object.
        """
        idx = np.asarray(indices, dtype=np.int64)
        checkpoints: list[Checkpoint | None] | None = None
        if self._checkpoints is not None:
            source = self._checkpoints
            checkpoints = [source[i] for i in idx.tolist()]
        return ParticleEnsemble.from_columns(
            self._names, self._params[idx], self._seeds[idx], ancestors=idx,
            segments=(None if self._segments is None
                      else self._segments.rows(idx)),
            histories=(None if self._histories is None
                       else self._histories.rows(idx)),
            checkpoints=checkpoints)

    def unique_ancestors(self) -> int:
        """Number of distinct ancestor indices (post-resampling diversity)."""
        return int(np.unique(self._ancestors).size)

    def trajectory_matrices(self, which: str = "segment"
                            ) -> BatchTrajectory | None:
        """The ``segment`` or ``history`` channel matrices, or ``None`` when
        the particles carry none (shared, not copied: do not modify)."""
        if which not in ("segment", "history"):
            raise ValueError("which must be 'segment' or 'history'")
        return self._segments if which == "segment" else self._histories

    def _required_matrices(self, which: str) -> BatchTrajectory:
        batch = self.trajectory_matrices(which)
        if batch is None:
            raise ValueError(f"particle missing {which} trajectory")
        return batch

    def trajectories(self, which: str = "segment") -> list[Trajectory]:
        """Collect per-particle trajectories (``segment`` or ``history``)."""
        return self._required_matrices(which).trajectories()

    def segment_matrix(self, channel: str, start_day: int | None = None,
                       end_day: int | None = None) -> np.ndarray:
        """One segment channel as an ``(n_particles, n_days)`` matrix (a
        copy).

        ``start_day``/``end_day`` window the segments to ``[start_day,
        end_day)`` (defaulting to their full range), which the segments
        must cover.
        """
        seg = self._required_matrices("segment")
        lo = seg.start_day if start_day is None else int(start_day)
        hi = seg.end_day if end_day is None else int(end_day)
        if hi < lo:
            raise ValueError("window end before start")
        if seg.start_day > lo or seg.end_day < hi:
            raise ValueError(
                f"segment [{seg.start_day}, {seg.end_day}) does not cover "
                f"requested window [{lo}, {hi})")
        values = seg.channel_matrix(channel)
        return values[:, lo - seg.start_day:hi - seg.start_day].copy()

    def params_matrix(self) -> np.ndarray:
        """(n_particles, n_params) matrix, columns in :attr:`param_names` order."""
        return self._params[:, [self._column[n] for n in self.param_names]]

    @classmethod
    def from_param_arrays(cls, params: Mapping[str, np.ndarray],
                          seeds: np.ndarray) -> "ParticleEnsemble":
        """Build an unweighted ensemble from name-keyed parameter arrays."""
        names = list(params)
        if not names:
            raise ValueError("need at least one parameter array")
        n = len(np.asarray(params[names[0]]))
        seeds_arr = np.asarray(seeds, dtype=np.int64)
        if seeds_arr.shape != (n,):
            raise ValueError("seeds must match parameter array length")
        return cls.from_columns(
            names, np.column_stack([np.asarray(params[name], dtype=np.float64)
                                    for name in names]), seeds_arr)
