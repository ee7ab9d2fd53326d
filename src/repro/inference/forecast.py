"""Posterior predictive forecasting beyond the last calibrated window.

The paper motivates the framework as producing "plausible epidemic
trajectories/histories given the observed data" (section VI) for
forward-looking decision support.  Forecasting here is exactly the
checkpoint-restart machinery pointed at the future: every final-posterior
particle is restarted from its stored state with a fresh seed (parameters
held at their posterior values) and simulated ``horizon_days`` forward; the
ensemble of continuations is the posterior predictive.

Calibrator posteriors restart on the **sharded batched path**: the
posterior's checkpoints are stacked per structural group, split into
contiguous shards, and advanced by the
:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine` across the
executor's workers (:mod:`repro.hpc.sharding`) — one batched engine per
shard instead of one scalar task per particle.  Per-shard streams are keyed
by each shard's slice of the forecast seed vector, so a forecast is
bit-reproducible given ``(base_seed, shard layout)`` and identical across
executors for the same layout.  Checkpoints that cannot share one batch
(non-leap engines, an active transmission schedule, or differing days)
restart per particle instead, one checkpoint-restart task each — the path
:func:`repro.testing.reference.reference_forecast` also forces for the
batched forecast's parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.particle import ParticleEnsemble
from ..core.posterior import TrajectoryRibbon, matrix_ribbon
from ..data.sources import CASES
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.sharding import (GroupSpec, resolve_shard_layout, simulate_groups,
                            structural_groups)
from ..seir.batch_engine import BatchTrajectory
from ..seir.checkpoint import Checkpoint, stack_leap_snapshots
from ..seir.model import StochasticSEIRModel
from ..seir.outputs import Trajectory
from ..seir.parameters import ParameterOverride
from ..seir.seeding import mix_seeds, register_stream_tag

__all__ = ["Forecast", "forecast_from_posterior", "forecast_scenarios"]

# Forecast continuation seeds occupy their own registered bank stream: the
# registry raises at import time if another consumer ever claims tag 9100,
# and the tag rides in ``mix_seed``'s reserved position right after the base
# seed so forecast seeds can never alias the calibrator's window streams.
_FORECAST_STREAM = register_stream_tag(
    "forecast", 9100, description="posterior-predictive continuation seeds")


@dataclass(frozen=True)
class _ContinuationTask:
    checkpoint_payload: dict
    seed: int
    end_day: int


def _run_continuation_task(task: _ContinuationTask) -> Trajectory:
    """Restart a checkpoint under a fresh seed and simulate to ``end_day``."""
    model = StochasticSEIRModel.from_checkpoint(
        Checkpoint.from_dict(task.checkpoint_payload),
        ParameterOverride(seed=task.seed))
    return model.run_until(task.end_day)


@dataclass(frozen=True)
class Forecast:
    """Posterior predictive trajectory ensemble.

    ``batch`` holds the continuations' channel matrices, one row per
    forecast entry; per-entry :class:`~repro.seir.outputs.Trajectory`
    objects are built only when :attr:`trajectories` is read.
    Continuations of checkpoints taken on different days cover different
    day ranges and cannot share one matrix: they are kept as ``ragged``
    trajectories, ``batch`` is ``None`` and there is no per-day ribbon.
    Calibrator posteriors always share one day.
    """

    start_day: int
    horizon_days: int
    batch: BatchTrajectory | None
    ragged: tuple[Trajectory, ...] = ()

    @classmethod
    def from_trajectories(cls, start_day: int, horizon_days: int,
                          trajectories: Sequence[Trajectory]) -> "Forecast":
        """Stack records sharing one day range; keep others ragged."""
        first = trajectories[0]
        if all(t.start_day == first.start_day and len(t) == len(first)
               for t in trajectories):
            return cls(start_day, horizon_days,
                       BatchTrajectory.from_trajectories(trajectories))
        return cls(start_day, horizon_days, None, tuple(trajectories))

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        if self.batch is None:
            return self.ragged
        return tuple(self.batch.trajectories())

    def ribbon(self, channel: str = CASES,
               quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95),
               ) -> TrajectoryRibbon:
        """Per-day forecast quantile bands."""
        if self.batch is None:
            raise ValueError("forecast entries cover different day ranges "
                             "(checkpoints taken on different days), so "
                             "they have no per-day ribbon")
        return matrix_ribbon(self.batch.start_day,
                             self.batch.channel_matrix(channel), quantiles)

    def __len__(self) -> int:
        return len(self.ragged) if self.batch is None \
            else self.batch.n_particles


@dataclass(frozen=True)
class _ForecastPlan:
    """The forecast entries of a posterior, as columns.

    Entries are replicate-major: entry ``rep * n + j`` continues posterior
    row ``j`` for the ``rep``-th time.  ``rows`` maps each entry to its
    checkpoint in ``checkpoints`` (the posterior's distinct checkpoints)
    and ``seeds`` holds its continuation seed.
    """

    checkpoints: list[Checkpoint]
    rows: np.ndarray
    seeds: np.ndarray

    @property
    def start_day(self) -> int:
        return self.checkpoints[int(self.rows[0])].day


def _forecast_plan(posterior: ParticleEnsemble, base_seed: int,
                   n_per_particle: int) -> _ForecastPlan:
    """Entry order, checkpoints and seeds shared by the batched forecast and
    its per-particle reference."""
    try:
        checkpoints, rows = posterior.distinct_checkpoints()
    except ValueError:
        raise ValueError("posterior particles carry no checkpoints") from None
    n = len(posterior)
    replicate = np.repeat(np.arange(n_per_particle, dtype=np.int64), n)
    row = np.tile(np.arange(n, dtype=np.int64), n_per_particle)
    seeds = mix_seeds(base_seed, _FORECAST_STREAM, replicate, row,
                      posterior.seeds()[row])
    return _ForecastPlan(checkpoints=checkpoints, rows=rows[row],
                         seeds=seeds)


def _batchable(checkpoints: Sequence[Checkpoint]) -> bool:
    """True when every checkpoint can restart on the batched leap engine.

    Requires leap-format snapshots with no active transmission schedule,
    all sitting at one shared day and ``steps_per_day`` (a batch advances
    on a single clock); anything else forecasts per particle.
    """
    if any(cp.engine_name != "binomial_leap" or cp.theta_schedule is not None
           for cp in checkpoints):
        return False
    first = checkpoints[0].snapshot
    day = first.get("day")
    steps = first.get("steps_per_day")
    return all(cp.snapshot.get("day") == day
               and cp.snapshot.get("steps_per_day") == steps
               for cp in checkpoints)


def _per_particle_forecast(plan: _ForecastPlan, end_day: int,
                           executor: Executor) -> list[Trajectory]:
    """One checkpoint-restart task per forecast entry.

    Replicates (and resampled duplicates) share checkpoint objects, so
    each distinct checkpoint is serialised once, not once per entry.
    """
    payloads = [cp.to_dict() for cp in plan.checkpoints]
    tasks = [_ContinuationTask(checkpoint_payload=payloads[row], seed=seed,
                               end_day=end_day)
             for row, seed in zip(plan.rows.tolist(), plan.seeds.tolist())]
    return executor.map(_run_continuation_task, tasks)


def _batched_forecast(plan: _ForecastPlan, end_day: int, executor: Executor,
                      layout: dict) -> BatchTrajectory:
    """Sharded batched path: stack checkpoints per group, shard, dispatch.

    Entries group by their checkpoints' structure, in order of first
    appearance; each group stacks its distinct checkpoints once and takes
    its entries' rows of that stack.
    """
    params = [cp.params for cp in plan.checkpoints]
    group_of = np.empty(len(params), dtype=np.int64)
    local = np.empty(len(params), dtype=np.int64)
    stacks = []
    for g, members in enumerate(structural_groups(params)):
        group_of[members] = g
        local[members] = np.arange(len(members))
        stacks.append(stack_leap_snapshots(
            [plan.checkpoints[k].snapshot for k in members]))
    thetas = np.array([p.transmission_rate for p in params])
    entry_group = group_of[plan.rows]
    groups = [np.flatnonzero(entry_group == g) for g in range(len(stacks))]
    specs = []
    for g, entries in enumerate(groups):
        rows = plan.rows[entries]
        specs.append(GroupSpec(params=params[int(rows[0])],
                               seeds=plan.seeds[entries],
                               thetas=thetas[rows],
                               state=stacks[g].rows(local[rows])))
    shards = simulate_groups(executor, specs, end_day=end_day,
                             return_state=False, **layout)
    blocks = [result.batch for group in shards for result in group.results]
    order = np.concatenate([entries[lo:hi]
                            for entries, group in zip(groups, shards)
                            for lo, hi in group.bounds])
    batch = BatchTrajectory.concatenate(blocks)
    if not np.array_equal(order, np.arange(len(order))):
        batch = batch.rows(np.argsort(order))
    return batch


def forecast_from_posterior(posterior: ParticleEnsemble, horizon_days: int,
                            executor: Executor | None = None,
                            base_seed: int = 0,
                            n_per_particle: int = 1, *,
                            shard_size: int | None = None,
                            n_shards: int | str = "auto") -> Forecast:
    """Simulate the posterior ensemble ``horizon_days`` past its checkpoints.

    Parameters
    ----------
    posterior:
        A (typically final-window) posterior ensemble whose particles carry
        checkpoints.
    horizon_days:
        Days to simulate beyond the checkpoint day.
    executor:
        Parallel backend (forecasting is embarrassingly parallel too); the
        batched path fans *shards* across it, the per-particle path one
        task per entry.
    base_seed:
        Entropy for the fresh continuation seeds.
    n_per_particle:
        Stochastic continuations per particle (forecast spread includes
        simulator noise, not just parameter uncertainty).
    shard_size / n_shards:
        Batched-path shard layout (see :class:`~repro.core.smc.SMCConfig`);
        ``"auto"`` targets one shard per executor worker.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if n_per_particle < 1:
        raise ValueError("n_per_particle must be >= 1")
    executor = executor or SerialExecutor()
    layout = resolve_shard_layout(executor, shard_size=shard_size,
                                  n_shards=n_shards)
    plan = _forecast_plan(posterior, base_seed, n_per_particle)
    end_day = plan.start_day + horizon_days
    if not _batchable(plan.checkpoints):
        return Forecast.from_trajectories(
            plan.start_day, horizon_days,
            _per_particle_forecast(plan, end_day, executor))
    return Forecast(start_day=plan.start_day, horizon_days=horizon_days,
                    batch=_batched_forecast(plan, end_day, executor, layout))


def forecast_scenarios(posteriors: "Mapping[str, ParticleEnsemble]",
                       horizon_days: int,
                       executor: Executor | None = None,
                       base_seed: int = 0,
                       n_per_particle: int = 1, *,
                       shard_size: int | None = None,
                       n_shards: int | str = "auto") -> dict[str, Forecast]:
    """Fan :func:`forecast_from_posterior` out over per-scenario posteriors.

    ``posteriors`` maps scenario name to a checkpoint-carrying posterior
    ensemble — typically ``{r.scenario: r.final_posterior for r in
    sweep_result}`` from :func:`~repro.inference.api.calibrate_scenarios`.
    Every scenario forecasts under **common random numbers** (the same
    ``base_seed``, hence the same continuation seed vector for equal
    posterior seed lists), so cross-scenario forecast differences estimate
    scenario effects, not Monte Carlo noise; pass a distinct ``base_seed``
    per call for independent draws instead.  Scenarios are processed in
    sorted-name (canonical) order sharing one executor; the returned dict
    preserves that order.
    """
    executor = executor or SerialExecutor()
    return {name: forecast_from_posterior(
        posteriors[name], horizon_days, executor=executor,
        base_seed=base_seed, n_per_particle=n_per_particle,
        shard_size=shard_size, n_shards=n_shards)
        for name in sorted(posteriors)}
