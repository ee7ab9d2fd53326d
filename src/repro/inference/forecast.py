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

from ..core.particle import Particle, ParticleEnsemble
from ..core.posterior import TrajectoryRibbon, trajectory_ribbon
from ..data.sources import CASES
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.sharding import (build_group_specs, resolve_shard_layout,
                            simulate_groups, structural_groups)
from ..seir.checkpoint import Checkpoint
from ..seir.model import StochasticSEIRModel
from ..seir.outputs import Trajectory
from ..seir.parameters import ParameterOverride
from ..seir.seeding import mix_seed, register_stream_tag

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
    """Posterior predictive trajectory ensemble."""

    start_day: int
    horizon_days: int
    trajectories: tuple[Trajectory, ...]

    def ribbon(self, channel: str = CASES,
               quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95),
               ) -> TrajectoryRibbon:
        """Per-day forecast quantile bands."""
        return trajectory_ribbon(list(self.trajectories), channel, quantiles)

    def __len__(self) -> int:
        return len(self.trajectories)


def _forecast_entries(posterior: ParticleEnsemble, base_seed: int,
                      n_per_particle: int) -> tuple[list[Particle], list[int]]:
    """Replicate-major entry order shared by the per-particle and batched
    paths."""
    entries: list[Particle] = []
    seeds: list[int] = []
    for rep in range(n_per_particle):
        for j, particle in enumerate(posterior):
            if particle.checkpoint is None:
                raise ValueError("posterior particles carry no checkpoints")
            entries.append(particle)
            seeds.append(mix_seed(base_seed, _FORECAST_STREAM, rep, j,
                                  particle.seed))
    return entries, seeds


def _batchable(posterior: ParticleEnsemble) -> bool:
    """True when every checkpoint can restart on the batched leap engine.

    Requires leap-format snapshots with no active transmission schedule,
    all sitting at one shared day and ``steps_per_day`` (a batch advances
    on a single clock); anything else forecasts per particle.
    """
    cps = [p.checkpoint for p in posterior]
    if any(cp is None or cp.engine_name != "binomial_leap"
           or cp.theta_schedule is not None for cp in cps):
        return False
    first = cps[0].snapshot
    day = first.get("day")
    steps = first.get("steps_per_day")
    return all(cp.snapshot.get("day") == day
               and cp.snapshot.get("steps_per_day") == steps for cp in cps)


def _per_particle_forecast(entries: list[Particle], seeds: list[int],
                           end_day: int, executor: Executor
                           ) -> list[Trajectory]:
    """One checkpoint-restart task per forecast entry.

    Replicates (and resampled duplicates) share checkpoint objects, so
    each distinct checkpoint is serialised once, not once per entry.
    """
    payload_cache: dict[int, dict] = {}
    tasks = []
    for p, seed in zip(entries, seeds):
        payload = payload_cache.get(id(p.checkpoint))
        if payload is None:
            payload = p.checkpoint.to_dict()
            payload_cache[id(p.checkpoint)] = payload
        tasks.append(_ContinuationTask(checkpoint_payload=payload, seed=seed,
                                       end_day=end_day))
    return executor.map(_run_continuation_task, tasks)


def _batched_forecast(entries: list[Particle], seeds: list[int],
                      end_day: int, executor: Executor,
                      layout: dict) -> list[Trajectory]:
    """Sharded batched path: stack checkpoints per group, shard, dispatch."""
    params_list = [p.checkpoint.params for p in entries]
    groups = structural_groups(params_list)
    specs = build_group_specs(
        groups, params_list, seeds,
        snapshots=[p.checkpoint.snapshot for p in entries])
    shards = simulate_groups(executor, specs, end_day=end_day,
                             return_state=False, **layout)
    trajectories: list[Trajectory | None] = [None] * len(entries)
    for indices, group in zip(groups, shards):
        for member, result, row in group.member_items():
            trajectories[indices[member]] = result.batch.trajectory(row)
    return trajectories  # type: ignore[return-value]


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

    first_cp = posterior[0].checkpoint if len(posterior) else None
    if first_cp is None:
        raise ValueError("posterior particles carry no checkpoints")
    start_day = first_cp.day
    end_day = start_day + horizon_days

    entries, seeds = _forecast_entries(posterior, base_seed, n_per_particle)
    if _batchable(posterior):
        trajectories = _batched_forecast(entries, seeds, end_day, executor,
                                         layout)
    else:
        trajectories = _per_particle_forecast(entries, seeds, end_day,
                                              executor)
    return Forecast(start_day=start_day, horizon_days=horizon_days,
                    trajectories=tuple(trajectories))


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
