"""Ensemble sweeps: many simulations over a parameter/seed grid.

The per-trajectory fan-out of the baselines (single-shot importance
sampling, grid and ABC dispatch its member task) and the scaling benches.
The calibrator simulates through the sharded batched engine of
:mod:`repro.hpc.sharding` instead; both keep the same picklability
discipline (module-level task function over a declared dataclass payload —
the shape the executor-hygiene lint enforces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hpc.executor import Executor, SerialExecutor
from ..seir.model import StochasticSEIRModel
from ..seir.outputs import Trajectory
from ..seir.parameters import DiseaseParameters

__all__ = ["EnsembleSpec", "EnsembleResult", "run_ensemble"]


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of an ensemble sweep.

    Attributes
    ----------
    base_params:
        Shared disease parameterisation.
    param_updates:
        Per-member field updates; one dict per parameter draw.
    seeds:
        Seeds replicated across every parameter draw (common random numbers).
    start_day / end_day:
        Simulated day range (from scratch at ``start_day = 0``).
    engine / engine_options:
        Simulation engine selection.
    """

    base_params: DiseaseParameters
    param_updates: tuple[dict, ...]
    seeds: tuple[int, ...]
    end_day: int
    engine: str = "binomial_leap"
    engine_options: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if not self.param_updates:
            raise ValueError("need at least one parameter draw")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.end_day < 1:
            raise ValueError("end_day must be >= 1")

    @property
    def n_members(self) -> int:
        return len(self.param_updates) * len(self.seeds)


@dataclass(frozen=True)
class EnsembleResult:
    """Sweep outputs, indexable by (draw, replicate)."""

    spec: EnsembleSpec
    trajectories: tuple[Trajectory, ...]

    def trajectory(self, draw_index: int, seed_index: int) -> Trajectory:
        n_seeds = len(self.spec.seeds)
        return self.trajectories[draw_index * n_seeds + seed_index]

    def channel_matrix(self, channel: str) -> np.ndarray:
        """Stack one channel: shape (n_draws, n_seeds, n_days)."""
        n_draws = len(self.spec.param_updates)
        n_seeds = len(self.spec.seeds)
        n_days = len(self.trajectories[0])
        out = np.empty((n_draws, n_seeds, n_days))
        for i in range(n_draws):
            for r in range(n_seeds):
                out[i, r] = self.trajectory(i, r).series(channel).values
        return out


@dataclass(frozen=True)
class _MemberTask:
    """One sweep member's executor payload (picklable, schema declared)."""

    params_payload: dict
    seed: int
    end_day: int
    engine: str
    engine_options: dict


def _run_member_task(task: _MemberTask) -> Trajectory:
    params = DiseaseParameters.from_dict(task.params_payload)
    model = StochasticSEIRModel(params, task.seed, engine=task.engine,
                                **task.engine_options)
    return model.run_until(task.end_day)


def run_ensemble(spec: EnsembleSpec,
                 executor: Executor | None = None) -> EnsembleResult:
    """Execute the sweep; trajectories ordered draw-major, then seed."""
    executor = executor or SerialExecutor()
    options = dict(spec.engine_options or {})
    tasks = []
    for updates in spec.param_updates:
        payload = spec.base_params.with_updates(**updates).to_dict()
        for seed in spec.seeds:
            tasks.append(_MemberTask(params_payload=payload, seed=int(seed),
                                     end_day=spec.end_day, engine=spec.engine,
                                     engine_options=options))
    trajectories = executor.map(_run_member_task, tasks)
    return EnsembleResult(spec=spec, trajectories=tuple(trajectories))


def common_seed_grid(param_updates: Sequence[dict], seeds: Sequence[int],
                     base_params: DiseaseParameters, end_day: int,
                     engine: str = "binomial_leap",
                     **engine_options) -> EnsembleSpec:
    """Convenience constructor mirroring the paper's draws x common-seeds grid."""
    return EnsembleSpec(base_params=base_params,
                        param_updates=tuple(dict(u) for u in param_updates),
                        seeds=tuple(int(s) for s in seeds),
                        end_day=end_day, engine=engine,
                        engine_options=engine_options or None)
