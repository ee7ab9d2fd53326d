"""Per-particle reference oracles for the batched production path.

The calibrator and the forecaster each have one production path: sharded
batched simulation and vectorised weighting.  The implementations they are
parity-tested against live here, outside the production modules:

* :class:`ReferenceCalibrator` keeps the production proposal and
  resampling steps but simulates every member of a
  :class:`~repro.core.smc.PendingWindow` in-process on a scalar
  :class:`~repro.seir.model.StochasticSEIRModel` and weighs every particle
  with its own :meth:`~repro.core.observation.ObservationModel.loglik`
  call.  Window 0 starts each member fresh from burn-in; continuations
  restart the parent's checkpoint with the member's seed and draw (plus any
  scenario pins) as the override.
* :func:`reference_forecast` restarts one checkpoint per forecast entry,
  even where the batched forecast would apply.

Scalar and batched engines share no bitstream, so the scalar-engine oracle
agrees with production in distribution only.  The per-particle weighting
consumes the bias-thinning draws in the batched order whenever one source
is biased (the paper model), so over the production simulation
(``engine=None``) it reproduces the production posterior exactly.
"""

from __future__ import annotations

import numpy as np

from ..core.particle import Particle, ParticleEnsemble
from ..core.smc import BIAS_PARAM, PendingWindow, SequentialCalibrator
from ..data.sources import ObservationSet
from ..hpc.executor import Executor, SerialExecutor
from ..inference.forecast import (Forecast, _forecast_plan,
                                  _per_particle_forecast)
from ..seir.model import StochasticSEIRModel, engine_class
from ..seir.parameters import ParameterOverride

__all__ = ["ReferenceCalibrator", "reference_forecast"]


class ReferenceCalibrator(SequentialCalibrator):
    """Sequential calibrator on the per-particle reference paths.

    Takes every :class:`~repro.core.smc.SequentialCalibrator` argument plus
    ``engine``: the scalar engine name members are simulated on, or
    ``None`` to keep the production sharded simulation and swap only the
    weighting.  ``SMCConfig.engine_options`` are passed to fresh starts.
    Continuations restart each parent's own checkpoint, so any scalar
    engine runs a multi-window calibration.
    """

    def __init__(self, *args, engine: str | None = "binomial_leap",
                 **kwargs) -> None:
        if engine is not None:
            engine_class(engine)  # reject unknown names eagerly
        self.engine = engine
        super().__init__(*args, **kwargs)

    def _window_ensemble(self, pending: PendingWindow) -> ParticleEnsemble:
        if self.engine is None:
            return super()._window_ensemble(pending)
        window = pending.window
        pins = self._scenario_pins(pending)
        particles = []
        for i in range(pending.n_members):
            seed = int(pending.seeds[i])
            params = {name: float(pending.draws[i, j])
                      for j, name in enumerate(pending.param_names)}
            if pending.parents is None:
                model = StochasticSEIRModel(
                    pending.member_params(i), seed, engine=self.engine,
                    start_day=self.schedule.burn_in_start,
                    **self.config.engine_options)
                history = model.run_until(window.end_day)
                segment = history.window(window.start_day, window.end_day)
            else:
                # propose_window set parent_rows and checked that every
                # parent carries a checkpoint.
                assert pending.parent_rows is not None
                parent = pending.parents[int(pending.parent_rows[i])]
                override = {"seed": seed, **pins}
                override.update({fld: float(pending.draws[i, col])
                                 for fld, col in pending.field_columns.items()})
                model = StochasticSEIRModel.from_checkpoint(
                    parent.checkpoint, ParameterOverride.from_dict(override))
                segment = model.run_until(window.end_day)
                history = (segment if parent.history is None
                           else parent.history.extended_by(segment))
            particles.append(Particle(params=params, seed=seed,
                                      segment=segment, history=history,
                                      checkpoint=model.checkpoint()))
        return ParticleEnsemble(particles)

    def _scenario_pins(self, pending: PendingWindow) -> dict[str, float]:
        """Restart-knob values the scenario pins for this window's restarts.

        A checkpoint carries the *previous* window's parameters, so every
        restart knob any scenario override targets is re-asserted on
        restart — including fields whose override returns them to the
        baseline value — or a stale override would leak forward.  The
        calibrated fields are applied after, and validation forbids the
        overlap anyway.
        """
        if self.scenario is None:
            return {}
        fields = ({o.field for o in self.scenario.overrides}
                  & set(ParameterOverride._PARAM_FIELDS))
        return {field: float(getattr(pending.base, field))
                for field in sorted(fields)}

    def _log_weights(self, index: int, window_obs: ObservationSet,
                     ensemble: ParticleEnsemble,
                     rng_bias: np.random.Generator) -> np.ndarray:
        log_weights = np.empty(len(ensemble))
        for i, particle in enumerate(ensemble):
            if particle.segment is None:
                raise ValueError(
                    f"window {index}: particle {i} has no segment to weigh")
            log_weights[i] = self.observation_model.loglik(
                window_obs, particle.segment, particle.params[BIAS_PARAM],
                rng_bias)
        return log_weights


def reference_forecast(posterior: ParticleEnsemble, horizon_days: int,
                       executor: Executor | None = None, base_seed: int = 0,
                       n_per_particle: int = 1) -> Forecast:
    """:func:`~repro.inference.forecast.forecast_from_posterior` with one
    checkpoint-restart task per entry, whatever the checkpoint format.

    Same entries and continuation seeds as the production forecast, so the
    two agree in distribution (the batched engine draws in another order).
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    plan = _forecast_plan(posterior, base_seed, n_per_particle)
    return Forecast.from_trajectories(
        plan.start_day, horizon_days,
        _per_particle_forecast(plan, plan.start_day + horizon_days,
                               executor or SerialExecutor()))
