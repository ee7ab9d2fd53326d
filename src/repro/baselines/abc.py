"""Approximate Bayesian computation (rejection ABC) baseline.

A likelihood-free comparator: simulate from the prior, accept draws whose
trajectory lies within a tolerance of the observations under a summary
distance.  Related-work methods the paper cites (DIY-ABC, history matching)
are of this family.  Rejection ABC needs no bias model — which is precisely
why it cannot *estimate* the reporting probability unless rho is included in
the simulated summary, as done here by thinning inside the distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particle import Particle, ParticleEnsemble
from ..core.priors import IndependentProduct
from ..core.smc import BIAS_PARAM
from ..data.sources import ObservationSet
from ..hpc.executor import Executor, SerialExecutor
from ..seir.parameters import DiseaseParameters
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from ..sim.ensemble import _MemberTask, _run_member_task

__all__ = ["ABCResult", "sqrt_count_distance", "abc_rejection"]

# ABC proposes from the same prior stream as the calibrator, and its
# in-distance thinning plays the bias model's role, so both reuse the
# calibrator's purpose tags (idempotent re-registration pins the shared
# values — a re-key on either side fails loudly at import).
_PURPOSE_PRIOR = register_ancillary_purpose("smc_prior", 0)
_PURPOSE_BIAS = register_ancillary_purpose("smc_bias", 1)


def sqrt_count_distance(observed: np.ndarray, simulated: np.ndarray) -> float:
    """Root-mean-square distance on square-root counts.

    The ABC analogue of the paper's Gaussian-on-sqrt likelihood: monotone in
    the log-likelihood when windows have equal length, so acceptance regions
    align across methods.
    """
    y = np.sqrt(np.asarray(observed, dtype=np.float64))
    eta = np.sqrt(np.asarray(simulated, dtype=np.float64))
    if y.shape != eta.shape:
        raise ValueError("observed and simulated must share a shape")
    return float(np.sqrt(np.mean((y - eta) ** 2)))


@dataclass(frozen=True)
class ABCResult:
    """Accepted ABC sample and acceptance bookkeeping."""

    posterior: ParticleEnsemble | None
    n_proposals: int
    n_accepted: int
    tolerance: float
    distances: np.ndarray

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0

    def summary(self) -> dict:
        out: dict = {"acceptance_rate": self.acceptance_rate,
                     "tolerance": self.tolerance}
        if self.posterior is not None:
            for name in self.posterior.param_names:
                out[name] = {"mean": self.posterior.weighted_mean(name),
                             "ci90": self.posterior.credible_interval(name, 0.9)}
        return out


def abc_rejection(observations: ObservationSet,
                  base_params: DiseaseParameters,
                  prior: IndependentProduct,
                  *,
                  start_day: int,
                  end_day: int,
                  n_proposals: int = 1000,
                  tolerance: float | None = None,
                  accept_quantile: float = 0.05,
                  engine: str = "binomial_leap",
                  engine_options: dict | None = None,
                  param_map: dict[str, str] | None = None,
                  base_seed: int = 20240215,
                  executor: Executor | None = None) -> ABCResult:
    """Rejection ABC on the case stream over ``[start_day, end_day)``.

    Parameters
    ----------
    tolerance:
        Absolute acceptance threshold on :func:`sqrt_count_distance`; if
        ``None``, the ``accept_quantile`` empirical quantile of the proposal
        distances is used (standard practice when scales are unknown).
    """
    if not 0 < accept_quantile <= 1:
        raise ValueError("accept_quantile must be in (0, 1]")
    executor = executor or SerialExecutor()
    param_map = dict(param_map or {"theta": "transmission_rate"})
    bank = SeedSequenceBank(base_seed)
    rng_prior = bank.ancillary_generator(_PURPOSE_PRIOR)
    rng_thin = bank.ancillary_generator(_PURPOSE_BIAS)

    draws = prior.sample(n_proposals, rng_prior)
    seeds = bank.common_replicate_seeds(n_proposals)
    cases_obs = observations["cases"].series.window(start_day, end_day)

    tasks = []
    for i in range(n_proposals):
        draw = {name: float(draws[name][i]) for name in prior.names}
        params = base_params.with_updates(
            **{fld: draw[name] for name, fld in param_map.items()})
        tasks.append(_MemberTask(
            params_payload=params.to_dict(), seed=seeds[i], end_day=end_day,
            engine=engine, engine_options=dict(engine_options or {})))
    outputs = executor.map(_run_member_task, tasks)

    distances = np.empty(n_proposals)
    particles = []
    for i, trajectory in enumerate(outputs):
        draw = {name: float(draws[name][i]) for name in prior.names}
        true_counts = trajectory.series("cases").window(start_day, end_day)
        rho = draw[BIAS_PARAM]
        thinned = rng_thin.binomial(
            np.rint(true_counts.values).astype(np.int64), rho).astype(np.float64)
        distances[i] = sqrt_count_distance(cases_obs.values, thinned)
        particles.append(Particle(params=draw, seed=seeds[i],
                                  segment=trajectory.window(start_day, end_day),
                                  history=trajectory))

    eps = float(tolerance) if tolerance is not None else \
        float(np.quantile(distances, accept_quantile))
    accepted = [p for p, d in zip(particles, distances) if d <= eps]
    posterior = ParticleEnsemble(accepted) if accepted else None
    return ABCResult(posterior=posterior, n_proposals=n_proposals,
                     n_accepted=len(accepted), tolerance=eps,
                     distances=distances)
