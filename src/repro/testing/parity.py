"""Parity oracles: assert two calibration artefacts are bit-identical.

The scenario-vectorization guarantees (``docs/scenarios.md``) are all
phrased as bitwise identities: a scenario calibrated inside a sweep must
equal the same scenario calibrated alone; an N=1 sweep must equal the
plain batched calibrator; a retried or killed-and-resumed sweep must equal
an uninterrupted one.  These helpers state those identities once, so every
suite (parity oracles, property tests, chaos tests) asserts the same
thing with the same tolerance — none.

Execution metadata is deliberately excluded from the comparison: a
retried run records its recovered shard failures in
``WindowDiagnostics.shard_failures`` / ``shard_failure_causes`` while its
statistical state stays bit-identical to a fault-free run, so those two
keys are stripped before diagnostics are compared
(:func:`statistical_diagnostics`).

The module also ships the standard small parity environment — a
town-scale ground truth and calibrator/sweep factories with a pinned
shard layout — so oracle suites across files exercise identical inputs.
"""

from __future__ import annotations

from typing import Mapping

from numpy import array_equal, generic, ndarray

from ..core import (SequentialCalibrator, SMCConfig, WindowSchedule,
                    paper_first_window_prior, paper_observation_model,
                    paper_window_jitter)
from ..core.scenarios import ScenarioSweep
from ..data import PiecewiseConstant
from ..seir import DiseaseParameters
from ..sim import make_ground_truth
from .reference import ReferenceCalibrator

__all__ = [
    "assert_trajectories_identical",
    "assert_particles_identical",
    "assert_ensembles_identical",
    "assert_window_results_identical",
    "assert_runs_identical",
    "statistical_diagnostics",
    "parity_truth",
    "parity_config",
    "parity_calibrator",
    "parity_sweep",
]

#: Trajectory channels compared bitwise by the oracles.
_CHANNELS = ("infections", "deaths", "hospital_census", "icu_census")

#: Diagnostics keys that record *how* a window was executed rather than
#: *what* it computed; legitimately differ between bit-identical runs.
_EXECUTION_METADATA = ("shard_failures", "shard_failure_causes")


def _where(context: str) -> str:
    return f" ({context})" if context else ""


def _normalised(value):
    """Recursively convert numpy containers so ``==`` is bitwise equality."""
    if isinstance(value, ndarray):
        return value.tolist()
    if isinstance(value, generic):
        return value.item()
    if isinstance(value, Mapping):
        return {key: _normalised(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalised(item) for item in value]
    return value


# --------------------------------------------------------------------- #
# assertions
# --------------------------------------------------------------------- #
def assert_trajectories_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two trajectories (or both absent)."""
    where = _where(context)
    if a is None or b is None:
        assert a is None and b is None, f"trajectory presence differs{where}"
        return
    assert a.start_day == b.start_day, (
        f"start days differ{where}: {a.start_day} != {b.start_day}")
    for channel in _CHANNELS:
        left, right = getattr(a, channel), getattr(b, channel)
        assert left.shape == right.shape and array_equal(left, right), (
            f"channel {channel!r} differs{where}")


def assert_particles_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two particles including their checkpoints."""
    where = _where(context)
    assert a.params == b.params, (
        f"params differ{where}: {a.params} != {b.params}")
    assert a.seed == b.seed, f"seeds differ{where}: {a.seed} != {b.seed}"
    assert a.log_weight == b.log_weight, (
        f"log-weights differ{where}: {a.log_weight} != {b.log_weight}")
    assert a.ancestor == b.ancestor, (
        f"ancestors differ{where}: {a.ancestor} != {b.ancestor}")
    assert_trajectories_identical(a.segment, b.segment,
                                  f"{context} segment".strip())
    assert_trajectories_identical(a.history, b.history,
                                  f"{context} history".strip())
    if a.checkpoint is None or b.checkpoint is None:
        assert a.checkpoint is None and b.checkpoint is None, (
            f"checkpoint presence differs{where}")
        return
    assert (_normalised(a.checkpoint.to_dict())
            == _normalised(b.checkpoint.to_dict())), (
        f"checkpoints differ{where}")


def assert_ensembles_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two particle ensembles, member by member."""
    assert len(a) == len(b), (
        f"ensemble sizes differ{_where(context)}: {len(a)} != {len(b)}")
    for i, (pa, pb) in enumerate(zip(a, b)):
        assert_particles_identical(pa, pb, f"{context} particle {i}".strip())


def statistical_diagnostics(diagnostics) -> dict:
    """Diagnostics dict with execution metadata stripped for comparison."""
    payload = diagnostics.to_dict()
    for key in _EXECUTION_METADATA:
        payload.pop(key, None)
    return payload


def assert_window_results_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two window results, modulo execution metadata."""
    where = _where(context)
    assert a.index == b.index, (
        f"window indices differ{where}: {a.index} != {b.index}")
    assert a.window == b.window, (
        f"windows differ{where}: {a.window} != {b.window}")
    assert statistical_diagnostics(a.diagnostics) == \
        statistical_diagnostics(b.diagnostics), (
        f"diagnostics differ{where} at window {a.index}")
    assert_ensembles_identical(a.posterior, b.posterior,
                               f"{context} window {a.index}".strip())


def assert_runs_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two full window-result sequences."""
    a, b = list(a), list(b)
    assert len(a) == len(b), (
        f"window counts differ{_where(context)}: {len(a)} != {len(b)}")
    for wa, wb in zip(a, b):
        assert_window_results_identical(wa, wb, context)


# --------------------------------------------------------------------- #
# the standard small parity environment
# --------------------------------------------------------------------- #
def parity_truth(population: int = 50_000, horizon: int = 35,
                 seed: int = 555):
    """Town-scale ground truth shared by the parity suites.

    Small enough that a full four-window calibration at the
    :func:`parity_config` sizes runs in well under a second, large enough
    that the binomial-leap dynamics are non-degenerate.
    """
    params = DiseaseParameters(population=population, initial_exposed=100)
    return make_ground_truth(params=params, horizon=horizon, seed=seed,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def parity_config(base_seed: int = 17, **config_kwargs) -> SMCConfig:
    """Small config with the fixed shard layout the oracles pin.

    ``n_shards=3`` (unless overridden) keeps shard boundaries identical
    across serial and pooled executors, so cross-executor comparisons are
    bitwise rather than merely statistical.
    """
    config_kwargs.setdefault("n_shards", 3)
    return SMCConfig(n_parameter_draws=30, n_replicates=2, resample_size=40,
                     base_seed=base_seed, **config_kwargs)


_PARITY_BREAKS = (8, 16, 24, 32)


def parity_calibrator(truth, *, scenario=None, executor=None,
                      breaks=_PARITY_BREAKS, base_seed: int = 17,
                      progress=None, engine: str | None = None,
                      **config_kwargs) -> SequentialCalibrator:
    """A single-scenario calibrator over the standard parity environment.

    ``engine`` names a scalar engine to build the per-particle
    :class:`~repro.testing.reference.ReferenceCalibrator` on instead of
    the production calibrator.
    """
    cls, extra = SequentialCalibrator, {}
    if engine is not None:
        cls, extra = ReferenceCalibrator, {"engine": engine}
    return cls(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        config=parity_config(base_seed, **config_kwargs),
        executor=executor, progress=progress, scenario=scenario, **extra)


def parity_sweep(truth, scenarios, *, executor=None, breaks=_PARITY_BREAKS,
                 base_seed: int = 17, progress=None,
                 **config_kwargs) -> ScenarioSweep:
    """A multi-scenario sweep over the same environment and shard layout."""
    return ScenarioSweep(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        scenarios=scenarios,
        config=parity_config(base_seed, **config_kwargs),
        executor=executor, progress=progress)
