"""Tests for the batched simulation path of the sequential calibrator.

The per-particle scalar-engine calibrator of :mod:`repro.testing.reference`
is the oracle; the batched path must agree with it *distributionally*
(overlapping per-window credible intervals) while skipping the per-task
dict/JSON checkpoint round-trips entirely.
"""

import numpy as np
import pytest

from repro.core import (Beta, IndependentProduct, JointJitter,
                        SequentialCalibrator, SMCConfig, Uniform,
                        UniformJitter, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import SerialExecutor
from repro.seir import Checkpoint, DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing import ReferenceCalibrator


@pytest.fixture(scope="module")
def small_truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def calibrator(schedule, truth, engine, *, base_seed=17, executor=None,
               param_map=None, prior=None, jitter=None, n_continuations=1):
    """The production calibrator for ``"binomial_leap_batched"``, the
    per-particle reference on any scalar engine name."""
    cls, kwargs = SequentialCalibrator, {}
    if engine != "binomial_leap_batched":
        cls, kwargs = ReferenceCalibrator, {"engine": engine}
    return cls(
        base_params=truth.params,
        prior=prior or paper_first_window_prior(),
        jitter=jitter or paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=schedule,
        config=SMCConfig(n_parameter_draws=40, n_replicates=2,
                         resample_size=60, base_seed=base_seed,
                         n_continuations=n_continuations),
        executor=executor,
        param_map=param_map, **kwargs)


class TestConfig:
    def test_unknown_engine_rejected_eagerly(self, small_truth):
        with pytest.raises(ValueError, match="unknown engine"):
            calibrator(WindowSchedule.from_breaks([10, 20]), small_truth,
                       "bogus_engine")


class TestScalarBatchedParity:
    """Acceptance: batched posteriors overlap the scalar run's intervals."""

    @pytest.fixture(scope="class")
    def runs(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        obs = small_truth.observations()
        results = {}
        for engine in ("binomial_leap", "binomial_leap_batched"):
            calib = calibrator(schedule, small_truth, engine)
            results[engine] = calib.run(obs)
        return results

    def test_per_window_credible_intervals_overlap(self, runs):
        for w in range(2):
            for name in ("theta", "rho"):
                lo_s, hi_s = runs["binomial_leap"][w].posterior \
                    .credible_interval(name, 0.9)
                lo_b, hi_b = runs["binomial_leap_batched"][w].posterior \
                    .credible_interval(name, 0.9)
                assert lo_b <= hi_s and lo_s <= hi_b, (
                    f"window {w} {name}: scalar [{lo_s:.3f}, {hi_s:.3f}] vs "
                    f"batched [{lo_b:.3f}, {hi_b:.3f}] do not overlap")

    def test_posterior_means_close(self, runs):
        for w in range(2):
            t_s = runs["binomial_leap"][w].posterior.weighted_mean("theta")
            t_b = runs["binomial_leap_batched"][w].posterior \
                .weighted_mean("theta")
            assert t_b == pytest.approx(t_s, abs=0.08)

    def test_batched_particles_carry_scalar_checkpoints(self, runs):
        for result in runs["binomial_leap_batched"]:
            for p in result.posterior.particles[:5]:
                assert isinstance(p.checkpoint, Checkpoint)
                assert p.checkpoint.engine_name == "binomial_leap"
                assert p.checkpoint.day == result.window.end_day

    def test_batched_histories_contiguous(self, runs):
        final = runs["binomial_leap_batched"][-1].posterior
        for p in final.particles[:10]:
            assert p.history.start_day == 0
            assert p.history.end_day == 30
            assert p.segment.start_day == 20


class TestBatchedRunBehaviour:
    def test_reproducible_given_base_seed(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20])
        obs = small_truth.observations()
        r1 = calibrator(schedule, small_truth,
                        "binomial_leap_batched").run(obs)
        r2 = calibrator(schedule, small_truth,
                        "binomial_leap_batched").run(obs)
        assert np.array_equal(r1[0].posterior.values("theta"),
                              r2[0].posterior.values("theta"))
        assert np.array_equal(r1[0].posterior.values("rho"),
                              r2[0].posterior.values("rho"))

    def test_serial_executor_gets_one_shard_per_window(self, small_truth):
        """Auto shard policy on a serial executor: one whole-group shard
        task per window, never one task per particle."""
        class SpyExecutor(SerialExecutor):
            task_counts = []

            def map(self, fn, tasks):
                tasks = list(tasks)
                SpyExecutor.task_counts.append(len(tasks))
                return super().map(fn, tasks)

        schedule = WindowSchedule.from_breaks([10, 20, 30])
        spy = SpyExecutor()
        calibrator(schedule, small_truth, "binomial_leap_batched",
                   executor=spy).run(small_truth.observations())
        # Two windows (first + one continuation), one structural group each.
        assert SpyExecutor.task_counts == [1, 1]

    def test_burn_in_start_honoured_by_both_paths(self, small_truth):
        """Scalar and batched first windows must share the burn-in clock."""
        obs = small_truth.observations()
        histories = {}
        for engine in ("binomial_leap", "binomial_leap_batched"):
            schedule = WindowSchedule.from_breaks([12, 22], burn_in_start=4)
            result = calibrator(schedule, small_truth, engine).run(obs)[0]
            p = result.posterior[0]
            histories[engine] = p.history
            assert p.history.start_day == 4
            assert p.segment.start_day == 12
        assert histories["binomial_leap"].end_day == \
            histories["binomial_leap_batched"].end_day

    def test_multiple_continuations(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        results = calibrator(schedule, small_truth, "binomial_leap_batched",
                             n_continuations=2).run(
            small_truth.observations())
        assert len(results[-1].posterior) == 60

    def test_structural_param_map_splits_batches(self, small_truth):
        """A param_map touching a structural field still calibrates."""
        prior = IndependentProduct({
            "theta": Uniform(0.1, 0.5),
            "rho": Beta(4, 1),
            "mild": Uniform(0.85, 0.97),
        })
        jitter = JointJitter({"theta": UniformJitter.symmetric(0.05),
                              "rho": UniformJitter.symmetric(0.02),
                              "mild": UniformJitter.symmetric(0.01)})
        schedule = WindowSchedule.from_breaks([10, 20])
        calib = SequentialCalibrator(
            base_params=small_truth.params, prior=prior, jitter=jitter,
            observation_model=paper_observation_model(), schedule=schedule,
            config=SMCConfig(n_parameter_draws=8, n_replicates=2,
                             resample_size=12, base_seed=5),
            param_map={"theta": "transmission_rate",
                       "mild": "mild_fraction"})
        result = calib.run(small_truth.observations())[0]
        assert len(result.posterior) == 12
        for p in result.posterior.particles[:5]:
            # Each particle's checkpoint carries its own structural draw.
            assert p.checkpoint.params.mild_fraction == pytest.approx(
                p.params["mild"])
            assert p.checkpoint.params.transmission_rate == pytest.approx(
                p.params["theta"])



class TestScalarEngineContinuations:
    """The per-particle reference restarts each parent's own checkpoint,
    so non-leap engines calibrate across windows: parent checkpoints are
    stacked only by the production simulate seam, never while proposing."""

    @pytest.mark.parametrize("engine", ["event_driven", "gillespie"])
    def test_three_window_run(self, engine):
        params = DiseaseParameters(population=5_000, initial_exposed=20)
        truth = make_ground_truth(
            params=params, horizon=20, seed=8,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))
        calib = ReferenceCalibrator(
            base_params=params, prior=paper_first_window_prior(),
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(),
            schedule=WindowSchedule.from_breaks([8, 12, 16, 20]),
            config=SMCConfig(n_parameter_draws=6, n_replicates=2,
                             resample_size=8, base_seed=3),
            engine=engine)
        results = calib.run(truth.observations())
        assert [r.index for r in results] == [0, 1, 2]
        for result in results:
            for checkpoint in result.posterior.checkpoints():
                assert checkpoint.engine_name == engine
                assert checkpoint.day == result.window.end_day
