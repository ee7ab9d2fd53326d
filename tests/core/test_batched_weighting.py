"""Unit tests for the vectorized ensemble weighting subsystem.

Covers the batched stack end to end: ``BinomialBiasModel.apply_batch``,
``Likelihood.loglik_batch`` for all three families,
``ParticleEnsemble.segment_matrix``, ``ObservationModel.loglik_ensemble``,
and the calibrator-level parity of the batched path against the scalar
reference implementation.
"""

import numpy as np
import pytest

from repro.core import (BinomialBiasModel, GaussianTransformLikelihood,
                        Likelihood, NegativeBinomialLikelihood, Particle,
                        ParticleEnsemble, PoissonLikelihood, SMCConfig,
                        paper_likelihood, paper_observation_model)
from repro.data import CASES, DEATHS, ObservationSet, ObservationSource, TimeSeries
from repro.seir import Trajectory

ALL_FAMILIES = [paper_likelihood(), GaussianTransformLikelihood(sigma=2.5),
                PoissonLikelihood(), NegativeBinomialLikelihood(dispersion=3.0)]


def count_matrix(rng, n=20, d=14, hi=400):
    return rng.integers(0, hi, size=(n, d)).astype(np.float64)


def make_ensemble(rng, n=20, d=14, start=10):
    """Particles whose segments carry random case/death counts."""
    particles = []
    for i in range(n):
        traj = Trajectory(start,
                          rng.integers(0, 300, size=d).astype(float),
                          rng.integers(0, 9, size=d).astype(float),
                          np.zeros(d), np.zeros(d))
        particles.append(Particle(
            params={"theta": 0.2 + 0.01 * i, "rho": 0.3 + 0.02 * (i % 30)},
            seed=i, segment=traj))
    return ParticleEnsemble(particles)


def make_observations(rng, d=14, start=10):
    return ObservationSet.of(
        ObservationSource(CASES, TimeSeries(start, rng.integers(0, 200, size=d)),
                          channel=CASES, biased=True),
        ObservationSource(DEATHS, TimeSeries(start, rng.integers(0, 6, size=d)),
                          channel=DEATHS, biased=False))


class TestApplyBatch:
    def test_mean_mode_matches_per_particle(self, rng):
        counts = count_matrix(rng)
        rho = rng.uniform(0.1, 1.0, size=counts.shape[0])
        m = BinomialBiasModel("mean")
        batched = m.apply_batch(counts, rho)
        rows = np.vstack([m.apply(counts[i], rho[i]) for i in range(len(rho))])
        assert np.array_equal(batched, rows)

    def test_sample_mode_bit_matches_sequential_loop(self, rng):
        """The draw-order contract: one batched call consumes the stream
        exactly as a particle-major sequential loop would."""
        counts = count_matrix(rng)
        rho = rng.uniform(0.1, 1.0, size=counts.shape[0])
        m = BinomialBiasModel("sample")
        r1 = np.random.Generator(np.random.PCG64(7))
        r2 = np.random.Generator(np.random.PCG64(7))
        batched = m.apply_batch(counts, rho, r1)
        rows = np.vstack([m.apply(counts[i], rho[i], r2)
                          for i in range(len(rho))])
        assert np.array_equal(batched, rows)

    def test_sample_bounded_by_true(self, rng):
        counts = count_matrix(rng)
        rho = rng.uniform(0.1, 1.0, size=counts.shape[0])
        out = BinomialBiasModel("sample").apply_batch(counts, rho, rng)
        assert np.all(out >= 0)
        assert np.all(out <= counts)

    def test_sample_requires_rng(self, rng):
        with pytest.raises(ValueError, match="rng"):
            BinomialBiasModel("sample").apply_batch(
                count_matrix(rng), np.full(20, 0.5))

    def test_matrix_shape_enforced(self, rng):
        with pytest.raises(ValueError, match="n_particles, n_days"):
            BinomialBiasModel("mean").apply_batch(np.zeros(5), np.full(5, 0.5))

    def test_rho_per_particle_enforced(self, rng):
        counts = count_matrix(rng, n=6)
        with pytest.raises(ValueError, match="one entry per particle"):
            BinomialBiasModel("mean").apply_batch(counts, np.full(4, 0.5))

    def test_rho_range_validated(self, rng):
        counts = count_matrix(rng, n=3)
        for bad in (0.0, -0.2, 1.3):
            rho = np.array([0.5, bad, 0.7])
            with pytest.raises(ValueError, match="rho"):
                BinomialBiasModel("mean").apply_batch(counts, rho)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BinomialBiasModel("mean").apply_batch(
                np.array([[1.0, -2.0]]), np.array([0.5]))


class TestLoglikBatch:
    @pytest.mark.parametrize("lik", ALL_FAMILIES, ids=repr)
    def test_matches_scalar_rows(self, lik, rng):
        y = rng.integers(0, 300, size=14).astype(float)
        eta = count_matrix(rng, n=25)
        batched = lik.loglik_batch(y, eta)
        scalar = np.array([lik.loglik(y, row) for row in eta])
        assert batched.shape == (25,)
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    def test_base_class_fallback_loops(self, rng):
        class Odd(Likelihood):
            def loglik(self, observed, simulated):
                return float(-np.abs(observed - simulated).sum())

        y = rng.integers(0, 50, size=5).astype(float)
        eta = count_matrix(rng, n=4, d=5, hi=50)
        out = Odd().loglik_batch(y, eta)
        assert np.allclose(out, [Odd().loglik(y, row) for row in eta])

    def test_day_axis_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="day-axis"):
            paper_likelihood().loglik_batch(np.zeros(3), np.zeros((4, 5)))

    def test_matrix_required(self):
        with pytest.raises(ValueError, match="n_particles, n_days"):
            paper_likelihood().loglik_batch(np.zeros(3), np.zeros(3))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            paper_likelihood().loglik_batch(np.zeros(0), np.zeros((4, 0)))


class TestSegmentMatrix:
    def test_stacks_channel_values(self, rng):
        ens = make_ensemble(rng, n=7, d=10)
        mat = ens.segment_matrix(CASES)
        assert mat.shape == (7, 10)
        for i, p in enumerate(ens):
            assert np.array_equal(mat[i], p.segment.infections)

    def test_windowing(self, rng):
        ens = make_ensemble(rng, n=4, d=10, start=20)
        mat = ens.segment_matrix(DEATHS, 23, 27)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat[0], ens[0].segment.deaths[3:7])

    def test_missing_segment_rejected(self):
        ens = ParticleEnsemble([Particle(params={"rho": 0.5}, seed=0)])
        with pytest.raises(ValueError, match="missing segment"):
            ens.segment_matrix(CASES)

    def test_uncovered_window_rejected(self, rng):
        ens = make_ensemble(rng, n=3, d=10, start=20)
        with pytest.raises(ValueError, match="does not cover"):
            ens.segment_matrix(CASES, 18, 25)

    def test_unknown_channel_rejected(self, rng):
        ens = make_ensemble(rng, n=2)
        with pytest.raises(KeyError, match="unknown channel"):
            ens.segment_matrix("r_effective")


class TestLoglikEnsemble:
    def test_mean_mode_matches_scalar_loglik(self, rng):
        ens = make_ensemble(rng, n=30)
        obs = make_observations(rng)
        om = paper_observation_model(bias_mode="mean")
        rho = ens.values("rho")
        batched = om.loglik_ensemble(obs, ens, rho, rng)
        scalar = np.array([om.loglik(obs, p.segment, p.params["rho"], rng)
                           for p in ens])
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    def test_sample_mode_matches_scalar_with_single_biased_source(self, rng):
        """One biased source: source-major and particle-major draw orders
        coincide, so under a shared seed the paths consume identical thinning
        draws and agree up to float reduction order."""
        ens = make_ensemble(rng, n=30)
        obs = make_observations(rng)
        om = paper_observation_model(bias_mode="sample")
        r1 = np.random.Generator(np.random.PCG64(11))
        r2 = np.random.Generator(np.random.PCG64(11))
        batched = om.loglik_ensemble(obs, ens, ens.values("rho"), r1)
        scalar = np.array([om.loglik(obs, p.segment, p.params["rho"], r2)
                           for p in ens])
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    def test_unconfigured_stream_rejected(self, rng):
        ens = make_ensemble(rng)
        obs = make_observations(rng).with_source(ObservationSource(
            "icu", TimeSeries(10, np.zeros(14)), channel="icu_census",
            biased=False))
        om = paper_observation_model(bias_mode="mean")
        with pytest.raises(KeyError, match="no SourceModel"):
            om.loglik_ensemble(obs, ens, ens.values("rho"), rng)

    def test_rho_length_enforced(self, rng):
        ens = make_ensemble(rng, n=8)
        obs = make_observations(rng)
        om = paper_observation_model(bias_mode="mean")
        with pytest.raises(ValueError, match="one entry per particle"):
            om.loglik_ensemble(obs, ens, np.full(5, 0.5), rng)


class TestCalibratorParity:
    @pytest.fixture(scope="class")
    def truth(self):
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth
        params = DiseaseParameters(population=50_000, initial_exposed=100)
        return make_ground_truth(params=params, horizon=32, seed=99,
                                 theta_schedule=PiecewiseConstant.constant(0.30),
                                 rho_schedule=PiecewiseConstant.constant(0.7))

    def run(self, truth, weighting, bias_mode, seed=31):
        """Production run, or (``weighting="scalar"``) the reference
        calibrator weighing per particle over the production simulation."""
        from repro.core import (SequentialCalibrator, WindowSchedule,
                                paper_first_window_prior, paper_window_jitter)
        from repro.testing import ReferenceCalibrator
        cls, kwargs = SequentialCalibrator, {}
        if weighting == "scalar":
            cls, kwargs = ReferenceCalibrator, {"engine": None}
        calib = cls(
            base_params=truth.params,
            prior=paper_first_window_prior(),
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(bias_mode=bias_mode),
            schedule=WindowSchedule.from_breaks([10, 20, 30]),
            config=SMCConfig(n_parameter_draws=25, n_replicates=2,
                             resample_size=30, base_seed=seed), **kwargs)
        return calib.run(truth.observations())

    @pytest.mark.parametrize("bias_mode", ["mean", "sample"])
    def test_batched_equals_scalar_reference(self, truth, bias_mode):
        """The paper model has one biased source, so the batched path and
        the scalar oracle consume identical thinning draws and produce the
        same resampled posterior under a fixed base seed."""
        batched = self.run(truth, "batched", bias_mode)
        scalar = self.run(truth, "scalar", bias_mode)
        for b, s in zip(batched, scalar):
            assert np.array_equal(b.posterior.values("theta"),
                                  s.posterior.values("theta"))
            assert np.array_equal(b.posterior.values("rho"),
                                  s.posterior.values("rho"))
            assert b.diagnostics.ess == pytest.approx(s.diagnostics.ess,
                                                      rel=1e-12)

    def test_batched_run_bit_reproducible(self, truth):
        r1 = self.run(truth, "batched", "sample")
        r2 = self.run(truth, "batched", "sample")
        for a, b in zip(r1, r2):
            assert np.array_equal(a.posterior.values("theta"),
                                  b.posterior.values("theta"))
            assert np.array_equal(a.posterior.seeds(), b.posterior.seeds())
