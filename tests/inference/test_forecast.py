"""Unit tests for posterior predictive forecasting."""

import pytest

from repro.core import (SMCConfig, SequentialCalibrator, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import SerialExecutor
from repro.inference import forecast_from_posterior
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing import reference_forecast


class SpyExecutor(SerialExecutor):
    """Serial executor recording each map's task function and count."""

    def __init__(self):
        super().__init__()
        self.maps = []

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.maps.append((fn.__name__, len(tasks)))
        return super().map(fn, tasks)


@pytest.fixture(scope="module")
def posterior():
    params = DiseaseParameters(population=30_000, initial_exposed=60)
    truth = make_ground_truth(
        params=params, horizon=20, seed=11,
        theta_schedule=PiecewiseConstant.constant(0.3),
        rho_schedule=PiecewiseConstant.constant(0.7))
    calib = SequentialCalibrator(
        base_params=params, prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks([10, 20]),
        config=SMCConfig(n_parameter_draws=15, n_replicates=2,
                         resample_size=20, base_seed=6))
    return calib.run(truth.observations())[0].posterior


class TestForecast:
    def test_horizon_and_count(self, posterior):
        fc = forecast_from_posterior(posterior, horizon_days=8)
        assert fc.start_day == 20
        assert fc.horizon_days == 8
        assert len(fc) == 20
        for traj in fc.trajectories:
            assert traj.start_day == 20
            assert len(traj) == 8

    def test_multiple_continuations_per_particle(self, posterior):
        fc = forecast_from_posterior(posterior, horizon_days=5,
                                     n_per_particle=2)
        assert len(fc) == 40

    def test_ribbon(self, posterior):
        fc = forecast_from_posterior(posterior, horizon_days=5)
        rib = fc.ribbon("cases")
        assert rib.start_day == 20
        assert rib.n_days == 5

    def test_deterministic_given_base_seed(self, posterior):
        import numpy as np
        a = forecast_from_posterior(posterior, 5, base_seed=1)
        b = forecast_from_posterior(posterior, 5, base_seed=1)
        assert np.array_equal(a.trajectories[0].infections,
                              b.trajectories[0].infections)

    def test_different_base_seed_differs(self, posterior):
        import numpy as np
        a = forecast_from_posterior(posterior, 8, base_seed=1)
        b = forecast_from_posterior(posterior, 8, base_seed=2)
        different = any(
            not np.array_equal(x.infections, y.infections)
            for x, y in zip(a.trajectories, b.trajectories))
        assert different

    def test_validation(self, posterior):
        with pytest.raises(ValueError):
            forecast_from_posterior(posterior, 0)
        with pytest.raises(ValueError):
            forecast_from_posterior(posterior, 5, n_per_particle=0)

    def test_missing_checkpoints_rejected(self):
        from repro.core import Particle, ParticleEnsemble
        bare = ParticleEnsemble([Particle(params={"theta": 0.3}, seed=1)])
        with pytest.raises(ValueError, match="checkpoint"):
            forecast_from_posterior(bare, 5)


class TestShardedBatchedForecast:
    """The batched forecast path: sharded whole-cloud restarts."""

    def test_no_per_particle_dispatch(self, posterior):
        """Acceptance: no longer one scalar task per particle — the serial
        auto policy submits a single whole-cloud shard."""
        spy = SpyExecutor()
        fc = forecast_from_posterior(posterior, horizon_days=6, executor=spy)
        assert len(fc) == len(posterior) == 20
        assert [count for _fn, count in spy.maps] == [1]

    def test_batched_is_the_auto_path(self, posterior):
        """Calibrator checkpoints are leap-format, so they forecast on the
        sharded batched path."""
        spy = SpyExecutor()
        forecast_from_posterior(posterior, 6, base_seed=3, executor=spy)
        assert [fn for fn, _count in spy.maps] == ["run_shard"]

    def test_scalar_batched_distributional_parity(self, posterior):
        """Acceptance: batched forecast overlaps the per-particle
        reference's credible intervals (paths share seeds but not draw
        order)."""
        import numpy as np
        scalar = reference_forecast(posterior, 10, base_seed=3,
                                    n_per_particle=3)
        batched = forecast_from_posterior(posterior, 10, base_seed=3,
                                          n_per_particle=3)
        for channel in ("cases", "deaths"):
            rib_s = scalar.ribbon(channel, quantiles=(0.05, 0.5, 0.95))
            rib_b = batched.ribbon(channel, quantiles=(0.05, 0.5, 0.95))
            lo_s, hi_s = rib_s.band(0.05), rib_s.band(0.95)
            lo_b, hi_b = rib_b.band(0.05), rib_b.band(0.95)
            overlap = (lo_b <= hi_s) & (lo_s <= hi_b)
            assert overlap.all(), f"{channel}: disjoint forecast bands"
            # Medians track each other within the ensemble spread.
            med_gap = np.abs(rib_s.band(0.5) - rib_b.band(0.5))
            spread = np.maximum(hi_s - lo_s, 1.0)
            assert (med_gap <= spread).all()

    def test_bit_identical_across_executors_for_fixed_layout(self, posterior):
        import numpy as np
        from repro.hpc import ProcessExecutor, SerialExecutor
        serial = forecast_from_posterior(posterior, 6, base_seed=5,
                                         shard_size=7,
                                         executor=SerialExecutor())
        with ProcessExecutor(max_workers=2) as pool:
            pooled = forecast_from_posterior(posterior, 6, base_seed=5,
                                             shard_size=7, executor=pool)
        for a, b in zip(serial.trajectories, pooled.trajectories):
            assert np.array_equal(a.infections, b.infections)
            assert np.array_equal(a.deaths, b.deaths)

    def test_shard_layout_only_rekeys_streams(self, posterior):
        """Different layouts give different bits but the same start/shape."""
        import numpy as np
        one = forecast_from_posterior(posterior, 6, base_seed=5, n_shards=1)
        many = forecast_from_posterior(posterior, 6, base_seed=5,
                                       shard_size=3)
        assert len(one) == len(many)
        assert any(not np.array_equal(a.infections, b.infections)
                   for a, b in zip(one.trajectories, many.trajectories))

    def test_shard_knob_validation(self, posterior):
        with pytest.raises(ValueError, match="not both"):
            forecast_from_posterior(posterior, 5, shard_size=4, n_shards=2)
        with pytest.raises(ValueError, match="n_shards"):
            forecast_from_posterior(posterior, 5, n_shards="3")
        with pytest.raises(ValueError, match="shard_size"):
            forecast_from_posterior(posterior, 5, shard_size=0)

    def test_explicit_batched_rejects_schedule_checkpoints(self):
        """A transmission schedule cannot ride the batched restart, so
        such checkpoints restart per particle, which carries it."""
        from repro.core import Particle, ParticleEnsemble
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters, StochasticSEIRModel

        params = DiseaseParameters(population=3000, initial_exposed=20)
        schedule = PiecewiseConstant.constant(0.25)
        particles = []
        for seed in (1, 2):
            model = StochasticSEIRModel(params, seed,
                                        theta_schedule=schedule)
            model.run_until(5)
            particles.append(Particle(params={"theta": 0.3, "rho": 0.7},
                                      seed=seed,
                                      checkpoint=model.checkpoint()))
        posterior = ParticleEnsemble(particles)
        spy = SpyExecutor()
        fc = forecast_from_posterior(posterior, 4, executor=spy)
        assert len(fc) == 2
        assert spy.maps == [("_run_continuation_task", 2)]

    def test_auto_falls_back_to_scalar_for_mixed_day_checkpoints(self):
        """Checkpoints at different days can't share a batch clock, so
        they forecast per particle."""
        from repro.core import Particle, ParticleEnsemble
        from repro.seir import DiseaseParameters, StochasticSEIRModel

        params = DiseaseParameters(population=3000, initial_exposed=20)
        particles = []
        for seed, day in ((1, 5), (2, 7)):
            model = StochasticSEIRModel(params, seed)
            model.run_until(day)
            particles.append(Particle(params={"theta": 0.3, "rho": 0.7},
                                      seed=seed,
                                      checkpoint=model.checkpoint()))
        posterior = ParticleEnsemble(particles)
        spy = SpyExecutor()
        fc = forecast_from_posterior(posterior, horizon_days=4, executor=spy)
        assert len(fc) == 2
        assert spy.maps == [("_run_continuation_task", 2)]

    def test_auto_falls_back_to_scalar_for_non_leap_checkpoints(self):
        """Non-leap checkpoints (e.g. event-driven) still forecast."""
        import numpy as np
        from repro.core import Particle, ParticleEnsemble
        from repro.seir import DiseaseParameters, StochasticSEIRModel

        params = DiseaseParameters(population=3000, initial_exposed=20)
        particles = []
        for seed in (1, 2, 3):
            model = StochasticSEIRModel(params, seed, engine="event_driven")
            model.run_until(5)
            particles.append(Particle(params={"theta": 0.3, "rho": 0.7},
                                      seed=seed,
                                      checkpoint=model.checkpoint()))
        posterior = ParticleEnsemble(particles)
        fc = forecast_from_posterior(posterior, horizon_days=4)
        assert len(fc) == 3
        assert fc.start_day == 5
        for traj in fc.trajectories:
            assert len(traj) == 4
            assert np.all(np.isfinite(traj.infections))


class TestForecastScenarios:
    """forecast_scenarios: CRN fan-out over per-scenario posteriors."""

    def test_crn_identical_posteriors_identical_forecasts(self, posterior):
        import numpy as np
        from repro.inference import forecast_scenarios
        fcs = forecast_scenarios({"a": posterior, "b": posterior},
                                 horizon_days=6, base_seed=4)
        assert list(fcs) == ["a", "b"]
        for ta, tb in zip(fcs["a"].trajectories, fcs["b"].trajectories):
            assert np.array_equal(ta.infections, tb.infections)
            assert np.array_equal(ta.deaths, tb.deaths)

    def test_canonical_sorted_order(self, posterior):
        from repro.inference import forecast_scenarios
        fcs = forecast_scenarios(
            {"zeta": posterior, "alpha": posterior, "mid": posterior},
            horizon_days=4)
        assert list(fcs) == ["alpha", "mid", "zeta"]

    def test_matches_single_scenario_call(self, posterior):
        import numpy as np
        from repro.inference import forecast_scenarios
        alone = forecast_from_posterior(posterior, 5, base_seed=9)
        swept = forecast_scenarios({"only": posterior}, 5, base_seed=9)
        for a, b in zip(alone.trajectories, swept["only"].trajectories):
            assert np.array_equal(a.infections, b.infections)


class TestColumnarForecast:
    """The forecast works on columns: vectorised seeds, restart state
    stacked once per distinct checkpoint, ribbons from channel matrices."""

    def test_entries_are_replicate_major_with_scalar_seeds(self, posterior):
        from repro.inference.forecast import _FORECAST_STREAM, _forecast_plan
        from repro.seir import mix_seed
        plan = _forecast_plan(posterior, base_seed=5, n_per_particle=3)
        assert plan.seeds.tolist() == [
            mix_seed(5, _FORECAST_STREAM, rep, j, p.seed)
            for rep in range(3) for j, p in enumerate(posterior)]
        entries = [plan.checkpoints[r] for r in plan.rows]
        assert all(a is b.checkpoint for a, b in
                   zip(entries, list(posterior) * 3))
        assert len(plan.checkpoints) == len(
            {id(p.checkpoint) for p in posterior})

    def test_trajectories_are_rows_of_the_batch(self, posterior):
        import numpy as np
        fc = forecast_from_posterior(posterior, 6, n_per_particle=2)
        assert fc.batch.n_particles == len(fc) == 40
        for i, traj in enumerate(fc.trajectories):
            assert traj.start_day == fc.batch.start_day == fc.start_day
            assert np.array_equal(traj.infections, fc.batch.infections[i])
            assert np.array_equal(traj.deaths, fc.batch.deaths[i])

    def test_ribbon_equals_the_per_trajectory_ribbon(self, posterior):
        import numpy as np
        from repro.core import trajectory_ribbon
        fc = forecast_from_posterior(posterior, 6, base_seed=2,
                                     n_per_particle=3)
        for channel in ("cases", "deaths", "hospital_census"):
            got = fc.ribbon(channel, (0.05, 0.5, 0.95))
            want = trajectory_ribbon(list(fc.trajectories), channel,
                                     (0.05, 0.5, 0.95))
            assert got.start_day == want.start_day
            assert np.array_equal(got.bands, want.bands)

    def test_mixed_day_forecast_has_no_ribbon(self):
        from repro.core import Particle, ParticleEnsemble
        from repro.seir import DiseaseParameters, StochasticSEIRModel

        params = DiseaseParameters(population=3000, initial_exposed=20)
        particles = []
        for seed, day in ((1, 5), (2, 7)):
            model = StochasticSEIRModel(params, seed)
            model.run_until(day)
            particles.append(Particle(params={"theta": 0.3}, seed=seed,
                                      checkpoint=model.checkpoint()))
        fc = forecast_from_posterior(ParticleEnsemble(particles), 4)
        assert fc.batch is None
        assert [len(t) for t in fc.trajectories] == [4, 2]
        with pytest.raises(ValueError, match="different day ranges"):
            fc.ribbon("cases")
