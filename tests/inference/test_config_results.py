"""Unit tests for the high-level configuration and result objects."""

import numpy as np
import pytest

from repro.core import SMCConfig
from repro.inference import CalibrationConfig, paper_calibration_config


class TestCalibrationConfig:
    def test_defaults_build_core_objects(self):
        cfg = CalibrationConfig()
        assert len(cfg.schedule()) == 4
        assert set(cfg.prior().names) == {"theta", "rho"}
        assert set(cfg.jitter().names) == {"theta", "rho"}
        assert set(cfg.observation_model().names) == {"cases", "deaths"}
        assert isinstance(cfg.smc_config(), SMCConfig)

    def test_paper_schedule_default(self):
        cfg = paper_calibration_config()
        labels = [w.label() for w in cfg.schedule()]
        assert labels == ["Days 20-33", "Days 34-47", "Days 48-61",
                          "Days 62-75"]

    def test_engine_options_carry_steps_per_day(self):
        cfg = CalibrationConfig(steps_per_day=2)
        assert cfg.smc_config().engine_options == {"steps_per_day": 2}

    def test_disease_overrides_applied(self):
        cfg = CalibrationConfig(disease_overrides={"population": 1000,
                                                   "initial_exposed": 10})
        assert cfg.disease_params().population == 1000

    def test_round_trip(self):
        cfg = CalibrationConfig(n_parameter_draws=7, sigma=2.0)
        restored = CalibrationConfig.from_dict(cfg.to_dict())
        assert restored == cfg

    def test_unknown_keys_named_in_a_value_error(self):
        payload = CalibrationConfig().to_dict()
        payload["engine"] = "binomial_leap_batched"
        payload["zz_extra"] = 1
        with pytest.raises(ValueError,
                           match=r"\['engine', 'zz_extra'\]"):
            CalibrationConfig.from_dict(payload)

    def test_temper_and_resample_policy_round_trip(self):
        cfg = CalibrationConfig(
            temper_degenerate=True, temper_threshold=0.1,
            temper_ess_floor=0.25, temper_resampler="stratified",
            resample_size_policy="ess",
            resample_size_policy_options={"target_low": 0.2,
                                          "target_high": 0.6})
        restored = CalibrationConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        smc = restored.smc_config()
        assert smc.temper_degenerate
        assert smc.temper_threshold == 0.1
        assert smc.temper_ess_floor == 0.25
        assert smc.temper_resampler == "stratified"
        assert smc.resample_size_policy == "ess"

    def test_scaled(self):
        cfg = CalibrationConfig(n_parameter_draws=100, resample_size=50)
        big = cfg.scaled(10)
        assert big.n_parameter_draws == 1000
        assert big.resample_size == 500
        assert big.n_replicates == cfg.n_replicates

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            CalibrationConfig().scaled(0)

    def test_scaled_keeps_field_types(self):
        """Scaling by 1 is the identity, and scaled configs stay hashable
        (window_breaks stays a tuple)."""
        cfg = CalibrationConfig(size_policy_options={"n_min": 10})
        assert cfg.scaled(1) == cfg
        big = cfg.scaled(2)
        assert isinstance(big.window_breaks, tuple)
        assert hash(big) == hash(CalibrationConfig(
            size_policy_options={"n_min": 10}, n_parameter_draws=1000,
            resample_size=1000))

    def test_checkpoint_keep_last_validated_up_front(self, tmp_path):
        """keep_last=0 is refused at construction, before any window could
        be computed and written."""
        with pytest.raises(ValueError, match="checkpoint_keep_last"):
            CalibrationConfig(checkpoint_dir=str(tmp_path),
                              checkpoint_keep_last=0)
        assert list(tmp_path.iterdir()) == []
        assert CalibrationConfig(checkpoint_keep_last=1) \
            .checkpoint_keep_last == 1

    def test_executor_construction(self):
        ex = CalibrationConfig(executor="serial").make_executor()
        assert ex.workers == 1

    def test_retry_policy_off_by_default(self):
        cfg = CalibrationConfig()
        assert cfg.retry_policy() is None
        assert cfg.smc_config().retry is None

    def test_retry_policy_built_from_knobs(self):
        cfg = CalibrationConfig(retry_attempts=3, retry_timeout=30.0,
                                retry_backoff=0.5)
        policy = cfg.retry_policy()
        assert policy.max_attempts == 3
        assert policy.timeout_seconds == 30.0
        assert policy.backoff_seconds == 0.5
        assert cfg.smc_config().retry == policy
        # A timeout alone also enables fault-tolerant dispatch.
        assert CalibrationConfig(retry_timeout=10.0).retry_policy() is not None

    def test_checkpoint_store_built_from_dir(self, tmp_path):
        assert CalibrationConfig().checkpoint_store() is None
        cfg = CalibrationConfig(checkpoint_dir=str(tmp_path / "ck"),
                                base_seed=7)
        store = cfg.checkpoint_store()
        assert store.run_id == "seed7"
        assert store.root == tmp_path / "ck"

    def test_fault_tolerance_round_trip(self):
        cfg = CalibrationConfig(retry_attempts=2, retry_backoff=0.1,
                                checkpoint_dir="ckpts", resume=True)
        assert CalibrationConfig.from_dict(cfg.to_dict()) == cfg


class TestCalibrationResult:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.data import PiecewiseConstant
        from repro.inference import calibrate
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth

        params = DiseaseParameters(population=30_000, initial_exposed=60)
        truth = make_ground_truth(
            params=params, horizon=30, seed=11,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))
        cfg = CalibrationConfig(window_breaks=(10, 20, 30),
                                n_parameter_draws=25, n_replicates=2,
                                resample_size=30, base_seed=2)
        return calibrate(truth.observations(include_deaths=True), cfg,
                         base_params=params)

    def test_structure(self, result):
        assert result.n_windows == 2
        assert len(result.final_posterior) == 30
        assert result.wall_time_seconds > 0

    def test_parameter_track(self, result):
        track = result.parameter_track("theta")
        assert track.means.shape == (2,)
        assert track.ci90.shape == (2, 2)
        assert np.all(track.ci90[:, 0] <= track.ci90[:, 1])
        assert track.window_labels == ("Days 10-19", "Days 20-29")

    def test_track_covers_helper(self, result):
        track = result.parameter_track("theta")
        lo, hi = track.ci90[0]
        assert track.covers(0, (lo + hi) / 2)
        assert not track.covers(0, hi + 1.0)

    def test_posterior_ribbon_spans_history(self, result):
        rib = result.posterior_ribbon("cases")
        assert rib.start_day == 0
        assert rib.n_days == 30
        assert np.all(rib.band(0.05) <= rib.band(0.95))

    def test_window_ribbon(self, result):
        rib = result.window_ribbon(1, "cases")
        assert rib.start_day == 20
        assert rib.n_days == 10

    def test_summary_and_describe(self, result):
        s = result.summary()
        assert s["n_windows"] == 2
        assert "theta" in s["parameters"]
        text = result.describe()
        assert "Days 10-19" in text

    def test_save_summary(self, result, tmp_path):
        import json
        path = tmp_path / "summary.json"
        result.save_summary(path)
        payload = json.loads(path.read_text())
        assert payload["n_windows"] == 2

    def test_ess_fractions(self, result):
        fr = result.ess_fractions()
        assert fr.shape == (2,)
        assert np.all((fr > 0) & (fr <= 1))

    def test_resample_sizes_and_tempered_windows(self, result):
        assert result.resample_sizes().tolist() == [30, 30]
        assert result.tempered_windows() == []  # tempering off by default
        s = result.summary()
        assert s["resample_sizes"] == [30, 30]
        assert s["tempered_windows"] == []

    def test_window_count_mismatch_rejected(self, result):
        from repro.inference import CalibrationResult
        with pytest.raises(ValueError):
            CalibrationResult(schedule=result.schedule,
                              windows=result.windows[:1],
                              config_payload={})

    def test_resumed_from_defaults_to_none(self, result):
        assert result.resumed_from is None
        assert result.summary()["resumed_from"] is None


class TestCalibrateCheckpointing:
    """calibrate() wiring of the durable checkpoint/resume path."""

    @pytest.fixture(scope="class")
    def truth(self):
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth

        params = DiseaseParameters(population=30_000, initial_exposed=60)
        return make_ground_truth(
            params=params, horizon=30, seed=11,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))

    def config(self, tmp_path, **overrides):
        return CalibrationConfig(window_breaks=(10, 20, 30),
                                 n_parameter_draws=25, n_replicates=2,
                                 resample_size=30, base_seed=2,
                                 checkpoint_dir=str(tmp_path / "ck"),
                                 **overrides)

    def test_resume_reproduces_run(self, truth, tmp_path):
        import numpy as np

        from repro.inference import calibrate

        first = calibrate(truth.observations(), self.config(tmp_path),
                          base_params=truth.params)
        resumed = calibrate(truth.observations(),
                            self.config(tmp_path, resume=True),
                            base_params=truth.params)
        assert first.resumed_from is None
        assert resumed.resumed_from == first.n_windows - 1
        assert resumed.summary()["resumed_from"] == first.n_windows - 1
        for wa, wb in zip(first.windows, resumed.windows):
            assert np.array_equal(wa.posterior.values("theta"),
                                  wb.posterior.values("theta"))
            assert wa.diagnostics.to_dict() == wb.diagnostics.to_dict()


class TestScenarioResultCompat:
    """Scenario-era result plumbing stays back-compatible.

    Pre-scenario artefacts (constructor calls, stored summaries,
    diagnostics payloads) never mentioned a scenario; they must keep their
    exact meaning — implicitly "baseline" — while sweep results route one
    CalibrationResult per scenario."""

    @pytest.fixture(scope="class")
    def sweep_result(self):
        from repro.core.scenarios import ScenarioOverride, ScenarioSpec
        from repro.data import PiecewiseConstant
        from repro.inference import calibrate_scenarios
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth

        params = DiseaseParameters(population=30_000, initial_exposed=60)
        truth = make_ground_truth(
            params=params, horizon=30, seed=11,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))
        mild20 = ScenarioSpec("mild20", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=20),))
        cfg = CalibrationConfig(window_breaks=(10, 20, 30),
                                n_parameter_draws=25, n_replicates=2,
                                resample_size=30, base_seed=2)
        return calibrate_scenarios(truth.observations(include_deaths=True),
                                   scenarios=("baseline", mild20),
                                   config=cfg, base_params=params)

    def test_scenario_field_defaults_to_baseline(self, sweep_result):
        from repro.inference import CalibrationResult
        ref = sweep_result[0]
        legacy = CalibrationResult(schedule=ref.schedule, windows=ref.windows,
                                   config_payload={})
        assert legacy.scenario == "baseline"
        assert legacy.summary()["scenario"] == "baseline"

    def test_summary_carries_scenario(self, sweep_result):
        assert sweep_result["baseline"].summary()["scenario"] == "baseline"
        assert sweep_result["mild20"].summary()["scenario"] == "mild20"

    def test_getitem_by_name_and_index(self, sweep_result):
        assert sweep_result.names == ["baseline", "mild20"]
        assert sweep_result[0] is sweep_result["baseline"]
        assert sweep_result[1] is sweep_result["mild20"]
        assert len(sweep_result) == 2
        assert [r.scenario for r in sweep_result] == ["baseline", "mild20"]
        with pytest.raises(KeyError, match="nope"):
            sweep_result["nope"]

    def test_duplicate_scenarios_rejected(self, sweep_result):
        from repro.inference import ScenarioSweepResult
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSweepResult(results=(sweep_result[0], sweep_result[0]))

    def test_window_zero_deduplicated(self, sweep_result):
        # mild20 only diverges at day 20: window 0 is shared work.
        assert sweep_result.computed_windows == 3
        assert sweep_result.reused_windows == 1
        assert np.array_equal(
            sweep_result["baseline"].windows[0].posterior.values("theta"),
            sweep_result["mild20"].windows[0].posterior.values("theta"))

    def test_sweep_summary_round_trip(self, sweep_result, tmp_path):
        import json
        path = tmp_path / "sweep.json"
        sweep_result.save_summary(path)
        payload = json.loads(path.read_text())
        assert payload["scenarios"] == ["baseline", "mild20"]
        assert payload["computed_windows"] == 3
        assert payload["reused_windows"] == 1
        assert payload["results"]["mild20"]["scenario"] == "mild20"

    def test_diagnostics_payload_round_trip(self, sweep_result):
        from repro.core.diagnostics import WindowDiagnostics
        diag = sweep_result[0].windows[0].diagnostics
        assert WindowDiagnostics.from_dict(diag.to_dict()) == diag

    def test_diagnostics_tolerate_pre_scenario_payloads(self, sweep_result):
        """Payloads written before the optional keys existed still load."""
        from repro.core.diagnostics import WindowDiagnostics
        payload = sweep_result[0].windows[0].diagnostics.to_dict()
        for newer in ("particle_steps", "temper_schedule", "temper_stage_ess",
                      "shard_failures", "shard_failure_causes"):
            payload.pop(newer)
        restored = WindowDiagnostics.from_dict(payload)
        assert restored.n_particles == \
            sweep_result[0].windows[0].diagnostics.n_particles
        assert restored.shard_failures == 0
        assert restored.temper_schedule == ()
