"""Scenario axis: registry/spec units plus the parity-oracle suite.

Oracle guarantees under test (``docs/scenarios.md``):

(a) an N=1 sweep is **bit-identical** to the existing batched calibrator
    run without any scenario machinery;
(b) scenario *k* calibrated inside a multi-scenario sweep is
    **bit-identical** to scenario *k* calibrated alone — on the serial
    executor AND a process pool, under the pinned shard layout;
(c) a scenario's batched posterior agrees **distributionally** with the
    per-particle scalar-engine reference run of the same scenario.

Plus the world-line deduplication contract: scenarios sharing streams and
effective parameters through a window prefix share those windows' result
objects; lines split at divergence and never re-merge; independent-stream
scenarios never share.
"""

import numpy as np
import pytest

from repro.core.scenarios import (SCENARIO_SETS, SCENARIOS, ScenarioOverride,
                                  ScenarioRegistry, ScenarioSpec,
                                  get_scenario, register_scenario,
                                  scenario_set)
from repro.data import PiecewiseConstant
from repro.hpc import ProcessExecutor, SerialExecutor
from repro.hpc.sharding import (GroupSpec, simulate_group_sets,
                                simulate_groups)
from repro.seir import CheckpointError, DiseaseParameters
from repro.testing import (assert_runs_identical, parity_calibrator,
                           parity_sweep, parity_truth)

# Mid-run overrides aligned with the parity breaks (8, 16, 24, 32):
# continuation windows start at days 16 and 24.
MILD16 = ScenarioSpec(
    "mild16", overrides=(
        ScenarioOverride("mild_fraction", 0.97, start_day=16),))
DETECT24 = ScenarioSpec(
    "detect24", overrides=(
        ScenarioOverride("detected_rel_infectiousness", 0.05, start_day=24),))
INDEP_MIRROR = ScenarioSpec("indep-mirror", independent_streams=True)


@pytest.fixture(scope="module")
def truth():
    return parity_truth()


@pytest.fixture(scope="module")
def sweep_and_results(truth):
    sweep = parity_sweep(truth, ["baseline", MILD16, DETECT24])
    return sweep, sweep.run(truth.observations())


# --------------------------------------------------------------------- #
# units
# --------------------------------------------------------------------- #
class TestScenarioOverride:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown DiseaseParameters"):
            ScenarioOverride("not_a_field", 1.0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScenarioOverride("mild_fraction", float("nan"))
        with pytest.raises(ValueError, match="finite"):
            ScenarioOverride("mild_fraction", float("inf"))

    def test_negative_start_day_rejected(self):
        with pytest.raises(ValueError, match="start_day"):
            ScenarioOverride("mild_fraction", 0.9, start_day=-1)

    def test_structural_field_only_at_day_zero(self):
        ScenarioOverride("population", 10_000, start_day=0)  # fine
        with pytest.raises(ValueError, match="checkpoint-restart knobs"):
            ScenarioOverride("population", 10_000, start_day=10)

    def test_integer_field_requires_integral_value(self):
        with pytest.raises(ValueError, match="integer field"):
            ScenarioOverride("initial_exposed", 40.5)
        assert ScenarioOverride("initial_exposed", 40.0).coerced() == 40
        assert isinstance(ScenarioOverride("initial_exposed", 40).coerced(),
                          int)

    def test_to_dict(self):
        d = ScenarioOverride("mild_fraction", 0.97, start_day=16).to_dict()
        assert d == {"field": "mild_fraction", "value": 0.97,
                     "start_day": 16}


class TestScenarioSpec:
    def test_name_must_be_slug(self):
        for bad in ("", "has space", "has/slash", "ünïcode"):
            with pytest.raises(ValueError, match="slug"):
                ScenarioSpec(bad)

    def test_overrides_canonically_ordered(self):
        a = ScenarioSpec("s", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),
            ScenarioOverride("transmission_rate", 0.2, start_day=0)))
        b = ScenarioSpec("s", overrides=tuple(reversed(a.overrides)))
        assert a == b
        assert [o.start_day for o in a.overrides] == [0, 16]

    def test_duplicate_field_day_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            ScenarioSpec("s", overrides=(
                ScenarioOverride("mild_fraction", 0.97, start_day=16),
                ScenarioOverride("mild_fraction", 0.95, start_day=16)))

    def test_params_at_applies_reached_overrides(self):
        base = DiseaseParameters(population=20_000, initial_exposed=40)
        spec = MILD16
        assert spec.params_at(0, base) is base  # bit-for-bit: same object
        assert spec.params_at(15, base) is base
        after = spec.params_at(16, base)
        assert after.mild_fraction == 0.97
        assert after.population == base.population

    def test_later_start_day_wins_per_field(self):
        base = DiseaseParameters(population=20_000, initial_exposed=40)
        spec = ScenarioSpec("s", overrides=(
            ScenarioOverride("mild_fraction", 0.95, start_day=16),
            ScenarioOverride("mild_fraction", 0.99, start_day=24)))
        assert spec.params_at(16, base).mild_fraction == 0.95
        assert spec.params_at(24, base).mild_fraction == 0.99
        assert spec.override_days() == (16, 24)

    def test_is_baseline(self):
        assert ScenarioSpec("plain").is_baseline
        assert not MILD16.is_baseline
        assert not INDEP_MIRROR.is_baseline

    def test_stream_key_deterministic_per_name(self):
        assert ScenarioSpec("x").stream_key == ScenarioSpec("x").stream_key
        assert ScenarioSpec("x").stream_key != ScenarioSpec("y").stream_key

    def test_from_field_schedule(self):
        sched = PiecewiseConstant(breakpoints=(16, 24), values=(0.3, 0.25, 0.2))
        spec = ScenarioSpec.from_field_schedule("taper", "transmission_rate",
                                                sched)
        assert [(o.start_day, o.value) for o in spec.overrides] == [
            (0, 0.3), (16, 0.25), (24, 0.2)]

    def test_fingerprint_through_is_prefix(self):
        assert MILD16.fingerprint_through(0) == ()
        assert MILD16.fingerprint_through(16) == (("mild_fraction", 16, 0.97),)
        payload = MILD16.fingerprint_payload()
        assert payload["name"] == "mild16"
        assert payload["overrides"][0]["field"] == "mild_fraction"


class TestScenarioRegistry:
    def test_register_get_roundtrip(self):
        reg = ScenarioRegistry()
        spec = reg.register(MILD16)
        assert reg.get("mild16") is spec
        assert "mild16" in reg and len(reg) == 1

    def test_identical_reregistration_is_noop(self):
        reg = ScenarioRegistry()
        reg.register(MILD16)
        again = ScenarioSpec("mild16", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),))
        assert reg.register(again) is reg.get("mild16")

    def test_rebinding_a_name_rejected(self):
        reg = ScenarioRegistry()
        reg.register(MILD16)
        with pytest.raises(ValueError, match="cannot be rebound"):
            reg.register(ScenarioSpec("mild16"))

    def test_unknown_name_lists_registered(self):
        reg = ScenarioRegistry()
        reg.register(MILD16)
        with pytest.raises(KeyError, match="mild16"):
            reg.get("nope")

    def test_names_sorted(self):
        reg = ScenarioRegistry()
        reg.register(ScenarioSpec("zz"))
        reg.register(ScenarioSpec("aa"))
        assert reg.names() == ["aa", "zz"]
        assert [s.name for s in reg] == ["aa", "zz"]

    def test_builtins_registered(self):
        for name in ("baseline", "milder_variant_d34",
                     "late_intervention_d48", "relaxed_detection_d48"):
            assert name in SCENARIOS
            assert get_scenario(name) is register_scenario(get_scenario(name))
        assert get_scenario("baseline").is_baseline

    def test_default_scenario_set(self):
        specs = scenario_set("default")
        assert [s.name for s in specs] == sorted(SCENARIO_SETS["default"])
        with pytest.raises(KeyError, match="unknown scenario set"):
            scenario_set("nope")


class TestCalibratorScenarioValidation:
    def test_override_day_must_sit_on_continuation_boundary(self, truth):
        off_grid = ScenarioSpec("off-grid", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=10),))
        with pytest.raises(ValueError, match="window"):
            parity_calibrator(truth, scenario=off_grid)

    def test_override_cannot_collide_with_param_map(self, truth):
        # theta already drives transmission_rate via the default param_map.
        clash = ScenarioSpec("clash", overrides=(
            ScenarioOverride("transmission_rate", 0.25, start_day=16),))
        with pytest.raises(ValueError, match="param_map"):
            parity_calibrator(truth, scenario=clash)

    def test_sweep_rejects_conflicting_duplicate_names(self, truth):
        other = ScenarioSpec("mild16", overrides=(
            ScenarioOverride("mild_fraction", 0.95, start_day=16),))
        with pytest.raises(ValueError, match="both named"):
            parity_sweep(truth, [MILD16, other])

    def test_sweep_needs_a_scenario(self, truth):
        with pytest.raises(ValueError, match="at least one"):
            parity_sweep(truth, [])


class TestRunFingerprint:
    def test_baseline_fingerprints_like_no_scenario(self, truth):
        plain = parity_calibrator(truth)
        base = parity_calibrator(truth, scenario=get_scenario("baseline"))
        assert plain.run_fingerprint() == base.run_fingerprint()
        assert "scenario" not in plain.run_fingerprint()

    def test_non_baseline_fingerprint_carries_scenario(self, truth):
        fp = parity_calibrator(truth, scenario=MILD16).run_fingerprint()
        assert fp["scenario"]["name"] == "mild16"

    def test_store_refuses_other_scenario(self, truth, tmp_path):
        from repro.hpc import CheckpointStore
        store = CheckpointStore(tmp_path)
        store.validate_run_meta(
            parity_calibrator(truth, scenario=MILD16).run_fingerprint())
        with pytest.raises(CheckpointError, match="different run"):
            store.validate_run_meta(parity_calibrator(truth).run_fingerprint())


# --------------------------------------------------------------------- #
# parity oracles
# --------------------------------------------------------------------- #
class TestParityOracles:
    def test_oracle_a_n1_sweep_matches_plain_batched(self, truth):
        """N=1 tensor path == the pre-existing batched calibrator, bitwise."""
        plain = parity_calibrator(truth).run(truth.observations())
        sweep = parity_sweep(truth, ["baseline"])
        results = sweep.run(truth.observations())
        assert_runs_identical(plain, results["baseline"], "oracle a")
        assert sweep.reused_windows == 0

    def test_oracle_b_batch_member_matches_standalone(self, truth,
                                                      sweep_and_results):
        """Scenario k inside a batch == scenario k alone, bitwise."""
        _sweep, results = sweep_and_results
        for spec in (None, MILD16, DETECT24):
            name = "baseline" if spec is None else spec.name
            alone = parity_calibrator(truth, scenario=spec).run(
                truth.observations())
            assert_runs_identical(alone, results[name], f"oracle b {name}")

    def test_oracle_b_process_pool_matches_serial(self, truth,
                                                  sweep_and_results):
        """The flattened cross-scenario dispatch is executor-invariant
        under the pinned shard layout."""
        _sweep, serial_results = sweep_and_results
        with ProcessExecutor(max_workers=2) as pool:
            pooled = parity_sweep(truth, ["baseline", MILD16, DETECT24],
                                  executor=pool).run(truth.observations())
        for name in ("baseline", "mild16", "detect24"):
            assert_runs_identical(serial_results[name], pooled[name],
                                  f"process-pool {name}")

    def test_oracle_c_scalar_engine_distributional_parity(self, truth,
                                                          sweep_and_results):
        """Batched scenario posteriors overlap the scalar oracle's 90% CIs
        (the engines share no bitstream, so parity is distributional)."""
        _sweep, results = sweep_and_results
        scalar = parity_calibrator(
            truth, scenario=MILD16, engine="binomial_leap",
            executor=SerialExecutor()).run(truth.observations())
        for w, (ws, wb) in enumerate(zip(scalar, results["mild16"])):
            for name in ("theta", "rho"):
                lo_s, hi_s = ws.posterior.credible_interval(name, 0.9)
                lo_b, hi_b = wb.posterior.credible_interval(name, 0.9)
                assert lo_b <= hi_s and lo_s <= hi_b, (
                    f"window {w} {name}: scalar [{lo_s:.3f}, {hi_s:.3f}] vs "
                    f"batched [{lo_b:.3f}, {hi_b:.3f}] do not overlap")


class TestWorldLineDedup:
    def test_shared_prefix_windows_are_shared_objects(self, sweep_and_results):
        sweep, results = sweep_and_results
        # All three scenarios agree through day 16 -> window 0 is one object.
        assert results["baseline"][0] is results["mild16"][0]
        assert results["baseline"][0] is results["detect24"][0]
        # mild16 diverges at day 16 (window 1); detect24 still matches
        # baseline until day 24.
        assert results["baseline"][1] is not results["mild16"][1]
        assert results["baseline"][1] is results["detect24"][1]
        assert results["baseline"][2] is not results["detect24"][2]

    def test_dedup_counters(self, sweep_and_results):
        sweep, _results = sweep_and_results
        # window 0: 1 line/3 scenarios; window 1: 2 lines (mild16 split);
        # window 2: 3 lines (detect24 split) -> 6 computed, 3 reused.
        assert sweep.computed_windows == 6
        assert sweep.reused_windows == 3

    def test_lines_never_remerge_after_divergence(self, truth):
        """Equal parameters after a transient override do NOT re-merge:
        diverged state stays diverged."""
        transient = ScenarioSpec("transient", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),
            ScenarioOverride("mild_fraction", 0.92, start_day=24)))
        base = DiseaseParameters(population=50_000, initial_exposed=100)
        # By day 24 the transient scenario's effective params equal the
        # baseline's again...
        assert transient.params_at(24, base).mild_fraction == \
            base.mild_fraction
        sweep = parity_sweep(truth, ["baseline", transient])
        results = sweep.run(truth.observations())
        # ...yet window 2 is computed separately (lineage diverged at w1).
        assert results["baseline"][2] is not results["transient"][2]
        assert sweep.computed_windows == 5  # w0 shared; w1, w2 split

    def test_independent_streams_never_share(self, truth):
        sweep = parity_sweep(truth, ["baseline", INDEP_MIRROR])
        results = sweep.run(truth.observations())
        assert sweep.reused_windows == 0
        # Same world, different streams: results genuinely differ.
        assert not np.array_equal(
            results["baseline"][0].posterior.values("theta"),
            results["indep-mirror"][0].posterior.values("theta"))

    def test_independent_scenario_reproducible(self, truth):
        a = parity_sweep(truth, [INDEP_MIRROR]).run(truth.observations())
        b = parity_calibrator(truth, scenario=INDEP_MIRROR).run(
            truth.observations())
        assert_runs_identical(a["indep-mirror"], b, "independent streams")

    def test_request_order_irrelevant(self, truth, sweep_and_results):
        _sweep, results = sweep_and_results
        reordered = parity_sweep(truth, [DETECT24, MILD16, "baseline"])
        other = reordered.run(truth.observations())
        assert reordered.names == ["baseline", "detect24", "mild16"]
        for name in ("baseline", "mild16", "detect24"):
            assert_runs_identical(results[name], other[name],
                                  f"reordered {name}")


class TestSweepResume:
    def test_full_resume_restores_all_scenarios(self, truth, tmp_path,
                                                sweep_and_results):
        from repro.hpc import CheckpointStore
        _sweep, reference = sweep_and_results
        scenarios = ["baseline", MILD16, DETECT24]
        stores = {s if isinstance(s, str) else s.name:
                  CheckpointStore(tmp_path / (s if isinstance(s, str)
                                              else s.name))
                  for s in scenarios}
        first = parity_sweep(truth, scenarios)
        first.run(truth.observations(), stores=stores)

        second = parity_sweep(truth, scenarios)
        resumed = second.run(truth.observations(), stores=stores, resume=True)
        assert second.computed_windows == 0
        assert all(v == 2 for v in second.resumed_from.values())
        for name in ("baseline", "mild16", "detect24"):
            # Restored posteriors drop segment/history payloads by design;
            # compare the statistical state.
            for ref, res in zip(reference[name], resumed[name]):
                assert np.array_equal(ref.posterior.values("theta"),
                                      res.posterior.values("theta"))
                assert [p.seed for p in ref.posterior] == \
                    [p.seed for p in res.posterior]

    def test_resume_requires_stores(self, truth):
        with pytest.raises(ValueError, match="stores"):
            parity_sweep(truth, ["baseline"]).run(truth.observations(),
                                                  resume=True)

    def test_stores_must_cover_all_scenarios(self, truth, tmp_path):
        from repro.hpc import CheckpointStore
        stores = {"baseline": CheckpointStore(tmp_path / "baseline")}
        with pytest.raises(ValueError, match="mild16"):
            parity_sweep(truth, ["baseline", MILD16]).run(
                truth.observations(), stores=stores)


# --------------------------------------------------------------------- #
# flattened dispatch
# --------------------------------------------------------------------- #
class TestSimulateGroupSets:
    @staticmethod
    def _spec_set(base_seed, n=6):
        params = DiseaseParameters(population=20_000, initial_exposed=40)
        return [GroupSpec(params=params,
                          seeds=np.arange(base_seed, base_seed + n),
                          thetas=0.2 + 0.01 * np.arange(n), start_day=0)]

    def test_flattened_dispatch_bit_identical_to_separate(self):
        sets = [self._spec_set(100), self._spec_set(500, n=4)]
        merged = simulate_group_sets(SerialExecutor(), sets, end_day=12,
                                     n_shards=2)
        assert len(merged) == len(sets)
        for spec_set, got in zip(sets, merged):
            lone = simulate_groups(SerialExecutor(), spec_set, end_day=12,
                                   n_shards=2)
            for ga, gb in zip(lone, got):
                for (ma, ra, rowa), (mb, rb, rowb) in zip(ga.member_items(),
                                                          gb.member_items()):
                    assert (ma, rowa) == (mb, rowb)
                    assert np.array_equal(
                        ra.batch.channel_matrix("cases")[rowa],
                        rb.batch.channel_matrix("cases")[rowb])

    def test_on_failures_length_validated(self):
        sets = [self._spec_set(100)]
        with pytest.raises(ValueError, match="on_failures"):
            simulate_group_sets(SerialExecutor(), sets, end_day=8,
                                on_failures=[None, None])

    def test_empty_sets_allowed(self):
        assert simulate_group_sets(SerialExecutor(), [], end_day=8) == []
