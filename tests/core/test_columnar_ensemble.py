"""The columnar particle cloud: array storage, lazy checkpoints, guards."""

import dataclasses

import numpy as np
import pytest

import repro.core.smc as smc_module
import repro.hpc.sharding as sharding_module
from repro.core import (ParticleEnsemble, SequentialCalibrator, SMCConfig,
                        WindowSchedule, paper_first_window_prior,
                        paper_observation_model, paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import CheckpointStore
from repro.seir import (BatchTrajectory, Checkpoint, DiseaseParameters,
                        StackedLeapState, Trajectory)
from repro.seir.batch_engine import leap_particle_snapshot
from repro.sim import make_ground_truth


@pytest.fixture(scope="module")
def small_truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def calibrator(truth, engine="binomial_leap_batched"):
    return SequentialCalibrator(
        base_params=truth.params, prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks([10, 20, 30]),
        config=SMCConfig(n_parameter_draws=30, n_replicates=2,
                         resample_size=40, base_seed=17, n_shards=2,
                         engine=engine))


def batch(n, start=0, days=3, offset=0.0):
    mats = [np.arange(n * days, dtype=float).reshape(n, days) + offset + k
            for k in range(4)]
    return BatchTrajectory(start, *mats)


class TestLazyCheckpoints:
    """Checkpoints are built at resampling, once per surviving ancestor."""

    @pytest.fixture(scope="class")
    def window(self, small_truth):
        calib = calibrator(small_truth)
        window = calib.schedule[0]
        pending = calib.propose_window(0, window)
        shards = calib._simulate_pending(pending)
        calls = []
        patch = pytest.MonkeyPatch()
        for module in (smc_module, sharding_module):
            original = getattr(module, "leap_particle_snapshot", None)
            if original is None:
                continue

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)
            patch.setattr(module, "leap_particle_snapshot", counted)
        try:
            ensemble = calib.assemble_window(pending, shards)
            result = calib.weigh_window(0, window, ensemble,
                                        small_truth.observations(),
                                        sim_days=pending.sim_days)
            n_built = len(calls)
        finally:
            patch.undo()
        return ensemble, shards, pending, result, n_built

    def test_one_snapshot_per_unique_ancestor(self, window):
        _, _, pending, result, n_built = window
        assert result.diagnostics.unique_ancestors < pending.n_members
        assert n_built == result.diagnostics.unique_ancestors

    def test_every_member_carries_a_checkpoint(self, window):
        posterior = window[3].posterior
        assert all(isinstance(p.checkpoint, Checkpoint) for p in posterior)

    def test_duplicates_share_one_object(self, window):
        posterior = window[3].posterior
        by_ancestor = {}
        for p in posterior:
            by_ancestor.setdefault(p.ancestor, []).append(p.checkpoint)
        assert any(len(cps) > 1 for cps in by_ancestor.values())
        for cps in by_ancestor.values():
            assert all(cp is cps[0] for cp in cps)
        assert len({id(p.checkpoint) for p in posterior}) == len(by_ancestor)

    def test_matches_eager_checkpoint_of_the_shard_row(self, window,
                                                       small_truth):
        ensemble, shards, pending, result, _ = window
        thetas = ensemble.values("theta")
        eager = {}
        for indices, group in zip(pending.groups, shards):
            for member, shard, row in group.member_items():
                idx = int(indices[member])
                state = shard.state
                eager[idx] = Checkpoint(
                    params=small_truth.params.with_updates(
                        transmission_rate=float(thetas[idx])),
                    snapshot=leap_particle_snapshot(
                        state.day, state.counts[row],
                        state.cum_infections[row], state.cum_deaths[row],
                        state.steps_per_day, state.seeds[row]))
        for p in result.posterior:
            assert p.checkpoint.to_dict() == eager[p.ancestor].to_dict()


class TestCallerInputErrors:
    @pytest.mark.parametrize("engine", ["binomial_leap_batched",
                                        "binomial_leap"])
    def test_continuation_without_checkpoints_raises_value_error(
            self, small_truth, tmp_path, engine):
        calib = calibrator(small_truth, engine)
        windows = list(calib.schedule)
        obs = small_truth.observations()
        store = CheckpointStore(tmp_path)
        calib.persist_window(store, calib.step_window(0, windows[0], obs))
        restored = calib._restore_window(store, 0, windows[0],
                                         with_checkpoints=False)
        with pytest.raises(ValueError, match="window 1"):
            calib.step_window(1, windows[1], obs, restored.posterior)

    def test_assemble_rejects_a_continuation_without_parent_rows(
            self, small_truth):
        calib = calibrator(small_truth)
        windows = list(calib.schedule)
        obs = small_truth.observations()
        first = calib.step_window(0, windows[0], obs)
        pending = calib.propose_window(1, windows[1], first.posterior)
        shards = calib._simulate_pending(pending)
        broken = dataclasses.replace(pending, parent_rows=None)
        with pytest.raises(ValueError, match="window 1"):
            calib.assemble_window(broken, shards)

    def test_invalid_draws_raise_the_parameter_error(self, small_truth):
        calib = calibrator(small_truth)
        window = calib.schedule[0]
        pending = calib.propose_window(0, window)
        draws = pending.draws.copy()
        draws[3, pending.param_names.index("theta")] = -0.5
        with pytest.raises(ValueError, match="transmission_rate"):
            calib._plan_window(0, window, pending.sim_days, draws,
                               pending.seeds, start_day=0)


class TestParticleEnsembleColumns:
    def ensemble(self, n=4):
        return ParticleEnsemble.from_columns(
            ("theta", "rho"), np.column_stack([np.linspace(0.1, 0.4, n),
                                               np.full(n, 0.5)]),
            np.arange(n), log_weights=np.arange(n, dtype=float),
            segments=batch(n, start=5), histories=batch(n, start=0, days=8),
            checkpoints=[object()] * n)

    def test_rows_are_built_on_access_and_cached(self):
        ens = self.ensemble()
        assert ens._rows == [None] * 4
        p = ens[2]
        assert ens[2] is p and ens[-2] is p
        assert p.params == {"theta": pytest.approx(0.3), "rho": 0.5}
        assert p.segment.start_day == 5 and len(p.history) == 8
        with pytest.raises(IndexError):
            ens[4]

    def test_select_copies_rows_and_keeps_checkpoint_objects(self):
        ens = self.ensemble()
        out = ens.select([3, 3, 0])
        assert out.values("theta").tolist() == pytest.approx([0.4, 0.4, 0.1])
        assert out.log_weights().tolist() == [0.0, 0.0, 0.0]
        assert [p.ancestor for p in out] == [3, 3, 0]
        assert out[0].checkpoint is ens[3].checkpoint
        assert np.array_equal(out.segment_matrix("cases")[2],
                              ens.segment_matrix("cases")[0])

    def test_with_log_weights_shares_columns(self):
        ens = self.ensemble()
        weighted = ens.with_log_weights(np.zeros(4))
        assert np.allclose(weighted.normalized_weights(), 0.25)
        assert weighted.trajectory_matrices("history") is \
            ens.trajectory_matrices("history")

    def test_segment_matrix_is_a_copy(self):
        ens = self.ensemble()
        mat = ens.segment_matrix("cases")
        mat[:] = -1
        assert ens.segment_matrix("cases").min() >= 0

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="do not describe"):
            ParticleEnsemble.from_columns(("theta",), np.zeros((3, 2)),
                                          np.arange(3))
        with pytest.raises(ValueError, match="segment matrices"):
            ParticleEnsemble.from_columns(("theta",), np.zeros((3, 1)),
                                          np.arange(3), segments=batch(2))
        with pytest.raises(ValueError, match="checkpoints"):
            ParticleEnsemble.from_columns(("theta",), np.zeros((3, 1)),
                                          np.arange(3), checkpoints=[None])

    def test_list_constructor_rejects_mixed_trajectory_days(self):
        from repro.core import Particle

        def traj(start, days):
            return Trajectory(start, np.ones(days), np.zeros(days),
                              np.zeros(days), np.zeros(days))
        a = Particle(params={"theta": 0.1}, seed=1, segment=traj(0, 3))
        b = Particle(params={"theta": 0.2}, seed=2, segment=traj(1, 3))
        c = Particle(params={"theta": 0.3}, seed=3)
        for pair in ([a, b], [a, c]):
            with pytest.raises(ValueError, match="segment trajectory days"):
                ParticleEnsemble(pair)
        ens = ParticleEnsemble([a, a])
        assert ens[0] is a


class TestArrayHelpers:
    def test_batch_rows_concatenate_and_extend(self):
        head, tail = batch(2, start=0, days=3), batch(3, start=0, days=3,
                                                      offset=100)
        both = BatchTrajectory.concatenate([head, tail])
        assert both.n_particles == 5
        picked = both.rows(np.array([4, 0]))
        assert picked.infections[0].tolist() == tail.infections[2].tolist()
        longer = picked.extended_by(batch(2, start=3, days=2))
        assert (longer.start_day, longer.n_days) == (0, 5)
        with pytest.raises(ValueError, match="continuation starts"):
            picked.extended_by(batch(2, start=4, days=2))
        with pytest.raises(ValueError, match="members"):
            picked.extended_by(batch(3, start=3, days=2))
        with pytest.raises(ValueError, match="coverage"):
            BatchTrajectory.concatenate([head, batch(1, start=1)])

    def test_stacked_state_rows(self):
        state = StackedLeapState(
            day=4, steps_per_day=2, counts=np.arange(6).reshape(3, 2),
            cum_infections=np.array([1, 2, 3]),
            cum_deaths=np.array([0, 0, 1]), seeds=np.array([7, 8, 9]))
        sub = state.rows(np.array([2, 2]))
        assert (sub.day, sub.steps_per_day) == (4, 2)
        assert sub.seeds.tolist() == [9, 9]
        assert state.rows(slice(0, 1)).counts.tolist() == [[0, 1]]

    def test_check_column_updates(self):
        base = DiseaseParameters()
        base.check_column_updates({"transmission_rate": np.array([0.0, 2.0]),
                                   "mild_fraction": np.array([0.0, 1.0])})
        with pytest.raises(ValueError, match="mild_fraction"):
            base.check_column_updates(
                {"mild_fraction": np.array([0.5, np.nan, 0.2])})
        with pytest.raises(ValueError, match="transmission_rate"):
            base.check_column_updates(
                {"transmission_rate": np.array([0.3, -1e-9])})
