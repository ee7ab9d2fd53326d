"""Tests for the sharded batched simulation layer.

Contract under test (see ``repro/hpc/sharding.py``):

* bit-reproducibility given a fixed ``(base_seed, shard layout)``,
  including across executors (serial vs process pool);
* distributional invariance to the shard layout (1 shard vs many overlap
  the scalar oracle's credible intervals);
* ordered reassembly of the :class:`ParticleEnsemble` even when an
  executor returns shard results out of order.
"""

import numpy as np
import pytest

from repro.core import (SequentialCalibrator, SMCConfig, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import (ProcessExecutor, SerialExecutor, ShardTask,
                       dispatch_shards)
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing import ReferenceCalibrator


@pytest.fixture(scope="module")
def small_truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def run_calibration(truth, *, executor=None, engine="binomial_leap_batched",
                    shard_size=None, n_shards="auto", base_seed=17,
                    breaks=(10, 20, 30), **config_kwargs):
    """Production run, or the per-particle reference on a scalar engine."""
    cls, kwargs = SequentialCalibrator, {}
    if engine != "binomial_leap_batched":
        cls, kwargs = ReferenceCalibrator, {"engine": engine}
    calib = cls(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        config=SMCConfig(n_parameter_draws=40, n_replicates=2,
                         resample_size=60, base_seed=base_seed,
                         shard_size=shard_size, n_shards=n_shards,
                         **config_kwargs),
        executor=executor, **kwargs)
    return calib.run(truth.observations())


def assert_runs_identical(a, b):
    """Window-by-window bitwise identity of two calibration runs."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for name in ("theta", "rho"):
            assert np.array_equal(ra.posterior.values(name),
                                  rb.posterior.values(name))
        for pa, pb in zip(ra.posterior, rb.posterior):
            assert np.array_equal(pa.segment.infections, pb.segment.infections)
            assert pa.checkpoint.snapshot["counts"] == \
                pb.checkpoint.snapshot["counts"]


class OutOfOrderExecutor(SerialExecutor):
    """Protocol violator: returns results in reverse task order."""

    @property
    def workers(self) -> int:
        return 4

    def map(self, fn, tasks):
        return [fn(t) for t in reversed(list(tasks))]


class WideSerialExecutor(SerialExecutor):
    """Runs in-process but advertises many workers (drives the auto policy)."""

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self.task_counts: list[int] = []

    @property
    def workers(self) -> int:
        return self._workers

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.task_counts.append(len(tasks))
        return [fn(t) for t in tasks]


class TestConfigKnobs:
    def test_shard_knob_validation(self):
        with pytest.raises(ValueError, match="shard_size"):
            SMCConfig(shard_size=0)
        with pytest.raises(ValueError, match="n_shards"):
            SMCConfig(n_shards=0)
        with pytest.raises(ValueError, match="n_shards"):
            SMCConfig(n_shards="many")
        with pytest.raises(ValueError, match="not both"):
            SMCConfig(shard_size=4, n_shards=2)

    def test_shard_task_needs_exactly_one_source(self):
        params = DiseaseParameters(population=1000, initial_exposed=5)
        with pytest.raises(ValueError, match="start_day/state"):
            ShardTask(shard_id=0, params=params, seeds=np.array([1]),
                      thetas=np.array([0.3]), end_day=5)


class TestFixedLayoutReproducibility:
    def test_same_layout_same_bits(self, small_truth):
        a = run_calibration(small_truth, shard_size=13)
        b = run_calibration(small_truth, shard_size=13)
        assert_runs_identical(a, b)

    def test_serial_vs_process_bit_identical(self, small_truth):
        """Acceptance: identical results for a fixed (base_seed, layout)
        across SerialExecutor and ProcessExecutor."""
        serial = run_calibration(small_truth, shard_size=25,
                                 executor=SerialExecutor())
        with ProcessExecutor(max_workers=2) as pool:
            pooled = run_calibration(small_truth, shard_size=25,
                                     executor=pool)
        assert_runs_identical(serial, pooled)

    def test_out_of_order_executor_reassembled_in_order(self, small_truth):
        """Reassembly keys on the echoed shard id, not result position."""
        ordered = run_calibration(small_truth, shard_size=10,
                                  executor=SerialExecutor())
        scrambled = run_calibration(small_truth, shard_size=10,
                                    executor=OutOfOrderExecutor())
        assert_runs_identical(ordered, scrambled)


class TestShardLayoutPolicy:
    def test_auto_policy_one_shard_per_worker(self, small_truth):
        spy = WideSerialExecutor(workers=3)
        run_calibration(small_truth, executor=spy, breaks=(10, 20))
        # One window, one structural group, three workers -> three shards.
        assert spy.task_counts == [3]

    def test_explicit_n_shards_overrides_workers(self, small_truth):
        spy = WideSerialExecutor(workers=3)
        run_calibration(small_truth, executor=spy, n_shards=5,
                        breaks=(10, 20))
        assert spy.task_counts == [5]

    def test_more_shards_than_particles_never_empty(self, small_truth):
        """Degenerate layouts clamp to one member per shard and still run."""
        spy = WideSerialExecutor(workers=3)
        results = run_calibration(small_truth, executor=spy, n_shards=500,
                                  breaks=(10, 20))
        assert spy.task_counts == [80]  # 40 draws x 2 replicates
        assert len(results[0].posterior) == 60


class TestShardInvariance:
    """Distributional parity: layouts only re-key the per-shard streams."""

    @pytest.fixture(scope="class")
    def runs(self, small_truth):
        return {
            "scalar": run_calibration(small_truth, engine="binomial_leap"),
            "one_shard": run_calibration(small_truth, n_shards=1),
            "many_shards": run_calibration(small_truth, shard_size=9),
        }

    @pytest.mark.parametrize("pair", [("one_shard", "many_shards"),
                                      ("scalar", "many_shards"),
                                      ("scalar", "one_shard")])
    def test_credible_intervals_overlap(self, runs, pair):
        left, right = (runs[p] for p in pair)
        for w in range(2):
            for name in ("theta", "rho"):
                lo_l, hi_l = left[w].posterior.credible_interval(name, 0.9)
                lo_r, hi_r = right[w].posterior.credible_interval(name, 0.9)
                assert lo_l <= hi_r and lo_r <= hi_l, (
                    f"window {w} {name}: {pair[0]} [{lo_l:.3f}, {hi_l:.3f}] "
                    f"vs {pair[1]} [{lo_r:.3f}, {hi_r:.3f}] do not overlap")

    def test_posterior_means_close_across_layouts(self, runs):
        for w in range(2):
            t1 = runs["one_shard"][w].posterior.weighted_mean("theta")
            t2 = runs["many_shards"][w].posterior.weighted_mean("theta")
            assert t2 == pytest.approx(t1, abs=0.08)


class TestAdaptiveSizeShardInvariance:
    """Size changes and shard layouts must compose, not interfere.

    Adaptive runs obey the same contract as fixed-size ones: bit-identical
    for a fixed ``(base_seed, policy, shard layout)`` across executors
    (the layout is recomputed per window from whatever size the policy
    proposed), the same per-window size trajectory whatever the layout
    (policies see ESS fractions, which layouts only perturb), and
    distributional agreement across layouts.
    """

    #: A policy whose band edges sit far from the realised ESS fractions
    #: (~0.08 and ~0.2 on this scenario), so every window shrinks the next
    #: cloud and a layout re-keying the simulation streams cannot flip a
    #: decision.
    ADAPTIVE = dict(size_policy="ess",
                    size_policy_options={"target_low": 0.01,
                                         "target_high": 0.05,
                                         "n_min": 24, "n_max": 200})

    #: The trajectory a fixed-size run would produce (40 draws x 2
    #: replicates, then resample_size per continuation window).
    FIXED_SIZES = [80, 60]

    @staticmethod
    def sizes(results):
        return [r.diagnostics.n_particles for r in results]

    def test_adaptive_run_actually_resizes(self, small_truth):
        """Every other test in this class is only meaningful if the policy
        really changes the cloud size mid-run."""
        results = run_calibration(small_truth, shard_size=16, **self.ADAPTIVE)
        sizes = self.sizes(results)
        assert len(sizes) == len(self.FIXED_SIZES)
        assert sizes != self.FIXED_SIZES, \
            "scenario no longer exercises a size change; re-tune the policy"
        assert sizes[1] < self.FIXED_SIZES[1]  # the band forces a shrink

    def test_adaptive_serial_vs_process_bit_identical(self, small_truth):
        """Acceptance: adaptive runs are identical across executors for a
        fixed (base_seed, policy, shard layout)."""
        serial = run_calibration(small_truth, shard_size=16,
                                 executor=SerialExecutor(), **self.ADAPTIVE)
        with ProcessExecutor(max_workers=2) as pool:
            pooled = run_calibration(small_truth, shard_size=16,
                                     executor=pool, **self.ADAPTIVE)
        assert self.sizes(serial) == self.sizes(pooled)
        assert_runs_identical(serial, pooled)

    def test_adaptive_same_layout_same_bits(self, small_truth):
        a = run_calibration(small_truth, shard_size=16, **self.ADAPTIVE)
        b = run_calibration(small_truth, shard_size=16, **self.ADAPTIVE)
        assert_runs_identical(a, b)

    def test_explicit_shard_size_immune_to_worker_count(self, small_truth):
        """With an explicit shard_size, n_shards='auto' and the executor's
        advertised parallelism have no effect on the bits."""
        narrow = run_calibration(small_truth, shard_size=16,
                                 executor=WideSerialExecutor(workers=1),
                                 **self.ADAPTIVE)
        wide = run_calibration(small_truth, shard_size=16,
                               executor=WideSerialExecutor(workers=6),
                               **self.ADAPTIVE)
        assert_runs_identical(narrow, wide)

    @pytest.mark.parametrize("layouts", [({"n_shards": 1}, {"n_shards": 3}),
                                         ({"n_shards": 1}, {"shard_size": 7})])
    def test_size_trajectory_invariant_across_layouts(self, small_truth,
                                                      layouts):
        left, right = (run_calibration(small_truth, **layout, **self.ADAPTIVE)
                       for layout in layouts)
        assert self.sizes(left) == self.sizes(right)
        for w in range(len(left)):
            for name in ("theta", "rho"):
                lo_l, hi_l = left[w].posterior.credible_interval(name, 0.9)
                lo_r, hi_r = right[w].posterior.credible_interval(name, 0.9)
                assert lo_l <= hi_r and lo_r <= hi_l, (
                    f"window {w} {name}: CIs across layouts do not overlap")

    def test_shard_bounds_follow_the_policy_size(self, small_truth):
        """Auto layout re-splits each window's (resized) cloud per worker."""
        spy = WideSerialExecutor(workers=4)
        results = run_calibration(small_truth, executor=spy, **self.ADAPTIVE)
        # one map per window, always 4 shards, whatever the cloud size
        assert spy.task_counts == [4] * len(results)


class TestDispatchRobustness:
    class DroppingExecutor(SerialExecutor):
        def map(self, fn, tasks):
            return [fn(t) for t in list(tasks)[:-1]]

    class DuplicatingExecutor(SerialExecutor):
        def map(self, fn, tasks):
            out = [fn(t) for t in tasks]
            return out + out[:1]

    @staticmethod
    def _tasks(n_shards):
        params = DiseaseParameters(population=2000, initial_exposed=10)
        return [ShardTask(shard_id=i, params=params,
                          seeds=np.array([100 + i]),
                          thetas=np.array([0.3]), end_day=3, start_day=0)
                for i in range(n_shards)]

    def test_dropped_shard_detected(self):
        with pytest.raises(ValueError, match="dropped"):
            dispatch_shards(self.DroppingExecutor(), self._tasks(3))

    def test_duplicated_shard_detected(self):
        with pytest.raises(ValueError, match="twice"):
            dispatch_shards(self.DuplicatingExecutor(), self._tasks(3))

    def test_empty_task_list(self):
        assert dispatch_shards(SerialExecutor(), []) == []
