"""High-level calibration configuration.

:class:`CalibrationConfig` gathers everything a run needs into one
JSON-serialisable object: ensemble sizes, window schedule, prior and jitter
hyper-parameters, likelihood noise, executor choice.  It builds the core
objects (:class:`~repro.core.smc.SMCConfig`, priors, jitters, observation
model) on demand, so scripts and benches configure runs declaratively.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

from ..core.diagnostics import DEGENERACY_THRESHOLD
from ..core.observation import ObservationModel, paper_observation_model
from ..core.priors import Beta, IndependentProduct, Uniform
from ..core.proposals import JointJitter, paper_window_jitter
from ..core.smc import SMCConfig
from ..core.window import WindowSchedule
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import Executor, make_executor
from ..hpc.faults import RetryPolicy
from ..seir.parameters import DiseaseParameters

__all__ = ["CalibrationConfig", "paper_calibration_config"]


@dataclass(frozen=True)
class CalibrationConfig:
    """Declarative configuration of one sequential calibration run.

    Attributes mirror section V of the paper; see
    :func:`paper_calibration_config` for the paper's exact settings at
    laptop scale.  The dict-valued fields are left out of the hash (not out
    of equality), so a config can key a cache.
    """

    window_breaks: tuple[int, ...] = (20, 34, 48, 62, 76)
    burn_in_start: int = 0

    n_parameter_draws: int = 500
    n_replicates: int = 5
    resample_size: int = 500
    n_continuations: int = 1

    theta_prior_low: float = 0.1
    theta_prior_high: float = 0.5
    rho_prior_a: float = 4.0
    rho_prior_b: float = 1.0

    theta_jitter_width: float = 0.05
    rho_jitter_width: float = 0.02
    rho_jitter_skew: float = 3.0

    sigma: float = 1.0
    bias_mode: str = "sample"
    resampler: str = "multinomial"
    #: Binomial-leap sub-steps per simulated day.
    steps_per_day: int = 4
    #: Batched-path shard layout: members per shard, or an explicit shard
    #: count; the default "auto" policy cuts one shard per executor worker
    #: (see repro.hpc.sharding).
    shard_size: int | None = None
    n_shards: int | str = "auto"
    #: Adaptive ensemble-size controller: "fixed" (classic behaviour),
    #: "ess" (grow/shrink on the post-weighting ESS fraction), or "budget"
    #: (per-window particle-step cap); options are the policy's constructor
    #: keywords (see repro.core.ensemble_control).
    size_policy: str = "fixed"
    size_policy_options: dict = field(default_factory=dict, hash=False)
    #: Posterior-size controller (same policy names/options as size_policy):
    #: decides per window how many particles the resampled posterior keeps;
    #: "fixed" keeps resample_size throughout.
    resample_size_policy: str = "fixed"
    resample_size_policy_options: dict = field(default_factory=dict,
                                               hash=False)
    #: Tempered rescue of degenerate windows: when enabled, a window whose
    #: pre-resampling ESS fraction drops below temper_threshold is resampled
    #: through the staged tempered bridge (repro.core.adaptive) instead of a
    #: single pass; temper_ess_floor is the per-stage incremental ESS floor.
    temper_degenerate: bool = False
    temper_threshold: float = DEGENERACY_THRESHOLD
    temper_ess_floor: float = 0.5
    #: Resampler used inside the bridge ("systematic" by default — a
    #: low-variance scheme; a multinomial bridge compounds per-stage
    #: resampling noise).
    temper_resampler: str = "systematic"

    executor: str = "serial"
    max_workers: int | None = None

    base_seed: int = 20240215
    keep_weighted_ensemble: bool = False

    disease_overrides: dict = field(default_factory=dict, hash=False)

    #: Fault-tolerant sharded dispatch (repro.hpc.faults): more than one
    #: attempt (or a per-shard timeout) builds a RetryPolicy — failed /
    #: timed-out / dropped shards are re-executed with deterministic
    #: backoff, serially in-process on the final attempt.  Results stay
    #: bit-identical (shard outputs are pure functions of their payload).
    retry_attempts: int = 1
    retry_timeout: float | None = None
    retry_backoff: float = 0.0
    #: Durable run state: persist each window's resampled posterior to this
    #: directory (CheckpointStore layout) and, with resume=True, restart
    #: from the last complete window instead of from scratch.
    checkpoint_dir: str | None = None
    resume: bool = False
    #: Retention GC: after a successful run, keep only the newest N sealed
    #: windows in the checkpoint store (CheckpointStore.prune; None keeps
    #: everything).  Pruning runs post-run because batch resume restores a
    #: gapless window prefix; the streaming service prunes continuously.
    checkpoint_keep_last: int | None = None

    def __post_init__(self) -> None:
        # Checked up front: a bad value would otherwise surface only in the
        # post-run prune, after every window had been computed and written.
        if self.checkpoint_keep_last is not None and \
                self.checkpoint_keep_last < 1:
            raise ValueError("checkpoint_keep_last must be >= 1 or None")

    # ------------------------------------------------------------------ #
    def schedule(self) -> WindowSchedule:
        return WindowSchedule.from_breaks(list(self.window_breaks),
                                          burn_in_start=self.burn_in_start)

    def prior(self) -> IndependentProduct:
        return IndependentProduct({
            "theta": Uniform(self.theta_prior_low, self.theta_prior_high),
            "rho": Beta(self.rho_prior_a, self.rho_prior_b),
        })

    def jitter(self) -> JointJitter:
        return paper_window_jitter(theta_width=self.theta_jitter_width,
                                   rho_width=self.rho_jitter_width,
                                   rho_skew=self.rho_jitter_skew)

    def observation_model(self) -> ObservationModel:
        return paper_observation_model(sigma=self.sigma,
                                       bias_mode=self.bias_mode)

    def smc_config(self) -> SMCConfig:
        return SMCConfig(
            n_parameter_draws=self.n_parameter_draws,
            n_replicates=self.n_replicates,
            resample_size=self.resample_size,
            n_continuations=self.n_continuations,
            resampler=self.resampler,
            engine_options={"steps_per_day": self.steps_per_day},
            shard_size=self.shard_size,
            n_shards=self.n_shards,
            base_seed=self.base_seed,
            keep_weighted_ensemble=self.keep_weighted_ensemble,
            size_policy=self.size_policy,
            size_policy_options=dict(self.size_policy_options),
            resample_size_policy=self.resample_size_policy,
            resample_size_policy_options=dict(self.resample_size_policy_options),
            temper_degenerate=self.temper_degenerate,
            temper_threshold=self.temper_threshold,
            temper_ess_floor=self.temper_ess_floor,
            temper_resampler=self.temper_resampler,
            retry=self.retry_policy(),
        )

    def retry_policy(self) -> RetryPolicy | None:
        """The configured shard-retry policy (None = legacy fail-fast)."""
        if self.retry_attempts == 1 and self.retry_timeout is None:
            return None
        return RetryPolicy(max_attempts=self.retry_attempts,
                           timeout_seconds=self.retry_timeout,
                           backoff_seconds=self.retry_backoff)

    def checkpoint_store(self) -> CheckpointStore | None:
        """The configured durable window store (None = no persistence)."""
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir,
                               run_id=f"seed{self.base_seed}")

    def make_executor(self) -> Executor:
        return make_executor(self.executor, max_workers=self.max_workers)

    def disease_params(self, base: DiseaseParameters | None = None,
                       ) -> DiseaseParameters:
        params = base if base is not None else DiseaseParameters()
        if self.disease_overrides:
            params = params.with_updates(**self.disease_overrides)
        return params

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        d = asdict(self)
        d["window_breaks"] = list(self.window_breaks)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationConfig":
        """Inverse of :meth:`to_dict`; unknown keys (such as ones an older
        or newer version wrote) raise a ``ValueError`` naming them."""
        payload = dict(d)
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown CalibrationConfig key(s) {unknown}; "
                "remove them from the config payload")
        if "window_breaks" in payload:
            payload["window_breaks"] = tuple(payload["window_breaks"])
        return cls(**payload)

    def scaled(self, factor: float) -> "CalibrationConfig":
        """Scale the ensemble sizes (e.g. ``factor=50`` approaches paper scale)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            n_parameter_draws=max(1, int(self.n_parameter_draws * factor)),
            resample_size=max(1, int(self.resample_size * factor)))


def paper_calibration_config(**overrides) -> CalibrationConfig:
    """The paper's experimental settings (section V) at laptop scale.

    Paper scale is ``n_parameter_draws=25_000, n_replicates=20,
    resample_size=10_000``; pass those explicitly (or use
    :meth:`CalibrationConfig.scaled`) on real hardware.
    """
    return CalibrationConfig(**overrides)
