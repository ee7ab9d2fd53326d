"""Sequential importance sampling calibrator (paper Algorithm 1 + eq. 5).

The driver implements the paper's two-loop structure:

* **outer loop** over calibration windows, moving the epidemic forward in
  time and carrying posterior particles (with their checkpoints) from one
  window to the next;
* **inner loop** per window: sample parameters, simulate trajectories in
  parallel, weight them against the window's observations, and resample.

Window 1 draws ``n_parameter_draws`` parameter tuples from the prior and
replicates each across a *common* seed set (``n_replicates`` trajectories per
tuple, same seeds for every tuple — the paper's variance-control device).
Every later window starts from the previous window's resampled posterior:
each particle's parameters are jittered (symmetric uniform for theta,
asymmetric for rho), its stored checkpoint is restarted with the overridden
transmission rate and a fresh seed, and only the new window is simulated —
the computational saving checkpointing buys (paper section III-B).

Weights follow eq. (5): conditioned on a sample from the previous posterior,
the incremental weight is the likelihood of the *new* window's observations
alone.  Because the jittered draws constitute the next window's prior (the
paper's construction), no proposal-density correction is applied.

Each window runs one production path:
:meth:`SequentialCalibrator.propose_window` builds the proposal cloud, the
sharded batched engine simulates it,
:meth:`~SequentialCalibrator.assemble_window` stacks the outputs into the
columnar :class:`ParticleEnsemble`, and
:meth:`~SequentialCalibrator.weigh_window` weights and resamples it.  Both
the first-window and every continuation ensemble are advanced as stacked
``(n_particles, n_compartments)`` state matrices by the
:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`, with no
per-task dict/JSON checkpoint round-trips; a member's scalar checkpoint is
built only if it survives resampling (once per surviving ancestor).
Particles whose structural parameters differ (anything beyond the
transmission rate, e.g. a ``param_map`` targeting ``mild_fraction``) are
grouped by structural identity and each group is stepped as its own batch.
Weighting stacks the segments once per source
(``ParticleEnsemble.segment_matrix``), thins them with one binomial call
(``BinomialBiasModel.apply_batch``) and scores them with one vectorised
likelihood evaluation per source (``ObservationModel.loglik_ensemble``).
All per-window ancillary randomness (jitter, bias thinning, resampling)
draws from window-indexed streams of the
:class:`~repro.seir.seeding.SeedSequenceBank`, so no two windows ever share
a random stream.  The per-particle scalar-engine simulation and weighting
loop the batched path is parity-tested against live in
:mod:`repro.testing.reference`.

The ensemble size itself can adapt between windows
(``SMCConfig.size_policy``): after each window's weighting, an
:class:`~repro.core.ensemble_control.EnsembleSizePolicy` maps the window's
diagnostics to the *next* window's proposal count — growing the cloud when
the ESS collapses, shrinking it when the posterior has converged.  The
resampled *posterior* size is policy-driven too
(``SMCConfig.resample_size_policy``): consulted per window with the
pre-resampling weight diagnostics, it decides how many particles survive the
resampling pass instead of pinning every window to a fixed
``resample_size``.  Proposals flow through the same machinery at any size:
parents are taken by cycling through the resampled posterior (draw ``i``
descends from parent ``i mod len(posterior)``, the exact order the fixed
``n_continuations`` replication produces), every draw's restart seed is
keyed by ``(window, draw_index)``
(:meth:`~repro.seir.seeding.SeedSequenceBank.window_draw_seed` — stable
under size changes, unlike position-keyed seeds), and the shard layout is
recomputed per window from whatever size arrives.

Degenerate windows can be rescued in place
(``SMCConfig.temper_degenerate``): when a window's ESS fraction falls below
``temper_threshold``, the single resampling pass is replaced by the staged
tempered bridge of :func:`repro.core.adaptive.temper_and_resample` — the
likelihood is raised through adaptively chosen exponents, reweighting and
resampling among the window's already-simulated trajectories so each
bridging step keeps the incremental ESS above ``temper_ess_floor`` (no
re-simulation).  The bridge draws from the same window-indexed resampling
stream as the plain pass, preserving bit-reproducibility per ``(base_seed,
shard layout)``, and the realised exponent schedule and per-stage ESS are
recorded in the window's diagnostics for audit.

Batched simulation is *sharded* across the executor
(:mod:`repro.hpc.sharding`): each structural group is split into
contiguous, evenly chunked sub-batches (``SMCConfig.shard_size`` /
``n_shards``; ``"auto"`` matches the executor's worker count), the shards
are fanned out as one executor map per window, and the stacked shard
outputs are stitched back into the ensemble in order.  A
:class:`~repro.hpc.executor.SerialExecutor` under the auto policy gets
exactly one shard per group — the in-process fast path with zero pickling.
Every shard draws from its own batch stream keyed by the ordered seed
vector of its slice
(:meth:`~repro.seir.seeding.SeedSequenceBank.shard_simulation_generators`),
so a run is bit-reproducible given ``(base_seed, shard layout)`` and
identical across executors for the same layout; different layouts agree in
distribution only (see the batch RNG contract in
:mod:`repro.seir.batch_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, overload

import numpy as np

from ..data.sources import ObservationSet
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.faults import RetryPolicy, ShardFailure
from ..hpc.sharding import (GroupShards, GroupSpec, resolve_shard_layout,
                            simulate_groups, validate_shard_policy)
from ..seir.batch_engine import BatchTrajectory, leap_particle_snapshot
from ..seir.checkpoint import (Checkpoint, CheckpointError, StackedLeapState,
                               stack_leap_snapshots)
from ..seir.parameters import DiseaseParameters, ParameterOverride
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from .adaptive import temper_and_resample
from .diagnostics import (DEGENERACY_THRESHOLD, WindowDiagnostics,
                          compute_diagnostics)
from .ensemble_control import (BudgetPolicy, EnsembleSizePolicy, FixedSize,
                               resolve_size_policy)
from .observation import ObservationModel
from .particle import Particle, ParticleEnsemble
from .priors import IndependentProduct
from .proposals import JointJitter
from .resampling import get_resampler
from .weights import normalize_log_weights
from .window import TimeWindow, WindowSchedule

if TYPE_CHECKING:  # imported lazily to avoid a cycle with core.scenarios
    from .scenarios import ScenarioSpec

__all__ = ["SMCConfig", "WindowResult", "PendingWindow",
           "SequentialCalibrator", "BIAS_PARAM", "DEFAULT_PARAM_MAP"]

#: Reserved name of the reporting-bias parameter in priors/jitters.
BIAS_PARAM = "rho"

#: Default mapping from prior parameter names to DiseaseParameters fields.
DEFAULT_PARAM_MAP: dict[str, str] = {"theta": "transmission_rate"}

# RNG stream purposes (see SeedSequenceBank.ancillary_generator).  Each is
# registered in the stream-domain registry, which raises at import time if a
# purpose value is ever reused by another consumer.
_PURPOSE_PRIOR = register_ancillary_purpose(
    "smc_prior", 0, description="first-window prior sampling")
_PURPOSE_BIAS = register_ancillary_purpose(
    "smc_bias", 1, description="per-window reporting-bias thinning")
_PURPOSE_RESAMPLE = register_ancillary_purpose(
    "smc_resample", 2, description="per-window resampling / tempered bridge")
_PURPOSE_JITTER = register_ancillary_purpose(
    "smc_jitter", 3, description="per-window proposal jitter")


@dataclass(frozen=True)
class SMCConfig:
    """Tuning knobs of the sequential calibrator.

    The paper-scale configuration is ``n_parameter_draws=25_000,
    n_replicates=20, resample_size=10_000``; defaults here are laptop-scale
    with identical algorithmic behaviour.  Every window is simulated by the
    sharded batched binomial-leap engine (``engine_options`` are its
    fresh-start keywords, e.g. ``steps_per_day``) and weighted on the
    vectorised ensemble path; the per-particle oracles live in
    :mod:`repro.testing.reference`.

    ``shard_size``/``n_shards`` control the sharded batched dispatch:
    ``n_shards="auto"`` (the default) cuts each structural group into one
    shard per executor worker — a serial executor keeps the in-process
    single-shard fast path — while an explicit ``shard_size`` (members per
    shard; wins over ``n_shards``) or integer ``n_shards`` pins the layout,
    making results bit-reproducible across executors (see
    :mod:`repro.hpc.sharding`).

    ``size_policy`` selects the adaptive ensemble-size controller consulted
    after every window (:mod:`repro.core.ensemble_control`): ``"fixed"``
    (the default — every continuation window proposes
    ``resample_size * n_continuations`` draws, the classic behaviour),
    ``"ess"`` (:class:`~repro.core.ensemble_control.ESSTargetPolicy`: grow
    the cloud when the post-weighting ESS fraction falls below its target
    band, shrink it when the band is exceeded, clamped to
    ``[n_min, n_max]``), ``"budget"``
    (:class:`~repro.core.ensemble_control.BudgetPolicy`: cap the cloud at a
    per-window particle-step budget), or any object implementing
    :class:`~repro.core.ensemble_control.EnsembleSizePolicy`.
    ``size_policy_options`` are the named policy's constructor keywords
    (e.g. ``{"target_high": 0.4, "n_min": 100}``).  Policies are
    deterministic, so adaptive runs remain bit-reproducible for a fixed
    ``(base_seed, size_policy, shard layout)`` and identical across
    executors; the first window always uses
    ``n_parameter_draws * n_replicates`` prior draws.

    ``resample_size_policy`` drives the *posterior* size the same way
    ``size_policy`` drives the proposal cloud: it is consulted per window
    with that window's pre-resampling weight diagnostics and decides how
    many particles the resampled posterior keeps (``"fixed"``, the default,
    keeps ``resample_size`` throughout).  Both policies compose — a grow
    decision and a tempering pass can land on the same window — because
    the continuation machinery is size-agnostic (parents are cycled from
    whatever posterior size arrives, restart seeds are keyed by
    ``(window, draw_index)``).

    ``temper_degenerate`` routes degenerate windows through the tempered
    bridge of :func:`repro.core.adaptive.temper_and_resample` instead of a
    single resampling pass: when a window's pre-resampling ESS fraction
    falls below ``temper_threshold`` (default: the
    :data:`~repro.core.diagnostics.DEGENERACY_THRESHOLD` that flags a
    window as degenerate), the likelihood is raised through an adaptive
    exponent schedule — resampling among the already-simulated trajectories
    at each stage, no re-simulation — chosen so every bridging step keeps
    the incremental ESS above ``temper_ess_floor``.  The bridge draws from
    the same window-indexed resampling stream as the plain pass, so runs
    stay bit-reproducible per ``(base_seed, shard layout)`` and identical
    across executors; the realised schedule is recorded in the window's
    :class:`~repro.core.diagnostics.WindowDiagnostics`.
    ``temper_resampler`` is the resampler used *inside* the bridge (default
    ``"systematic"``, independent of the plain pass's ``resampler``): the
    bridge resamples at every stage, so its variance-reduction depends on a
    stratified, low-variance scheme — a multinomial bridge compounds
    resampling noise across stages and can end up noisier than the single
    pass it replaces.

    ``retry`` (a :class:`~repro.hpc.faults.RetryPolicy`, default ``None`` =
    the legacy fail-fast behaviour) makes every batched window's sharded
    dispatch fault-tolerant: failed / timed-out / dropped / corrupted
    shards are re-executed with deterministic backoff, falling back to
    serial in-process execution on the final attempt.  Because shard
    outputs are pure functions of ``(base_seed, shard layout)``, retried
    runs stay bit-identical to fault-free ones (see
    ``docs/fault_tolerance.md``).
    """

    n_parameter_draws: int = 500
    n_replicates: int = 5
    resample_size: int = 500
    n_continuations: int = 1
    resampler: str = "multinomial"
    engine_options: dict = field(default_factory=dict)
    shard_size: int | None = None
    n_shards: int | str = "auto"
    base_seed: int = 20240215
    keep_weighted_ensemble: bool = False
    size_policy: str | EnsembleSizePolicy = "fixed"
    size_policy_options: dict = field(default_factory=dict)
    resample_size_policy: str | EnsembleSizePolicy = "fixed"
    resample_size_policy_options: dict = field(default_factory=dict)
    temper_degenerate: bool = False
    temper_threshold: float = DEGENERACY_THRESHOLD
    temper_ess_floor: float = 0.5
    temper_resampler: str = "systematic"
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy or None, got {self.retry!r}")
        for name in ("n_parameter_draws", "n_replicates", "resample_size",
                     "n_continuations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        resolve_size_policy(self.size_policy, self.size_policy_options)
        resolve_size_policy(self.resample_size_policy,
                            self.resample_size_policy_options)
        if not 0.0 <= self.temper_threshold <= 1.0:
            raise ValueError("temper_threshold must lie in [0, 1]")
        if not 0.0 < self.temper_ess_floor < 1.0:
            raise ValueError("temper_ess_floor must lie in (0, 1)")
        validate_shard_policy(self.shard_size, self.n_shards)
        get_resampler(self.resampler)  # validate eagerly
        get_resampler(self.temper_resampler)

    def size_policy_instance(self) -> EnsembleSizePolicy:
        """The configured ensemble-size controller, ready to consult."""
        return resolve_size_policy(self.size_policy, self.size_policy_options)

    def resample_size_policy_instance(self) -> EnsembleSizePolicy:
        """The configured posterior-size controller, ready to consult."""
        return resolve_size_policy(self.resample_size_policy,
                                   self.resample_size_policy_options)

    @property
    def first_window_ensemble_size(self) -> int:
        return self.n_parameter_draws * self.n_replicates

    @property
    def continuation_ensemble_size(self) -> int:
        return self.resample_size * self.n_continuations


@dataclass(frozen=True)
class WindowResult:
    """Everything the calibrator records about one window.

    Attributes
    ----------
    index:
        Window index (0-based).
    window:
        The day range calibrated.
    posterior:
        Resampled, equally weighted posterior ensemble.
    diagnostics:
        Weight-degeneracy diagnostics of the pre-resampling ensemble.
    weighted_ensemble:
        The full weighted ensemble (kept only when
        ``SMCConfig.keep_weighted_ensemble`` is set; memory-heavy).
    """

    index: int
    window: TimeWindow
    posterior: ParticleEnsemble
    diagnostics: WindowDiagnostics
    weighted_ensemble: ParticleEnsemble | None = None

    def summary(self) -> dict:
        """Posterior parameter summary used by benches and examples."""
        out: dict = {"window": self.window.label(),
                     "ess_fraction": self.diagnostics.ess_fraction,
                     "n_particles": self.diagnostics.n_particles,
                     "particle_steps": self.diagnostics.particle_steps,
                     "resample_size": len(self.posterior),
                     "temper_stages": self.diagnostics.temper_stages,
                     "shard_failures": self.diagnostics.shard_failures,
                     "shard_failure_causes":
                         list(self.diagnostics.shard_failure_causes)}
        for name in self.posterior.param_names:
            lo50, hi50 = self.posterior.credible_interval(name, 0.5)
            lo90, hi90 = self.posterior.credible_interval(name, 0.9)
            out[name] = {
                "mean": self.posterior.weighted_mean(name),
                "median": float(self.posterior.weighted_quantile(name, 0.5)),
                "ci50": (lo50, hi50),
                "ci90": (lo90, hi90),
            }
        return out


@dataclass(frozen=True)
class PendingWindow:
    """One window's proposal cloud, built but not yet simulated.

    The parent-side handle of the split-phase batched window API
    (:meth:`SequentialCalibrator.propose_window` /
    :meth:`~SequentialCalibrator.assemble_window` /
    :meth:`~SequentialCalibrator.weigh_window`): it carries everything the
    proposal phase decided — the members' parameter draws and seeds and
    the structural grouping — so a multi-scenario driver can pool many
    windows' :meth:`group_specs` into **one** flattened shard dispatch
    (:func:`~repro.hpc.sharding.simulate_group_sets`) and reassemble each
    window independently.  All per-window randomness is consumed while
    *building* a pending window (prior/jitter draws, seed derivations);
    simulation randomness is keyed by the seed vectors inside the specs,
    so dispatching pending windows together or apart is bit-identical.

    ``draws`` is the ``(n_members, n_params)`` matrix of calibrated
    parameters (columns ``param_names``), ``seeds`` the members' seed
    vector and ``thetas`` their transmission rates.  A member's effective
    :class:`~repro.seir.parameters.DiseaseParameters` are ``base`` with the
    draw's mapped fields applied (``field_columns`` maps each field to its
    ``draws`` column); :meth:`member_params` builds them on demand.
    ``parents`` is ``None`` for window 0 (fresh starts from ``start_day``)
    and the previous posterior for continuations, ``parent_rows`` then
    giving each member's parent row.
    """

    index: int
    window: TimeWindow
    sim_days: int
    groups: list[np.ndarray]
    param_names: tuple[str, ...]
    draws: np.ndarray
    seeds: np.ndarray
    thetas: np.ndarray
    base: DiseaseParameters
    field_columns: dict[str, int]
    start_day: int | None = None
    parents: ParticleEnsemble | None = None
    parent_rows: np.ndarray | None = None

    @property
    def n_members(self) -> int:
        return len(self.seeds)

    def member_params(self, i: int) -> DiseaseParameters:
        """Member ``i``'s effective disease parameters."""
        return self.base.with_updates(**{
            fld: float(self.draws[i, col])
            for fld, col in self.field_columns.items()})

    def group_specs(self) -> list[GroupSpec]:
        """One ready-to-dispatch :class:`~repro.hpc.sharding.GroupSpec`
        per structural group.

        Restarts stack the parents' distinct checkpoints once (resampled
        duplicates share one checkpoint, hence one stacked row) and give
        each group its members' rows.  Only the batched leap engine
        restarts from stacked state, so this is called by the production
        simulate seam, never while proposing.
        """
        state: StackedLeapState | None = None
        if self.parents is not None:
            if self.parent_rows is None:
                raise ValueError(
                    f"window {self.index}: a continuation needs each "
                    "member's parent row")
            distinct, rows = self.parents.distinct_checkpoints()
            state = stack_leap_snapshots(
                [cp.snapshot for cp in distinct]).rows(rows[self.parent_rows])
        return [GroupSpec(params=self.member_params(int(members[0])),
                          seeds=self.seeds[members],
                          thetas=self.thetas[members],
                          start_day=self.start_day,
                          state=None if state is None else state.rows(members))
                for members in self.groups]


class _ShardCheckpoints(Sequence[Checkpoint]):
    """The checkpoint column of an assembled window, built on first access.

    Member ``i``'s :class:`~repro.seir.checkpoint.Checkpoint` pairs its
    effective parameters with its row of the shard results'
    :class:`~repro.seir.checkpoint.StackedLeapState`, in the scalar
    ``binomial_leap`` snapshot format (:func:`leap_particle_snapshot`).
    Each is built once and cached: resampling builds one per surviving
    ancestor, and that ancestor's duplicates share the object (the next
    window's parent stacking and the forecast payload cache key on
    ``id()``).
    """

    def __init__(self, states: list[StackedLeapState],
                 members: list[np.ndarray],
                 params_of: Callable[[int], DiseaseParameters]) -> None:
        n = sum(len(m) for m in members)
        self._states = states
        self._block = np.empty(n, dtype=np.int64)
        self._row = np.empty(n, dtype=np.int64)
        for block, rows in enumerate(members):
            self._block[rows] = block
            self._row[rows] = np.arange(len(rows))
        self._params_of = params_of
        self._built: dict[int, Checkpoint] = {}

    def __len__(self) -> int:
        return len(self._block)

    @overload
    def __getitem__(self, index: int) -> Checkpoint: ...

    @overload
    def __getitem__(self, index: slice) -> list[Checkpoint]: ...

    def __getitem__(self, index: int | slice
                    ) -> Checkpoint | list[Checkpoint]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        checkpoint = self._built.get(i)
        if checkpoint is None:
            state = self._states[self._block[i]]
            j = int(self._row[i])
            checkpoint = Checkpoint(
                params=self._params_of(i),
                snapshot=leap_particle_snapshot(
                    state.day, state.counts[j], state.cum_infections[j],
                    state.cum_deaths[j], state.steps_per_day,
                    state.seeds[j]))
            self._built[i] = checkpoint
        return checkpoint


# --------------------------------------------------------------------------- #
class SequentialCalibrator:
    """The paper's HPC-aware sequential calibration framework.

    Parameters
    ----------
    base_params:
        Disease parameterisation; fields named in ``param_map`` are
        overridden per particle.
    prior:
        First-window joint prior.  Must contain :data:`BIAS_PARAM` (rho) and
        every key of ``param_map``.
    jitter:
        Window-to-window proposal kernels for the same parameter names.
    observation_model:
        Bias + likelihood configuration per observed stream.
    schedule:
        Calibration windows (plus burn-in start).
    config:
        Ensemble sizes and algorithmic switches.
    executor:
        Parallel map backend; defaults to serial.
    param_map:
        Mapping from prior parameter names to ``DiseaseParameters`` fields.
        Every mapped field must be one of the six checkpoint-restart knobs
        (the paper's contract); rho is handled by the observation model and
        must not be mapped.
    progress:
        Optional callback ``progress(message: str)`` for run logging.
    scenario:
        Optional :class:`~repro.core.scenarios.ScenarioSpec` of declarative
        parameter overrides this run calibrates under.  Day-0 overrides
        rewrite the base parameterisation; later overrides must target a
        checkpoint-restart knob and take effect exactly at a continuation
        window's start day.  By default scenarios share the run's
        ``base_seed`` (common random numbers — a scenario whose effective
        parameters equal the baseline's over a window prefix produces
        bit-identical windows); ``independent_streams=True`` re-roots every
        stream on :meth:`~repro.seir.seeding.SeedSequenceBank.scenario_base_seed`.
        ``None`` (and any override-free, shared-stream scenario) is
        bit-identical to a scenario-less run.
    """

    def __init__(self, base_params: DiseaseParameters,
                 prior: IndependentProduct,
                 jitter: JointJitter,
                 observation_model: ObservationModel,
                 schedule: WindowSchedule,
                 config: SMCConfig | None = None,
                 executor: Executor | None = None,
                 param_map: Mapping[str, str] | None = None,
                 progress: Callable[[str], None] | None = None,
                 scenario: "ScenarioSpec | None" = None) -> None:
        self.base_params = base_params
        self.prior = prior
        self.jitter = jitter
        self.observation_model = observation_model
        self.schedule = schedule
        self.config = config or SMCConfig()
        self.executor = executor or SerialExecutor()
        self.param_map = dict(param_map or DEFAULT_PARAM_MAP)
        self.scenario = scenario
        self._progress = progress or (lambda _msg: None)
        bank_seed = int(self.config.base_seed)
        if scenario is not None and scenario.independent_streams:
            bank_seed = SeedSequenceBank(bank_seed).scenario_base_seed(
                scenario.stream_key)
        self._bank = SeedSequenceBank(bank_seed)
        # A default FixedSize() passes the realised size through, which for
        # window 0 would promote the (larger) prior cloud into every later
        # window; pin it to each role's classic fixed size instead so
        # "fixed" stays bit-identical to a run with no policy at all.
        self._size_policy = self._pin_fixed(
            self.config.size_policy_instance(),
            self.config.continuation_ensemble_size)
        self._resample_policy = self._pin_fixed(
            self.config.resample_size_policy_instance(),
            self.config.resample_size)
        #: Index of the last window restored from a checkpoint store by the
        #: most recent ``run(..., resume=True)``; None for fresh runs.
        self.resumed_from: int | None = None
        #: Shard failures recovered while producing the current window's
        #: cloud; reset per window and folded into its diagnostics.
        self._window_shard_failures: list[ShardFailure] = []
        self._validate()

    @classmethod
    def _pin_fixed(cls, policy: EnsembleSizePolicy,
                   classic_size: int) -> EnsembleSizePolicy:
        if isinstance(policy, FixedSize) and policy.size is None:
            return FixedSize(size=classic_size)
        if isinstance(policy, BudgetPolicy) and (
                policy.base is None or (isinstance(policy.base, FixedSize)
                                        and policy.base.size is None)):
            # A budget cap over the default pass-through base must cap the
            # classic size, not whatever realised size window 0 produced.
            return replace(policy, base=FixedSize(size=classic_size))
        return policy

    def _validate(self) -> None:
        prior_names = set(self.prior.names)
        if BIAS_PARAM not in prior_names:
            raise ValueError(f"prior must include the bias parameter {BIAS_PARAM!r}")
        if BIAS_PARAM in self.param_map:
            raise ValueError(f"{BIAS_PARAM!r} is the observation-bias parameter "
                             "and cannot be mapped to a simulator field")
        unknown = set(self.param_map) - prior_names
        if unknown:
            raise ValueError(f"param_map names missing from prior: {sorted(unknown)}")
        allowed_fields = set(ParameterOverride._PARAM_FIELDS)
        bad = {f for f in self.param_map.values() if f not in allowed_fields}
        if bad:
            raise ValueError(
                f"param_map targets {sorted(bad)} are not checkpoint-restartable; "
                f"the paper allows only {sorted(allowed_fields)}")
        jitter_names = set(self.jitter.names)
        needed = (prior_names if len(self.schedule) > 1 else set())
        if needed and needed - jitter_names:
            raise ValueError(
                f"jitter kernels missing for parameters: {sorted(needed - jitter_names)}")
        if self.scenario is not None:
            self._validate_scenario()

    def _validate_scenario(self) -> None:
        """Check the scenario's overrides against this run's schedule.

        Calibrated fields belong to the sampler: a scenario overriding a
        ``param_map`` target would be silently overwritten by every draw.
        Mid-run overrides can only take effect where the engine stops —
        simulation runs window-at-a-time, so any override after day 0 must
        start exactly at a continuation window's start day (and
        :class:`~repro.core.scenarios.ScenarioOverride` already restricts
        those to the checkpoint-restart knobs).
        """
        assert self.scenario is not None
        mapped = set(self.param_map.values())
        windows = list(self.schedule)
        continuation_starts = {w.start_day for w in windows[1:]}
        for override in self.scenario.overrides:
            if override.field in mapped:
                raise ValueError(
                    f"scenario {self.scenario.name!r} overrides "
                    f"{override.field!r}, which param_map calibrates; "
                    "a calibrated field cannot be scenario-pinned")
            if override.start_day > 0 and \
                    override.start_day not in continuation_starts:
                raise ValueError(
                    f"scenario {self.scenario.name!r} override of "
                    f"{override.field!r} starts at day {override.start_day}, "
                    "which is not a continuation window start "
                    f"({sorted(continuation_starts)}); mid-run overrides "
                    "can only take effect at a window boundary")

    # ------------------------------------------------------------------ #
    def run(self, observations: ObservationSet, *,
            store: CheckpointStore | None = None,
            resume: bool = False) -> list[WindowResult]:
        """Calibrate every window in the schedule against ``observations``.

        After each window, the configured size policy maps the window's
        diagnostics to the next window's proposal count (the fixed policy
        keeps ``continuation_ensemble_size`` throughout); the size it
        scales from is the window's **realised** cloud
        (``diagnostics.n_particles`` — for window 0 the prior cloud of
        ``n_parameter_draws * n_replicates``, not the planned continuation
        size).  The resample-size policy is consulted inside each window's
        weighting pass and drives the posterior size the same way.  The
        realised per-window sizes are recorded in each result's
        diagnostics and posterior.

        With a ``store`` every completed window's resampled posterior
        (checkpoints, parameters, seeds, ancestry, diagnostics) is durably
        persisted as one atomically published file, which seals the
        window.  ``resume=True`` restarts from the
        last *complete* stored window: because all per-window randomness
        is keyed by window index (window-indexed ancillary streams,
        ``(window, draw_index)`` restart seeds) and the store pins the
        run's config/seed fingerprint, the remaining windows are
        bit-identical to an uninterrupted run.  Restored prefix windows
        carry posterior samples, diagnostics, and (for the restart window)
        checkpoints, but not trajectory segments/histories — recompute
        ribbons from a full run if needed.
        """
        if resume and store is None:
            raise ValueError("resume=True requires a checkpoint store")
        self._check_coverage(observations)
        results: list[WindowResult] = []
        posterior: ParticleEnsemble | None = None
        windows = list(self.schedule)
        planned = self.config.continuation_ensemble_size
        planned_resample = self.config.resample_size
        self.resumed_from = None
        start_index = 0
        if store is not None:
            store.validate_run_meta(self.run_fingerprint())
            if resume:
                results = self._restore_results(store, windows)
                if results:
                    posterior = results[-1].posterior
                    start_index = len(results)
                    self.resumed_from = results[-1].index
                    planned, planned_resample = self._replay_policies(
                        results, windows)
                    self._progress(
                        f"resuming after window {self.resumed_from} "
                        f"({start_index}/{len(windows)} windows restored "
                        f"from {store.root})")
        for index, window in enumerate(windows):
            if index < start_index:
                continue
            result = self.step_window(index, window, observations,
                                      posterior, n_proposals=planned,
                                      resample_size=planned_resample)
            posterior = result.posterior
            if store is not None:
                self.persist_window(store, result)
            self._progress(
                f"window {index} ({window.label()}): "
                f"ESS {result.diagnostics.ess:.1f}/{result.diagnostics.n_particles}")
            results.append(result)
            if index + 1 < len(windows):
                proposed, planned_resample = self.planned_sizes_after(
                    result, next_window_days=windows[index + 1].n_days)
                if proposed != planned:
                    self._progress(
                        f"window {index}: size policy resized next cloud "
                        f"{planned} -> {proposed} (ESS fraction "
                        f"{result.diagnostics.ess_fraction:.2f})")
                planned = proposed
        return results

    def step_window(self, index: int, window: TimeWindow,
                    observations: ObservationSet,
                    posterior: ParticleEnsemble | None = None, *,
                    n_proposals: int | None = None,
                    resample_size: int | None = None) -> WindowResult:
        """Calibrate one window — the single-step entry point.

        The body of :meth:`run`'s outer loop, exposed so a streaming driver
        (the always-on service of :mod:`repro.service`) can advance the
        calibration one window at a time as observations arrive.  Window 0
        simulates the prior cloud from burn-in; every later window needs
        the previous window's resampled ``posterior`` (its particles must
        carry checkpoints).  ``n_proposals`` / ``resample_size`` are the
        size-policy plans for this window (see :meth:`planned_sizes_after`;
        defaults reproduce the classic fixed sizes).  ``observations`` only
        needs to cover this window's day range, and all per-window
        randomness is keyed by ``index``, so stepping windows one at a time
        is bit-identical to a full :meth:`run` over the same schedule.
        """
        if observations.start_day > window.start_day or \
                observations.end_day < window.end_day:
            raise ValueError(
                f"observations cover days [{observations.start_day}, "
                f"{observations.end_day}) but window {index} needs "
                f"[{window.start_day}, {window.end_day})")
        pending = self.propose_window(index, window, posterior,
                                      n_proposals=n_proposals)
        return self.weigh_window(index, window, self._window_ensemble(pending),
                                 observations, sim_days=pending.sim_days,
                                 resample_size=resample_size)

    def planned_sizes_after(self, result: WindowResult, *,
                            next_window_days: int) -> tuple[int, int]:
        """The size plans ``(n_proposals, resample_size)`` for the window
        after ``result``.

        Both policies are stateless and Markovian in the previous window's
        realised outcome: the proposal plan depends only on
        ``result.diagnostics`` and the realised cloud size, the resample
        plan is the realised posterior size.  This is what lets a resumed
        or streaming run recover the exact plans of an uninterrupted run
        from the latest window alone (see :meth:`restore_latest_window`).
        """
        proposed = int(self._size_policy.next_size(
            window_index=result.index,
            current_size=result.diagnostics.n_particles,
            diagnostics=result.diagnostics,
            next_window_days=next_window_days))
        if proposed < 1:
            raise ValueError(
                f"size policy proposed a cloud of {proposed} "
                f"particles after window {result.index}")
        return proposed, len(result.posterior)

    def _check_coverage(self, observations: ObservationSet) -> None:
        if observations.start_day > self.schedule.start_day or \
                observations.end_day < self.schedule.end_day:
            raise ValueError(
                f"observations cover days [{observations.start_day}, "
                f"{observations.end_day}) but the schedule needs "
                f"[{self.schedule.start_day}, {self.schedule.end_day})")

    # ------------------------------------------------------------------ #
    # Fault tolerance: shard-failure reporting, persistence, resume.
    # ------------------------------------------------------------------ #
    def _on_shard_failure(self, failure: ShardFailure) -> None:
        self._window_shard_failures.append(failure)
        self._progress(
            f"shard {failure.shard_id} attempt {failure.attempt} failed "
            f"[{failure.cause}] {failure.error}; retrying")

    def run_fingerprint(self) -> dict:
        """JSON-stable identity of everything that determines a run's bits.

        Stored in the checkpoint store's ``run_meta.json`` and validated on
        reuse/resume: two runs with equal fingerprints produce bit-identical
        windows, so resuming across a fingerprint mismatch is refused.  The
        shard layout is recorded in *resolved* form — ``n_shards="auto"``
        depends on the executor's worker count, and that resolution (not
        the config string) is what keys the per-shard RNG streams.
        """
        cfg = self.config

        def policy_tag(policy: str | EnsembleSizePolicy) -> str:
            return policy if isinstance(policy, str) else repr(policy)

        def sorted_dict(d: Mapping) -> dict:
            return {str(k): d[k] for k in sorted(d)}

        # "engine" and "weighting" name the one production path; they stay
        # literal so stores written when other paths existed still resume.
        fingerprint = {
            "format_version": 1,
            "base_seed": cfg.base_seed,
            "engine": "binomial_leap_batched",
            "engine_options": sorted_dict(cfg.engine_options),
            "shard_layout": self._shard_layout_kwargs(),
            "n_parameter_draws": cfg.n_parameter_draws,
            "n_replicates": cfg.n_replicates,
            "resample_size": cfg.resample_size,
            "n_continuations": cfg.n_continuations,
            "resampler": cfg.resampler,
            "weighting": "batched",
            "size_policy": policy_tag(cfg.size_policy),
            "size_policy_options": sorted_dict(cfg.size_policy_options),
            "resample_size_policy": policy_tag(cfg.resample_size_policy),
            "resample_size_policy_options":
                sorted_dict(cfg.resample_size_policy_options),
            "temper": [cfg.temper_degenerate, cfg.temper_threshold,
                       cfg.temper_ess_floor, cfg.temper_resampler],
            "schedule": [w.label() for w in self.schedule],
            "burn_in_start": self.schedule.burn_in_start,
            "param_map": sorted_dict(self.param_map),
        }
        # Pre-scenario stores carry no "scenario" key; a baseline scenario
        # is bit-identical to no scenario, so it must fingerprint the same
        # way — the key appears only when the scenario changes the bits.
        if self.scenario is not None and not self.scenario.is_baseline:
            fingerprint["scenario"] = self.scenario.fingerprint_payload()
        return fingerprint

    def persist_window(self, store: CheckpointStore,
                        result: WindowResult) -> None:
        """Durably persist one completed window's resampled posterior.

        The posterior's distinct checkpoints, each particle's index into
        them, and the window's parameters, seeds, ancestry and diagnostics
        are sealed in one atomically published file (see
        :meth:`~repro.hpc.checkpoint_io.CheckpointStore.save_window_state`),
        so a crash mid-persist leaves an unsealed — and therefore skipped —
        window, never a corrupt restart point.
        """
        posterior = result.posterior
        meta = {
            "format_version": 1,
            "window_index": result.index,
            "window_label": result.window.label(),
            "params": posterior.param_records(),
            "seeds": posterior.seeds().tolist(),
            "ancestors": posterior.ancestors().tolist(),
            "diagnostics": result.diagnostics.to_dict(),
        }
        store.save_window_state(result.index, posterior.checkpoints(), meta)

    def _restore_results(self, store: CheckpointStore,
                         windows: list[TimeWindow]) -> list[WindowResult]:
        """Rebuild :class:`WindowResult`\\ s for the complete stored prefix.

        Only a gapless prefix of complete windows is restored (a gap means
        everything after it must be recomputed anyway).  Checkpoints are
        loaded for the final restored window only — that is the posterior
        the next window restarts from; earlier windows carry posterior
        samples and diagnostics for reporting.
        """
        prefix: list[int] = []
        for index in range(len(windows)):
            if not store.window_complete(index):
                break
            prefix.append(index)
        return [self._restore_window(store, index, windows[index],
                                     with_checkpoints=(index == prefix[-1]))
                for index in prefix]

    def _restore_window(self, store: CheckpointStore, index: int,
                        window: TimeWindow, *,
                        with_checkpoints: bool) -> WindowResult:
        """Rebuild one stored window's :class:`WindowResult`.

        Checkpoints are loaded only when requested (they are needed only
        for the window the run restarts from); posterior samples,
        ancestry, and diagnostics always restore.
        """
        checkpoints: list[Checkpoint] | None = None
        if with_checkpoints:
            checkpoints, meta = store.load_window_state(index)
        else:
            meta = store.load_window_meta(index)
        if int(meta.get("window_index", -1)) != index:
            raise CheckpointError(
                f"window {index} metadata names window "
                f"{meta.get('window_index')!r}; store is inconsistent")
        if str(meta.get("window_label")) != window.label():
            raise CheckpointError(
                f"stored window {index} covers "
                f"{meta.get('window_label')!r} but the schedule expects "
                f"{window.label()!r}")
        params = list(meta["params"])
        seeds = list(meta["seeds"])
        ancestors = list(meta["ancestors"])
        if not len(params) == len(seeds) == len(ancestors):
            raise CheckpointError(
                f"window {index} metadata arrays disagree on length")
        if checkpoints is not None and len(checkpoints) != len(params):
            raise CheckpointError(
                f"window {index} stores {len(checkpoints)} "
                f"checkpoints but {len(params)} posterior samples")
        particles = []
        for i in range(len(params)):
            particles.append(Particle(
                params={k: float(v) for k, v in dict(params[i]).items()},
                seed=int(seeds[i]), ancestor=int(ancestors[i]),
                checkpoint=checkpoints[i] if checkpoints is not None
                else None))
        return WindowResult(
            index=index, window=window,
            posterior=ParticleEnsemble(particles),
            diagnostics=WindowDiagnostics.from_dict(
                dict(meta["diagnostics"])))

    def restore_latest_window(self, store: CheckpointStore
                              ) -> WindowResult | None:
        """Restore the newest *complete* stored window alone, with
        checkpoints.

        The streaming-service resume path: unlike :meth:`run`'s
        gapless-prefix restore (which rebuilds every window for the final
        :class:`~repro.inference.results.CalibrationResult`), continuing
        the calibration needs only the latest sealed window — the size
        plans for the next window derive from it alone
        (:meth:`planned_sizes_after`) — so this tolerates stores whose
        older windows were pruned by
        :meth:`~repro.hpc.checkpoint_io.CheckpointStore.prune`.  Returns
        ``None`` for a store with no complete window.
        """
        windows = list(self.schedule)
        for index in sorted(store.stored_windows(), reverse=True):
            if not store.window_complete(index):
                continue
            if index >= len(windows):
                raise CheckpointError(
                    f"store holds window {index} but the schedule has only "
                    f"{len(windows)} windows")
            return self._restore_window(store, index, windows[index],
                                        with_checkpoints=True)
        return None

    def _replay_policies(self, results: list[WindowResult],
                         windows: list[TimeWindow]) -> tuple[int, int]:
        """Replay the size policies over the restored prefix.

        Size policies are stateless (frozen dataclasses of
        :mod:`repro.core.ensemble_control`) and Markovian in the previous
        window's outcome, so the last restored window alone recovers
        exactly the ``planned`` / ``planned_resample`` values the
        uninterrupted run would carry into the first recomputed window —
        no policy state needs persisting.
        """
        last = results[-1]
        if last.index + 1 >= len(windows):
            # Everything restored; the plans are never consulted again.
            return (self.config.continuation_ensemble_size,
                    len(last.posterior))
        return self.planned_sizes_after(
            last, next_window_days=windows[last.index + 1].n_days)

    # ------------------------------------------------------------------ #
    def _window_base_params(self, window: TimeWindow) -> DiseaseParameters:
        """The scenario-effective base parameterisation for one window.

        Applies every scenario override whose start day has been reached by
        ``window.start_day`` (validation guarantees those are day-0
        rewrites or overrides landing exactly on this window's start);
        without a scenario this is ``base_params`` itself, bit-for-bit.
        """
        if self.scenario is None:
            return self.base_params
        return self.scenario.params_at(window.start_day, self.base_params)

    def _shard_layout_kwargs(self) -> dict:
        """Resolve the configured shard policy against the executor.

        Delegates to the shared policy implementation
        (:func:`~repro.hpc.sharding.resolve_shard_layout`): one shard per
        worker under ``"auto"``, so a serial executor keeps the
        single-shard in-process fast path.
        """
        return resolve_shard_layout(self.executor,
                                    shard_size=self.config.shard_size,
                                    n_shards=self.config.n_shards)

    # ------------------------------------------------------------------ #
    # Split-phase API: propose -> simulate -> assemble -> weigh.
    #
    # ``step_window`` fuses the phases for a single scenario;
    # :class:`~repro.core.scenarios.ScenarioSweep` calls them separately so
    # that many scenarios' proposal clouds can be flattened into ONE shard
    # dispatch (``simulate_group_sets``).  Because per-shard RNG streams are
    # keyed by seed slices only — never by shard id — the flattened dispatch
    # is bit-identical to dispatching each scenario alone.
    # ------------------------------------------------------------------ #
    def propose_window(self, index: int, window: TimeWindow,
                       posterior: ParticleEnsemble | None = None, *,
                       n_proposals: int | None = None) -> PendingWindow:
        """Build (but do not simulate) one window's proposal cloud.

        Consumes exactly the ancillary/jitter randomness the fused path
        consumes, in the same order, so
        ``assemble_window(p, simulate_groups(...))`` over the returned plan
        is bit-identical to the fused :meth:`step_window`.  Window 0 ignores
        ``posterior``; continuations require it (particles must carry
        checkpoints).
        """
        self._window_shard_failures = []
        if index == 0:
            return self._propose_first_window(window)
        if posterior is None:
            raise ValueError(
                f"window {index} is a continuation and needs the "
                "previous window's posterior")
        return self._propose_continuation(index, window, posterior,
                                          n_proposals=n_proposals)

    def _draw_matrix(self, draws: Mapping[str, np.ndarray]) -> np.ndarray:
        """Name-keyed draw vectors as one matrix, columns in prior order."""
        return np.column_stack([np.asarray(draws[name], dtype=np.float64)
                                for name in self.prior.names])

    def _plan_window(self, index: int, window: TimeWindow, sim_days: int,
                     draws: np.ndarray, seeds: np.ndarray, *,
                     start_day: int | None = None,
                     parents: ParticleEnsemble | None = None,
                     parent_rows: np.ndarray | None = None
                     ) -> PendingWindow:
        """Group the members into structural groups.

        Only ``param_map`` fields vary between members and only the
        non-transmission ones are structural, so members group by those
        columns' values, in order of first appearance — the grouping
        :func:`~repro.hpc.sharding.structural_groups` computes from
        per-member parameters, without building them.
        """
        base = self._window_base_params(window)
        names = tuple(self.prior.names)
        field_columns = {fld: names.index(name)
                         for name, fld in self.param_map.items()}
        base.check_column_updates({fld: draws[:, col]
                                   for fld, col in field_columns.items()})
        structural = [col for fld, col in field_columns.items()
                      if fld != "transmission_rate"]
        groups: list[np.ndarray]
        if structural:
            keyed: dict[tuple, list[int]] = {}
            for i, key in enumerate(draws[:, structural].tolist()):
                keyed.setdefault(tuple(key), []).append(i)
            groups = [np.array(g, dtype=np.int64) for g in keyed.values()]
        else:
            groups = [np.arange(len(seeds))]
        thetas = (draws[:, field_columns["transmission_rate"]]
                  if "transmission_rate" in field_columns
                  else np.full(len(seeds), float(base.transmission_rate)))
        return PendingWindow(
            index=index, window=window, sim_days=sim_days, groups=groups,
            param_names=names, draws=draws, seeds=seeds, thetas=thetas,
            base=base, field_columns=field_columns, start_day=start_day,
            parents=parents, parent_rows=parent_rows)

    def _propose_first_window(self, window: TimeWindow) -> PendingWindow:
        cfg = self.config
        rng_prior = self._bank.ancillary_generator(_PURPOSE_PRIOR)
        draws = self._draw_matrix(
            self.prior.sample(cfg.n_parameter_draws, rng_prior))
        seeds = np.array(self._bank.common_replicate_seeds(cfg.n_replicates),
                         dtype=np.int64)
        # Members are ordered draw-major, replicate-minor.
        pending = self._plan_window(
            0, window, window.end_day - self.schedule.burn_in_start,
            np.repeat(draws, cfg.n_replicates, axis=0),
            np.tile(seeds, cfg.n_parameter_draws),
            start_day=self.schedule.burn_in_start)
        self._progress(f"window 0: batch-simulating {pending.n_members} prior "
                       f"trajectories ({len(pending.groups)} structural "
                       f"group(s), {self.executor.workers} worker(s))")
        return pending

    def _propose_continuation(self, index: int, window: TimeWindow,
                              posterior: ParticleEnsemble, *,
                              n_proposals: int | None = None) -> PendingWindow:
        cfg = self.config
        n = int(n_proposals) if n_proposals is not None \
            else cfg.continuation_ensemble_size
        if n < 1:
            raise ValueError("n_proposals must be >= 1")
        for j, checkpoint in enumerate(posterior.checkpoints()):
            if checkpoint is None:
                raise ValueError(
                    f"window {index} restarts the previous posterior's "
                    f"checkpoints, but its particle {j} carries none")
        rng_jitter = self._bank.ancillary_generator(_PURPOSE_JITTER,
                                                    window_index=index)
        parent_rows = np.arange(n) % len(posterior)
        centers = {name: posterior.values(name)[parent_rows]
                   for name in self.prior.names}
        draws = self._draw_matrix(self.jitter.propose(centers, rng_jitter))
        pending = self._plan_window(
            index, window, window.n_days, draws,
            self._bank.window_draw_seeds(index, n), parents=posterior,
            parent_rows=parent_rows)
        self._progress(
            f"window {index}: batch-restarting {n} "
            f"checkpoints ({window.label()})")
        return pending

    def _window_ensemble(self, pending: PendingWindow) -> ParticleEnsemble:
        """Simulate a pending window and assemble its ensemble.

        One of the two seams :mod:`repro.testing.reference` overrides with
        its per-particle scalar-engine oracle.
        """
        return self.assemble_window(pending, self._simulate_pending(pending))

    def _simulate_pending(self, pending: PendingWindow) -> list[GroupShards]:
        cfg = self.config
        return simulate_groups(self.executor, pending.group_specs(),
                               end_day=pending.window.end_day,
                               engine_options=cfg.engine_options,
                               retry=cfg.retry,
                               on_failure=self._on_shard_failure,
                               **self._shard_layout_kwargs())

    def assemble_window(self, pending: PendingWindow,
                        shards: list[GroupShards]) -> ParticleEnsemble:
        """Reassemble a dispatched :class:`PendingWindow` into an ensemble.

        ``shards`` is the per-group result list for exactly
        ``pending.group_specs()`` (e.g. one element of a
        :func:`~repro.hpc.sharding.simulate_group_sets` return).  The shard
        outputs are stacked into member order once.  Window 0's histories
        are the whole simulated range and its segments the window's days;
        continuations append each member's segment to its parent's history
        row.  Checkpoints are left in the shards' stacked states until
        resampling asks for them (:class:`_ShardCheckpoints`).
        """
        blocks: list[BatchTrajectory] = []
        states: list[StackedLeapState] = []
        members: list[np.ndarray] = []
        for indices, group in zip(pending.groups, shards):
            for (lo, hi), result in zip(group.bounds, group.results):
                if result.state is None:
                    raise ValueError(
                        f"window {pending.index}: shard {result.shard_id} "
                        "returned no state to checkpoint from")
                blocks.append(result.batch)
                states.append(result.state)
                members.append(indices[lo:hi])
        order = np.concatenate(members)
        if not np.array_equal(np.sort(order), np.arange(pending.n_members)):
            raise ValueError(
                f"window {pending.index}: shard results cover "
                f"{len(order)} rows, not each of {pending.n_members} "
                "members once")
        batch = BatchTrajectory.concatenate(blocks)
        if not np.array_equal(order, np.arange(len(order))):
            batch = batch.rows(np.argsort(order))
        if pending.parents is None:
            segments = batch.window(pending.window.start_day,
                                    pending.window.end_day)
            histories = batch
        elif pending.parent_rows is None:
            raise ValueError(
                f"window {pending.index}: a continuation needs each "
                "member's parent row")
        else:
            segments = histories = batch
            parent_histories = pending.parents.trajectory_matrices("history")
            if parent_histories is not None:
                histories = parent_histories.rows(
                    pending.parent_rows).extended_by(segments)
        return ParticleEnsemble.from_columns(
            pending.param_names, pending.draws, pending.seeds,
            segments=segments, histories=histories,
            checkpoints=_ShardCheckpoints(states, members,
                                          pending.member_params))

    # ------------------------------------------------------------------ #
    def _log_weights(self, index: int, window_obs: ObservationSet,
                     ensemble: ParticleEnsemble,
                     rng_bias: np.random.Generator) -> np.ndarray:
        """Log-likelihood of every particle's segment, one call per source.

        The other seam :mod:`repro.testing.reference` overrides, with its
        per-particle weighting loop.
        """
        return self.observation_model.loglik_ensemble(
            window_obs, ensemble, ensemble.values(BIAS_PARAM), rng_bias)

    def weigh_window(self, index: int, window: TimeWindow,
                     ensemble: ParticleEnsemble,
                     observations: ObservationSet,
                     sim_days: int | None = None,
                     resample_size: int | None = None) -> WindowResult:
        """Weight the window's cloud and draw its resampled posterior.

        The third phase of the split-phase API (after
        :meth:`propose_window` / :meth:`assemble_window`) — also the tail
        of every fused :meth:`step_window`.  ``resample_size`` is the
        resample-size policy's running state (the
        previous window's realised posterior size; default
        ``SMCConfig.resample_size``): the policy maps it and the window's
        pre-resampling weight diagnostics to this window's posterior count.
        With ``temper_degenerate`` set, a window whose ESS fraction falls
        below ``temper_threshold`` is resampled through the staged tempered
        bridge instead of one multinomial pass — drawing from the same
        window-indexed resampling stream, so reproducibility per
        ``(base_seed, shard layout)`` is unchanged — and the realised
        schedule lands in the diagnostics.
        """
        cfg = self.config
        if sim_days is None:
            sim_days = window.n_days
        window_obs = observations.window(window.start_day, window.end_day)
        rng_bias = self._bank.ancillary_generator(_PURPOSE_BIAS,
                                                  window_index=index)

        log_weights = self._log_weights(index, window_obs, ensemble,
                                        rng_bias)
        weighted_ensemble = ensemble.with_log_weights(log_weights)

        normalized = normalize_log_weights(log_weights)
        particle_steps = len(ensemble) * int(sim_days)
        # The posterior-size decision needs this window's weight health, so
        # the policy sees the pre-resampling diagnostics (ancestors unknown
        # yet, hence 0); the recorded diagnostics are rebuilt below with the
        # realised ancestry and tempering audit trail.
        pre_diag = compute_diagnostics(log_weights, normalized, 0,
                                       particle_steps=particle_steps)
        current_resample = int(resample_size if resample_size is not None
                               else cfg.resample_size)
        n_out = int(self._resample_policy.next_size(
            window_index=index, current_size=current_resample,
            diagnostics=pre_diag, next_window_days=window.n_days))
        if n_out < 1:
            raise ValueError(
                f"resample size policy proposed a posterior of {n_out} "
                f"particles for window {index}")
        if n_out != current_resample:
            self._progress(
                f"window {index}: resample policy resized posterior "
                f"{current_resample} -> {n_out} (ESS fraction "
                f"{pre_diag.ess_fraction:.2f})")

        rng_resample = self._bank.ancillary_generator(_PURPOSE_RESAMPLE,
                                                      window_index=index)
        schedule: tuple[float, ...] = ()
        stage_ess: tuple[float, ...] = ()
        if cfg.temper_degenerate and \
                pre_diag.ess_fraction < cfg.temper_threshold:
            tempered = temper_and_resample(
                log_weights, n_out, rng_resample,
                ess_floor_fraction=cfg.temper_ess_floor,
                resampler=cfg.temper_resampler)
            indices = tempered.indices
            schedule, stage_ess = tempered.schedule, tempered.stage_ess
            self._progress(
                f"window {index}: tempered rescue bridged "
                f"{tempered.n_stages} stage(s) (ESS fraction "
                f"{pre_diag.ess_fraction:.3f} < {cfg.temper_threshold})")
        else:
            indices = get_resampler(cfg.resampler)(normalized, n_out,
                                                   rng_resample)
        posterior = weighted_ensemble.select(indices)

        # The weight statistics are unchanged since pre_diag; only the
        # realised ancestry, the tempering audit trail, and the window's
        # recovered shard failures are new.
        failures = self._window_shard_failures
        diagnostics = replace(
            pre_diag, unique_ancestors=int(posterior.unique_ancestors()),
            temper_schedule=tuple(float(b) for b in schedule),
            temper_stage_ess=tuple(float(e) for e in stage_ess),
            shard_failures=len(failures),
            shard_failure_causes=tuple(f.cause for f in failures))
        return WindowResult(
            index=index, window=window, posterior=posterior,
            diagnostics=diagnostics,
            weighted_ensemble=weighted_ensemble
            if cfg.keep_weighted_ensemble else None)
