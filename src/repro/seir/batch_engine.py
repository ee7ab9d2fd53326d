"""Batched binomial-leap engine: the whole particle cloud as one matrix.

:class:`BatchedBinomialLeapEngine` advances an entire ensemble as a single
``(n_particles, n_compartments)`` int64 state matrix.  Per substep it issues

* one vectorised ``binomial`` over the susceptible column for infections
  (per-particle force of infection, so every member keeps its own theta),
* one ``binomial`` over the ``(n_particles, n_sources)`` occupancy matrix
  for the total exits of every transient compartment, and
* one batched allocation per *active* multi-destination source (a
  complementary ``binomial`` for two-way splits, ``multinomial`` otherwise),

replacing ``n_particles`` scalar engine objects and Python substep loops
with a handful of NumPy calls per substep.  Dynamics are identical in law
to :class:`~repro.seir.tauleap.BinomialLeapEngine` — same transition table
(:func:`~repro.seir.tauleap.compiled_transitions_for`), same per-substep
exit probabilities — which is what the scalar/batched parity tests assert
distributionally (matched means/variances of daily infections, deaths and
census under common parameters).

Batch RNG contract
------------------
All members draw from **one** shared generator keyed by the *ordered* seed
vector (:func:`~repro.seir.seeding.batch_generator_for`; see the draw-order
precedent in :mod:`repro.core.bias`).  Consequences, in contract form:

* A batched run is bit-reproducible given ``(base_seed, seed vector,
  ensemble order)`` — the calibrator derives the seed vector from its
  :class:`~repro.seir.seeding.SeedSequenceBank`, so fixing the base seed
  fixes the whole batched simulation.
* The stream is consumed substep-major: infections for all particles, then
  the exit matrix, then allocation draws source-by-source in table order —
  allocation draws are issued only for sources with at least one exit
  anywhere in the batch (a deterministic function of the state).
* Per-member draws depend on the batch composition, so the scalar
  invariant ``(theta, s) -> trajectory`` is relaxed to batch level: scalar
  and batched trajectories for the same seed agree in distribution, not
  bit-for-bit.  The paper's common-random-numbers replicate coupling is
  likewise distributional only under batching.

Per-shard extension (sharded dispatch)
--------------------------------------
When a batch is split into contiguous shards to use several executor
workers (:mod:`repro.hpc.sharding`), **each shard is its own batch**: its
stream is keyed by the ordered seed vector of its slice alone
(:meth:`~repro.seir.seeding.SeedSequenceBank.shard_simulation_generators`).
Therefore

* a sharded run is bit-reproducible given ``(base_seed, shard layout)``
  and independent of *which* executor runs the shards (serial and process
  pools agree bit-for-bit for the same layout),
* a single shard covering the whole group reproduces the unsharded batch
  stream exactly (the serial fast path), and
* changing the shard layout re-keys every shard's stream — results across
  layouts agree in distribution only, exactly as scalar vs batched do.

Checkpoints are exported *per particle* in the scalar ``binomial_leap``
snapshot format, so resampling, forecasting and scalar restarts consume
them unchanged; the recorded RNG state is the fresh per-seed stream of
:func:`~repro.seir.seeding.generator_for` (a batch stream cannot be
partitioned per member).  A batched restart from per-particle checkpoints
(:meth:`BatchedBinomialLeapEngine.from_particle_snapshots`) always starts a
fresh batch stream from its new seed vector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.contracts import shaped
from ..data.schedule import PiecewiseConstant
from .checkpoint import Checkpoint, StackedLeapState, stack_leap_snapshots
from .compartments import (Compartment, HOSPITAL_COMPARTMENTS,
                           ICU_COMPARTMENTS, N_COMPARTMENTS)
from .outputs import Trajectory
from .parameters import DiseaseParameters
from .seeding import (batch_generator_for, generator_for,
                      rng_from_jsonable, rng_state_to_jsonable)
from .tauleap import compiled_transitions_for

__all__ = ["BatchedBinomialLeapEngine", "BatchTrajectory",
           "leap_particle_snapshot", "stack_channel_tensor"]

_S = int(Compartment.S)
_E = int(Compartment.E)


def leap_particle_snapshot(day: int, counts_row, cum_infections: int,
                           cum_deaths: int, steps_per_day: int,
                           seed: int) -> dict:
    """One ensemble member's state as a scalar ``binomial_leap`` snapshot.

    The interchange format between batched state (rows of a stacked count
    matrix, wherever it lives — an engine in this process or a shard result
    shipped back from a worker) and the scalar checkpoint machinery.  The
    recorded RNG state is the member seed's fresh :func:`generator_for`
    stream: a shared batch stream has no per-member marginal, and every
    calibrator restart overrides the seed anyway.
    """
    return {
        "engine": "binomial_leap",
        "day": int(day),
        "counts": np.asarray(counts_row, dtype=np.int64).tolist(),
        "cum_infections": int(cum_infections),
        "cum_deaths": int(cum_deaths),
        "steps_per_day": int(steps_per_day),
        "seed": int(seed),
        "rng_state": rng_state_to_jsonable(generator_for(int(seed))),
    }
_HOSP_COLS = np.array([int(c) for c in HOSPITAL_COMPARTMENTS], dtype=np.int64)
_ICU_COLS = np.array([int(c) for c in ICU_COMPARTMENTS], dtype=np.int64)


class BatchTrajectory:
    """Stacked daily outputs of a batched run over ``[start_day, end_day)``.

    Channel matrices are ``(n_particles, n_days)`` float64, row ``i`` being
    member ``i``'s record.  :meth:`trajectory` materialises a per-particle
    :class:`~repro.seir.outputs.Trajectory` on demand.  This is also the
    segment/history layout of the columnar
    :class:`~repro.core.particle.ParticleEnsemble`, which selects rows
    (:meth:`rows`) and appends continuation windows (:meth:`extended_by`)
    without per-member objects.
    """

    def __init__(self, start_day: int, infections: np.ndarray,
                 deaths: np.ndarray, hospital_census: np.ndarray,
                 icu_census: np.ndarray) -> None:
        self.start_day = int(start_day)
        mats = [np.asarray(m, dtype=np.float64)
                for m in (infections, deaths, hospital_census, icu_census)]
        shape = mats[0].shape
        if len(shape) != 2 or any(m.shape != shape for m in mats):
            raise ValueError("channel matrices must share one 2-d shape")
        self.infections, self.deaths = mats[0], mats[1]
        self.hospital_census, self.icu_census = mats[2], mats[3]

    @property
    def n_particles(self) -> int:
        return int(self.infections.shape[0])

    @property
    def n_days(self) -> int:
        return int(self.infections.shape[1])

    @property
    def end_day(self) -> int:
        return self.start_day + self.n_days

    @shaped(returns="(n_particles, n_days) float64")
    def channel_matrix(self, channel: str) -> np.ndarray:
        """The named channel's ``(n_particles, n_days)`` matrix (no copy)."""
        from ..data.sources import CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS
        mapping = {CASES: self.infections, DEATHS: self.deaths,
                   HOSPITAL_CENSUS: self.hospital_census,
                   ICU_CENSUS: self.icu_census}
        if channel not in mapping:
            raise KeyError(f"unknown channel {channel!r}")
        return mapping[channel]

    def _channels(self) -> tuple[np.ndarray, ...]:
        return (self.infections, self.deaths, self.hospital_census,
                self.icu_census)

    def trajectory(self, i: int) -> Trajectory:
        """Member ``i``'s record as a scalar :class:`Trajectory`."""
        return Trajectory(self.start_day, self.infections[i], self.deaths[i],
                          self.hospital_census[i], self.icu_census[i])

    def trajectories(self) -> list[Trajectory]:
        return [self.trajectory(i) for i in range(self.n_particles)]

    @classmethod
    def from_trajectories(cls, trajectories: "Sequence[Trajectory]"
                          ) -> "BatchTrajectory":
        """Stack per-particle records that share one day range."""
        if not trajectories:
            raise ValueError("need at least one trajectory to stack")
        first = trajectories[0]
        if any(t.start_day != first.start_day or len(t) != len(first)
               for t in trajectories):
            raise ValueError("trajectories must share one day range")
        return cls(first.start_day,
                   np.stack([t.infections for t in trajectories]),
                   np.stack([t.deaths for t in trajectories]),
                   np.stack([t.hospital_census for t in trajectories]),
                   np.stack([t.icu_census for t in trajectories]))

    @classmethod
    def concatenate(cls, batches: "list[BatchTrajectory]"
                    ) -> "BatchTrajectory":
        """Stack member blocks that cover one day range, in order."""
        if not batches:
            raise ValueError("need at least one BatchTrajectory to stack")
        first = batches[0]
        for b in batches[1:]:
            if (b.start_day, b.n_days) != (first.start_day, first.n_days):
                raise ValueError(
                    f"batches disagree on coverage: [{b.start_day}, "
                    f"{b.end_day}) vs [{first.start_day}, {first.end_day})")
        return cls(first.start_day,
                   *(np.concatenate(mats) for mats in
                     zip(*(b._channels() for b in batches))))

    def rows(self, index: np.ndarray) -> "BatchTrajectory":
        """The members at ``index`` (repeats allowed), copied."""
        idx = np.asarray(index, dtype=np.int64)
        return BatchTrajectory(self.start_day,
                               *(m[idx] for m in self._channels()))

    def extended_by(self, other: "BatchTrajectory") -> "BatchTrajectory":
        """Append every member's continuation segment (row ``i`` to row
        ``i``), one concatenate per channel."""
        if other.start_day != self.end_day:
            raise ValueError(
                f"continuation starts at day {other.start_day}, "
                f"expected {self.end_day}")
        if other.n_particles != self.n_particles:
            raise ValueError(
                f"continuation has {other.n_particles} members, "
                f"expected {self.n_particles}")
        return BatchTrajectory(
            self.start_day,
            *(np.concatenate([a, b], axis=1)
              for a, b in zip(self._channels(), other._channels())))

    def window(self, start_day: int, end_day: int) -> "BatchTrajectory":
        """Slice all members to days ``[start_day, end_day)``."""
        if start_day < self.start_day or end_day > self.end_day \
                or end_day < start_day:
            raise ValueError(
                f"window [{start_day}, {end_day}) not within "
                f"[{self.start_day}, {self.end_day})")
        lo, hi = start_day - self.start_day, end_day - self.start_day
        return BatchTrajectory(start_day, self.infections[:, lo:hi],
                               self.deaths[:, lo:hi],
                               self.hospital_census[:, lo:hi],
                               self.icu_census[:, lo:hi])


@shaped(returns="(n_scenarios, n_particles, n_days) float64")
def stack_channel_tensor(batches: "list[BatchTrajectory]",
                         channel: str) -> np.ndarray:
    """Stack per-scenario batches into one scenario-axis tensor (copies).

    The scenario-tensor view of a sweep: element ``[s, i, d]`` is scenario
    ``s``'s member ``i`` on day ``d``.  Every batch must cover the same
    days with the same member count — scenarios are parameter worlds over
    one shared cloud shape, so a shape mismatch means the inputs are not
    one sweep's outputs.
    """
    if not batches:
        raise ValueError("need at least one BatchTrajectory to stack")
    first = batches[0]
    for b in batches[1:]:
        if (b.start_day, b.n_particles, b.n_days) != \
                (first.start_day, first.n_particles, first.n_days):
            raise ValueError(
                f"scenario batches disagree on shape/coverage: "
                f"(start_day={b.start_day}, n_particles={b.n_particles}, "
                f"n_days={b.n_days}) vs (start_day={first.start_day}, "
                f"n_particles={first.n_particles}, n_days={first.n_days})")
    return np.stack([b.channel_matrix(channel) for b in batches], axis=0)


class BatchedBinomialLeapEngine:
    """Chain-binomial SEIR engine for a whole ensemble at once.

    Parameters
    ----------
    params:
        Shared *structural* disease parameterisation (everything except the
        transmission rate must be common to the batch; members with
        different structure belong in different batches).
    seeds:
        Ordered per-member seed vector; together with ``params``/``thetas``
        it keys the shared batch RNG stream (see the module docstring).
    thetas:
        Optional per-member transmission rates; defaults to
        ``params.transmission_rate`` for every member.
    steps_per_day:
        Substeps per simulated day (leap accuracy knob; 4 by default).
    theta_schedule:
        Optional piecewise schedule applied to *all* members, overriding
        ``thetas`` day by day (mirrors the scalar engine's precedence).
    start_day:
        Day index at which the batch clock begins.
    rng:
        Optional pre-built batch generator (e.g. from
        :meth:`~repro.seir.seeding.SeedSequenceBank.batch_simulation_generator`);
        defaults to :func:`batch_generator_for` over ``seeds``.  Callers
        passing their own generator own the reproducibility contract.
    """

    name = "binomial_leap_batched"

    def __init__(self, params: DiseaseParameters, seeds, *,
                 thetas=None, steps_per_day: int = 4,
                 theta_schedule: PiecewiseConstant | None = None,
                 start_day: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        if steps_per_day < 1:
            raise ValueError("steps_per_day must be >= 1")
        self.params = params
        self.seeds = np.array(seeds, dtype=np.int64)
        if self.seeds.ndim != 1 or self.seeds.size < 1:
            raise ValueError("seeds must be a non-empty 1-d vector")
        n = self.seeds.size
        self.steps_per_day = int(steps_per_day)
        self.theta_schedule = theta_schedule
        self._set_thetas(thetas, n)
        self._prepare_tables()
        self._rng = rng if rng is not None else batch_generator_for(self.seeds)

        self._day = int(start_day)
        self._counts = np.zeros((n, N_COMPARTMENTS), dtype=np.int64)
        self._counts[:, _S] = params.population - params.initial_exposed
        self._counts[:, _E] = params.initial_exposed
        self._cum_infections = np.zeros(n, dtype=np.int64)
        self._cum_deaths = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _set_thetas(self, thetas, n: int) -> None:
        if thetas is None:
            self._thetas = np.full(n, float(self.params.transmission_rate))
        else:
            self._thetas = np.asarray(thetas, dtype=np.float64).copy()
            if self._thetas.shape != (n,):
                raise ValueError("thetas must match the seed vector length")
            if not np.all(np.isfinite(self._thetas)):
                raise ValueError("thetas must be finite")

    def _prepare_tables(self) -> None:
        table = compiled_transitions_for(self.params)
        self._table = table
        dt = 1.0 / self.steps_per_day
        self._p_exit = -np.expm1(-table.total_hazards * dt)
        self._src_list = [int(s) for s in table.sources]

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def n_particles(self) -> int:
        return int(self.seeds.size)

    @property
    def day(self) -> int:
        """Current simulation day (start of the next unsimulated day)."""
        return self._day

    @property
    def counts(self) -> np.ndarray:
        """Copy of the ``(n_particles, n_compartments)`` occupancy matrix."""
        return self._counts.copy()

    @property
    def thetas(self) -> np.ndarray:
        """Copy of the per-member transmission rates."""
        return self._thetas.copy()

    @property
    def cumulative_infections(self) -> np.ndarray:
        return self._cum_infections.copy()

    @property
    def cumulative_deaths(self) -> np.ndarray:
        return self._cum_deaths.copy()

    def population_conserved(self) -> bool:
        """Closed-population invariant for every member."""
        return bool(np.all(self._counts.sum(axis=1) == self.params.population))

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def _day_thetas(self) -> np.ndarray:
        if self.theta_schedule is None:
            return self._thetas
        return np.full(self.n_particles, float(self.theta_schedule(self._day)))

    @shaped(thetas="(n_members,) float64",
            returns=("(n_members,) int", "(n_members,) int"))
    def _substep(self, thetas: np.ndarray, dt: float
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one substep; return per-member (new_infections, new_deaths)."""
        counts = self._counts
        table = self._table
        rng = self._rng

        lam = thetas * (counts @ table.infection_weights) / self.params.population
        # A non-positive force of infection means no new exposures — the
        # scalar oracle's `if lam > 0` guard, vectorised as a clamp.
        p_inf = -np.expm1(-np.maximum(lam, 0.0) * dt)
        new_e = rng.binomial(counts[:, _S], p_inf)

        # One draw for the total exits of every (member, transient source).
        n_exit = rng.binomial(counts[:, table.sources], self._p_exit)

        delta = np.zeros_like(counts)
        delta[:, _S] -= new_e
        delta[:, _E] += new_e

        new_deaths = np.zeros(self.n_particles, dtype=np.int64)
        for i, src in enumerate(self._src_list):
            k = n_exit[:, i]
            if not k.any():
                continue
            dests = table.dest_indices[i]
            death_mask = table.dest_is_death[i]
            delta[:, src] -= k
            if len(dests) == 1:
                delta[:, dests[0]] += k
                if death_mask[0]:
                    new_deaths += k
            elif len(dests) == 2:
                # Two-way categorical == one complementary binomial.
                first = rng.binomial(k, table.dest_probs[i][0])
                delta[:, dests[0]] += first
                delta[:, dests[1]] += k - first
                if death_mask[0]:
                    new_deaths += first
                if death_mask[1]:
                    new_deaths += k - first
            else:
                allocated = rng.multinomial(k, table.dest_probs[i])
                delta[:, dests] += allocated
                if death_mask.any():
                    new_deaths += allocated[:, death_mask].sum(axis=1)

        counts += delta
        return new_e, new_deaths

    @shaped(returns=("(n_members,) int64", "(n_members,) int64"))
    def step_day(self) -> tuple[np.ndarray, np.ndarray]:
        """Simulate one day; return per-member (new_infections, new_deaths)."""
        thetas = self._day_thetas()
        dt = 1.0 / self.steps_per_day
        day_inf = np.zeros(self.n_particles, dtype=np.int64)
        day_dead = np.zeros(self.n_particles, dtype=np.int64)
        for _ in range(self.steps_per_day):
            inf, dead = self._substep(thetas, dt)
            day_inf += inf
            day_dead += dead
        self._day += 1
        self._cum_infections += day_inf
        self._cum_deaths += day_dead
        return day_inf, day_dead

    def run_until(self, end_day: int) -> BatchTrajectory:
        """Simulate days ``[current_day, end_day)``; return stacked outputs."""
        if end_day < self._day:
            raise ValueError(f"end_day {end_day} is before current day {self._day}")
        start = self._day
        n, n_days = self.n_particles, end_day - start
        infections = np.zeros((n, n_days))
        deaths = np.zeros((n, n_days))
        hosp = np.zeros((n, n_days))
        icu = np.zeros((n, n_days))
        for d in range(n_days):
            day_inf, day_dead = self.step_day()
            infections[:, d] = day_inf
            deaths[:, d] = day_dead
            hosp[:, d] = self._counts[:, _HOSP_COLS].sum(axis=1)
            icu[:, d] = self._counts[:, _ICU_COLS].sum(axis=1)
        return BatchTrajectory(start, infections, deaths, hosp, icu)

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def state_snapshot(self) -> dict:
        """JSON-safe whole-batch snapshot (bit-exact resume via from_snapshot)."""
        return {
            "engine": self.name,
            "day": self._day,
            "counts": self._counts.tolist(),
            "cum_infections": self._cum_infections.tolist(),
            "cum_deaths": self._cum_deaths.tolist(),
            "steps_per_day": self.steps_per_day,
            "seeds": self.seeds.tolist(),
            "thetas": self._thetas.tolist(),
            "rng_state": rng_state_to_jsonable(self._rng),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict, params: DiseaseParameters, *,
                      seeds=None, thetas=None,
                      theta_schedule: PiecewiseConstant | None = None,
                      ) -> "BatchedBinomialLeapEngine":
        """Rebuild a batch engine from a whole-batch snapshot.

        With ``seeds=None`` the serialised batch stream continues bit-exactly
        (and the stored thetas are kept unless overridden); passing a new
        seed vector starts a *fresh* batch stream — the ensemble-wide
        analogue of the paper's restart knob 1.
        """
        engine = cls.__new__(cls)
        if str(snapshot.get("engine", "")) != cls.name:
            raise ValueError(
                f"snapshot is from engine {snapshot.get('engine')!r}, "
                f"expected {cls.name!r}")
        engine.params = params
        engine.steps_per_day = int(snapshot["steps_per_day"])
        if engine.steps_per_day < 1:
            raise ValueError("snapshot steps_per_day must be >= 1")
        engine.theta_schedule = theta_schedule
        stored_seeds = np.asarray(snapshot["seeds"], dtype=np.int64)
        n = stored_seeds.size
        if seeds is None:
            engine.seeds = stored_seeds
            engine._rng = rng_from_jsonable(snapshot["rng_state"])
        else:
            engine.seeds = np.array(seeds, dtype=np.int64)
            if engine.seeds.shape != (n,):
                raise ValueError("replacement seeds must match batch size")
            engine._rng = batch_generator_for(engine.seeds)
        engine._set_thetas(
            np.asarray(snapshot["thetas"], dtype=np.float64)
            if thetas is None else thetas, n)
        engine._prepare_tables()
        engine._day = int(snapshot["day"])
        engine._counts = np.asarray(snapshot["counts"], dtype=np.int64).copy()
        if engine._counts.shape != (n, N_COMPARTMENTS):
            raise ValueError("snapshot counts have wrong shape")
        engine._cum_infections = np.asarray(snapshot["cum_infections"],
                                            dtype=np.int64).copy()
        engine._cum_deaths = np.asarray(snapshot["cum_deaths"],
                                        dtype=np.int64).copy()
        return engine

    # ------------------------------------------------------------------ #
    # Per-particle interchange (scalar-format snapshots / checkpoints)
    # ------------------------------------------------------------------ #
    def particle_snapshot(self, i: int) -> dict:
        """Member ``i``'s state as a scalar ``binomial_leap`` snapshot.

        Consumable by :class:`~repro.seir.tauleap.BinomialLeapEngine` and
        :class:`~repro.seir.checkpoint.Checkpoint` unchanged; see
        :func:`leap_particle_snapshot` for the format and RNG-state
        convention.
        """
        return leap_particle_snapshot(self._day, self._counts[i],
                                      self._cum_infections[i],
                                      self._cum_deaths[i], self.steps_per_day,
                                      self.seeds[i])

    def particle_checkpoint(self, i: int) -> Checkpoint:
        """Member ``i`` as a :class:`Checkpoint` carrying its own theta."""
        params = self.params.with_updates(
            transmission_rate=float(self._thetas[i]))
        return Checkpoint(params=params, snapshot=self.particle_snapshot(i),
                          theta_schedule=None)

    @classmethod
    def from_particle_snapshots(cls, snapshots, params: DiseaseParameters, *,
                                seeds, thetas=None,
                                theta_schedule: PiecewiseConstant | None = None,
                                rng: np.random.Generator | None = None,
                                ) -> "BatchedBinomialLeapEngine":
        """Restart a batch from per-particle scalar snapshots.

        ``snapshots`` may be a sequence of scalar ``binomial_leap`` snapshot
        dicts or an already-stacked
        :class:`~repro.seir.checkpoint.StackedLeapState`.  ``seeds`` is the
        *new* seed vector (one per member, in batch order): the restart
        always begins a fresh batch stream keyed by it (or uses ``rng`` if
        supplied).
        """
        stacked = (snapshots if isinstance(snapshots, StackedLeapState)
                   else stack_leap_snapshots(list(snapshots)))
        if stacked.steps_per_day < 1:
            raise ValueError("stacked steps_per_day must be >= 1")
        seeds_arr = np.array(seeds, dtype=np.int64)
        if seeds_arr.shape != (stacked.n_particles,):
            raise ValueError("seeds must provide one entry per snapshot")
        engine = cls.__new__(cls)
        engine.params = params
        engine.steps_per_day = stacked.steps_per_day
        engine.theta_schedule = theta_schedule
        engine.seeds = seeds_arr
        engine._set_thetas(thetas, stacked.n_particles)
        engine._prepare_tables()
        engine._rng = rng if rng is not None else batch_generator_for(seeds_arr)
        engine._day = stacked.day
        engine._counts = stacked.counts.astype(np.int64, copy=True)
        engine._cum_infections = stacked.cum_infections.astype(np.int64,
                                                               copy=True)
        engine._cum_deaths = stacked.cum_deaths.astype(np.int64, copy=True)
        return engine
