"""The benchmark's workloads: set-up, passes, output checks and metrics.

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.

A *pass* is one full calibration of the workload's window schedule.  The
untraced pass is what the end-to-end metrics time; the traced pass runs the
same program through the instrumented seams of :mod:`tracing` and must
reproduce the untraced pass's posterior digest bit for bit.  Every window
of every pass is one checked operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import SequentialCalibrator, crps
from repro.hpc import (CheckpointStore, Executor, ProcessExecutor,
                       SerialExecutor)
from repro.inference import CalibrationConfig, calibrate
from repro.service import (ArtifactStore, CalibrationService,
                           ObservationBuffer, ServiceConfig)
from repro.sim import make_fig2_ground_truth

from tracing import (NullTracer, TimedArtifactStore, TimingExecutor,
                     TracedCalibrator, Tracer, layer_breakdown)

#: Problem sizes.  ``tiny`` is for the smoke test only.  ``serve``
#: persists 100 particles a window but forecasts 10 trajectories from each,
#: over six weekly windows: short passes give a run's median more samples,
#: which keeps its run-to-run spread near the batch workloads' (see
#: README.md).
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        "batch": {"window_breaks": (20, 34, 48, 62, 76),
                  "n_parameter_draws": 500, "n_replicates": 5,
                  "resample_size": 500},
        "serve": {"window_breaks": tuple(range(20, 63, 7)),
                  "n_parameter_draws": 200, "n_replicates": 5,
                  "resample_size": 100, "horizon_days": 14,
                  "n_per_particle": 10},
    },
    "tiny": {
        "batch": {"window_breaks": (20, 27, 34),
                  "n_parameter_draws": 20, "n_replicates": 2,
                  "resample_size": 30},
        "serve": {"window_breaks": (20, 27, 34, 41),
                  "n_parameter_draws": 10, "n_replicates": 2,
                  "resample_size": 24, "horizon_days": 7,
                  "n_per_particle": 2},
    },
}

#: Set-ups before the warm-up; one more runs before every pass, so the
#: samples behind setup_s's median are spread over the whole run.
SETUP_REPEATS = 10


def _warm(task: int) -> int:
    """Trivial picklable task that makes a pool fork its workers."""
    return os.getpid()


class WindowClock:
    """``progress`` callback stamping the end of each window of ``run``.

    ``SequentialCalibrator.run`` reports ``window <i> (<label>): ESS ...``
    once per window, after the window's step (and persist, with a store);
    other progress lines are ignored.
    """

    _WINDOW_DONE = re.compile(r"window \d+ \(.*\): ESS ")

    def __init__(self) -> None:
        self.marks: list[float] = []

    def __call__(self, message: str) -> None:
        if self._WINDOW_DONE.match(message):
            self.marks.append(time.perf_counter())


def derive_seeds(seed: int) -> tuple[int, int]:
    """Ground-truth seed and calibrator ``base_seed`` of a workload seed."""
    truth_seed, base_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(truth_seed), int(base_seed)


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
@dataclass
class Bench:
    """Everything one workload builds before its first pass."""

    workload: str
    seed: int
    scale: str
    truth_seed: int
    base_seed: int
    sizes: dict
    truth: Any
    observations: Any
    config: CalibrationConfig
    executor: Executor
    calibrator: SequentialCalibrator
    window_clock: WindowClock
    tracer: Tracer
    traced_calibrator: TracedCalibrator
    workdir: Path
    feeds: list = field(default_factory=list)

    @property
    def serving(self) -> bool:
        return self.workload == "serve_stream"

    def close(self) -> None:
        self.executor.close()


def _calibrator(config: CalibrationConfig, executor: Executor,
                cls: type = SequentialCalibrator,
                progress: Callable[[str], None] | None = None
                ) -> SequentialCalibrator:
    """The calibrator ``calibrate()`` builds, on a given executor."""
    return cls(base_params=config.disease_params(None), prior=config.prior(),
               jitter=config.jitter(),
               observation_model=config.observation_model(),
               schedule=config.schedule(), config=config.smc_config(),
               executor=executor, progress=progress)


def _window_feeds(observations: Any, breaks: tuple[int, ...]) -> list[dict]:
    """Per window, the ``(day, value)`` rows that arrive with it."""
    feeds, first = [], 0
    for end in breaks[1:]:
        feeds.append({src.name: [(day, src.series.value_on(day))
                                 for day in range(first, end)]
                      for src in observations})
        first = end
    return feeds


def setup(workload: str, seed: int, scale: str, workdir: Path) -> Bench:
    """Build truth, config, calibrators, stores and a warmed executor."""
    kind = "serve" if workload == "serve_stream" else "batch"
    sizes = dict(SIZES[scale][kind])
    truth_seed, base_seed = derive_seeds(seed)
    breaks = sizes["window_breaks"]
    truth = make_fig2_ground_truth(seed=truth_seed,
                                   horizon=max(100, breaks[-1]))
    observations = truth.observations(include_deaths=True)
    config = CalibrationConfig(
        window_breaks=breaks, n_parameter_draws=sizes["n_parameter_draws"],
        n_replicates=sizes["n_replicates"],
        resample_size=sizes["resample_size"], base_seed=base_seed,
        n_shards=2 if kind == "batch" else "auto")
    if workload == "batch_2proc":
        executor: Executor = ProcessExecutor(max_workers=2)
    else:
        executor = SerialExecutor()
    executor.map(_warm, range(4 * executor.workers))
    tracer = Tracer()
    traced_executor = TimingExecutor(executor, tracer)
    clock = WindowClock()
    traced = _calibrator(config, traced_executor, TracedCalibrator,
                         progress=clock)
    traced.tracer = tracer
    bench = Bench(workload=workload, seed=seed, scale=scale,
                  truth_seed=truth_seed,
                  base_seed=base_seed, sizes=sizes, truth=truth,
                  observations=observations, config=config,
                  executor=executor,
                  calibrator=_calibrator(config, executor, progress=clock),
                  window_clock=clock, tracer=tracer,
                  traced_calibrator=traced,
                  workdir=workdir)
    if bench.serving:
        bench.feeds = _window_feeds(observations, breaks)
        # The stores a pass writes to; each pass makes fresh ones.
        shutil.rmtree(_service(bench, traced=False)[0])
    return bench


def timed_setup(workload: str, seed: int, scale: str,
                workdir: Path) -> tuple[Bench, float]:
    start = time.perf_counter()
    bench = setup(workload, seed, scale, workdir)
    return bench, time.perf_counter() - start


def timed_setups(workload: str, seed: int, scale: str, workdir: Path
                 ) -> tuple[Bench, list[float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last bench, return every
    time."""
    times: list[float] = []
    bench = None
    for _ in range(SETUP_REPEATS):
        if bench is not None:
            bench.close()
        bench, elapsed = timed_setup(workload, seed, scale, workdir)
        times.append(elapsed)
    assert bench is not None
    return bench, times


# --------------------------------------------------------------------------- #
# Outputs, digests and checks
# --------------------------------------------------------------------------- #
@dataclass
class WindowOutput:
    """What a pass produced for one window, reduced to what is checked."""

    index: int
    start_day: int
    diagnostics: dict
    thetas: np.ndarray
    rhos: np.ndarray
    digest: str
    valid_store: bool = True


@dataclass
class PassResult:
    seconds: float
    latencies: list[float]
    windows: list[WindowOutput]
    particle_days: int
    layers: dict | None = None
    trace: dict | None = None


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def batch_window_output(result: Any) -> WindowOutput:
    post = result.posterior
    thetas, rhos = post.values("theta"), post.values("rho")
    seeds = np.array([p.seed for p in post], dtype=np.int64)
    ancestors = np.array([p.ancestor for p in post], dtype=np.int64)
    diag = result.diagnostics.to_dict()
    return WindowOutput(index=result.index,
                        start_day=result.window.start_day, diagnostics=diag,
                        thetas=thetas, rhos=rhos,
                        digest=_digest(thetas, rhos, seeds, ancestors, diag))


def window_failures(bench: Bench, outputs: list[WindowOutput],
                    reference: dict[int, str]) -> int:
    """Count windows failing a check; fill ``reference`` with new digests.

    A window passes when its weight summaries are finite (which they are
    only if every normalised weight is), its ESS is at least 1, its cloud
    and posterior sizes equal the fixed size policy's plan, its stores
    validate (serve_stream) and its digest equals the reference digest of
    the same window from an earlier pass.
    """
    cfg = bench.config
    failed = 0
    for out in outputs:
        d = out.diagnostics
        plan = (cfg.n_parameter_draws * cfg.n_replicates if out.index == 0
                else cfg.resample_size * cfg.n_continuations)
        ok = (all(math.isfinite(d[k]) for k in
                  ("ess", "ess_fraction", "entropy", "max_weight",
                   "log_evidence"))
              and d["ess"] >= 1.0 - 1e-9 and 0.0 < d["max_weight"] <= 1.0
              and d["n_particles"] == plan
              and len(out.thetas) == cfg.resample_size
              and out.valid_store)
        expected = reference.setdefault(out.index, out.digest)
        if not ok or out.digest != expected:
            failed += 1
    return failed


def posterior_crps(bench: Bench, outputs: list[WindowOutput]) -> float:
    """Mean CRPS of the theta and rho posteriors against the truth."""
    scores = []
    for out in outputs:
        scores.append(crps(out.thetas, bench.truth.theta_true(out.start_day)))
        scores.append(crps(out.rhos, bench.truth.rho_true(out.start_day)))
    return statistics.fmean(scores)


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
def reference_outputs(bench: Bench) -> list[WindowOutput]:
    """``calibrate()`` on a serial executor: the batch reference posterior."""
    with SerialExecutor() as serial:
        result = calibrate(bench.observations, bench.config, executor=serial)
    return [batch_window_output(w) for w in result.windows]


def batch_pass(bench: Bench, traced: bool) -> PassResult:
    """One ``SequentialCalibrator.run`` over the schedule, no store.

    A window's latency runs from the previous window's end (or the pass
    start) to the calibrator's per-window progress report.  Traced,
    ``run`` also opens a ``step`` span per window through
    :class:`TracedCalibrator`.
    """
    clock = bench.window_clock
    clock.marks = []
    if traced:
        bench.tracer.reset(f"{bench.workload}-{time.perf_counter_ns()}")
        with bench.tracer.span("pass") as span:
            results = bench.traced_calibrator.run(bench.observations)
        start, end = span.start, span.end
    else:
        start = time.perf_counter()
        results = bench.calibrator.run(bench.observations)
        end = time.perf_counter()
    marks = [start, *clock.marks]
    return PassResult(
        seconds=end - start,
        latencies=[b - a for a, b in zip(marks, marks[1:])],
        windows=[batch_window_output(r) for r in results],
        particle_days=sum(r.diagnostics.particle_steps for r in results),
        layers=layer_breakdown(bench.tracer.spans) if traced else None,
        trace=bench.tracer.to_dict() if traced else None)


def _service(bench: Bench, traced: bool
             ) -> tuple[Path, CalibrationService, CheckpointStore,
                        ArtifactStore]:
    root = Path(tempfile.mkdtemp(dir=bench.workdir))
    run_id = f"seed{bench.base_seed}"
    checkpoints = CheckpointStore(root / "ckpt", run_id=run_id)
    if traced:
        artifacts: ArtifactStore = TimedArtifactStore(root / "art",
                                                      bench.tracer)
        cal: SequentialCalibrator = bench.traced_calibrator
    else:
        artifacts = ArtifactStore(root / "art")
        cal = bench.calibrator
    service = CalibrationService(
        cal, checkpoints, artifacts,
        ServiceConfig(horizon_days=bench.sizes["horizon_days"],
                      n_per_particle=bench.sizes["n_per_particle"]))
    return root, service, checkpoints, artifacts


def serve_pass(bench: Bench, traced: bool) -> PassResult:
    """Drive the service one weekly window per tick, fresh stores each pass.

    Time runs from the first window's ingest to the last window's seal; a
    window's seal latency runs from its rows being ingested to ``tick``
    returning with its artifact sealed.  The stores stay in the run's work
    directory until the run ends: deleting a pass's thousands of files
    before the next pass made passes 15-40% slower in interleaved runs
    (ext4 mounted with online discard, 2-vCPU host).
    """
    tracer = bench.tracer if traced else NullTracer()
    if traced:
        bench.tracer.reset(f"{bench.workload}-{time.perf_counter_ns()}")
    _, service, checkpoints, artifacts = _service(bench, traced)
    feeds = bench.feeds
    buffer = ObservationBuffer()
    latencies: list[float] = []
    rejected = 0
    sealed: list[bool] = []
    start = time.perf_counter()
    with tracer.span("pass"):
        for index, rows in enumerate(feeds):
            with tracer.span("window"):
                with tracer.span("ingest"):
                    for stream, pairs in rows.items():
                        rejected += len(buffer.add_rows(stream, pairs))
                ready = time.perf_counter()
                events = service.tick(buffer)
            latencies.append(time.perf_counter() - ready)
            sealed.append(service.next_window_index == index + 1
                          and [e.kind for e in events]
                          == ["window_complete", "published"])
    seconds = time.perf_counter() - start
    windows, particle_days = _service_outputs(bench, checkpoints, artifacts,
                                              len(feeds))
    for out, ok in zip(windows, sealed):
        out.valid_store = out.valid_store and ok and rejected == 0
    return PassResult(
        seconds=seconds, latencies=latencies, windows=windows,
        particle_days=particle_days,
        layers=layer_breakdown(bench.tracer.spans) if traced else None,
        trace=bench.tracer.to_dict() if traced else None)


def _service_outputs(bench: Bench, checkpoints: CheckpointStore,
                     artifacts: ArtifactStore, n_windows: int
                     ) -> tuple[list[WindowOutput], int]:
    """Read back and validate what the service sealed, window by window."""
    windows = list(bench.calibrator.schedule)
    outputs, particle_days = [], 0
    for index in range(n_windows):
        valid = (artifacts.validate(index)
                 and checkpoints.window_complete(index))
        payload = artifacts.load(index)
        meta = checkpoints.load_window_meta(index)
        params = meta["params"]
        particle_days += (meta["diagnostics"]["particle_steps"]
                          + payload["n_trajectories"]
                          * payload["horizon_days"])
        outputs.append(WindowOutput(
            index=index, start_day=windows[index].start_day,
            diagnostics=meta["diagnostics"],
            thetas=np.array([p["theta"] for p in params]),
            rhos=np.array([p["rho"] for p in params]),
            digest=_digest(payload, meta), valid_store=valid))
    return outputs, particle_days


# --------------------------------------------------------------------------- #
# A run
# --------------------------------------------------------------------------- #
@dataclass
class RunTally:
    attempted: int = 0
    failed: int = 0
    reference: dict[int, str] = field(default_factory=dict)

    def check(self, bench: Bench, outputs: list[WindowOutput]) -> None:
        self.attempted += len(outputs)
        self.failed += window_failures(bench, outputs, self.reference)


def warm_up(bench: Bench, tally: RunTally) -> None:
    """Untimed passes that fill caches and pin the reference digests.

    Batch workloads take their reference from ``calibrate()`` on a serial
    executor, so batch_2proc is checked bit for bit against the serial
    posterior, and the timed ``run`` passes against ``calibrate()``.  The
    service warm-up is one full pass that later passes must reproduce.
    """
    if bench.serving:
        tally.check(bench, serve_pass(bench, traced=False).windows)
        return
    tally.check(bench, reference_outputs(bench))
    tally.check(bench, batch_pass(bench, traced=False).windows)


def measure(bench: Bench, seconds: float, traced: bool, tally: RunTally,
            setup_times: list[float]
            ) -> tuple[list[PassResult], list[PassResult]]:
    """Run passes for ``seconds``: untraced only, or alternating with traced.

    Before each pass one more set-up is timed (and discarded) into
    ``setup_times``.  Returns ``(untraced, traced)`` pass lists; at least
    one pass of each requested kind runs.
    """
    run_pass: Callable[..., PassResult] = (serve_pass if bench.serving
                                           else batch_pass)
    plain: list[PassResult] = []
    with_trace: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while (not plain or (traced and not with_trace)
           or time.perf_counter() < deadline):
        use_trace = traced and len(with_trace) < len(plain)
        spare, elapsed = timed_setup(bench.workload, bench.seed, bench.scale,
                                     bench.workdir)
        spare.close()
        setup_times.append(elapsed)
        gc.collect()
        result = run_pass(bench, traced=use_trace)
        tally.check(bench, result.windows)
        # A pass whose windows were not all timed, or whose spans do not
        # nest, measured something other than its windows: fail them all.
        if (len(result.latencies) != len(result.windows)
                or (use_trace and result.layers["nesting_violations"])):
            tally.failed += len(result.windows)
        if use_trace:
            with_trace.append(result)
        else:
            plain.append(result)
    return plain, with_trace


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_times: list[float],
                       passes: list[PassResult]) -> dict[str, float]:
    calibration_s = statistics.median(p.seconds for p in passes)
    latencies = [t for p in passes for t in p.latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "calibration_s": calibration_s,
        "particle_days_per_s": passes[0].particle_days / calibration_s,
        "seal_latency_s_p50": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }


#: Entries of :func:`tracing.layer_breakdown` that are bookkeeping, not
#: metrics.
BOOKKEEPING = ("nesting_violations",)


def per_layer_metrics(bench: Bench, plain: list[PassResult],
                      traced: list[PassResult]) -> dict[str, float]:
    keys = [k for k in traced[0].layers if k not in BOOKKEEPING]
    out = {k: statistics.median(p.layers[k] for p in traced) for k in keys}
    out["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                               - statistics.median(p.seconds for p in plain))
    out["quality.posterior_crps"] = posterior_crps(bench, traced[0].windows)
    return out


def pass_digest(result: PassResult) -> str:
    """One digest over every window's posterior digest."""
    return _digest([w.digest for w in result.windows])
