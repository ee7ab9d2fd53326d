"""Span tracing around the calibrator's public seams, for the benchmark.

Every span is recorded from the benchmark's side of a layer boundary; the
program under test is not modified.  The instrumented objects are thin
subclasses and wrappers of public types:

* :class:`TracedCalibrator` — a :class:`SequentialCalibrator` whose
  split-phase methods (``propose_window``, ``assemble_window``,
  ``weigh_window``), fused ``step_window`` and ``persist_window`` open
  spans.  ``run`` and the service call all of them through ``self``, so
  both produce the same child spans under each window step.
* :class:`TimingExecutor` — wraps any :class:`Executor`; each ``map`` call
  is one ``dispatch`` span and each task becomes a ``kernel`` span timed
  inside the worker (``time.perf_counter`` reads the system-wide monotonic
  clock, so worker and parent timestamps share one time base).
* :class:`TimedArtifactStore` — a ``publish`` span around each sealed
  artifact write.

Spans live in memory and are written out once the run ends.  A span's self
time is its duration minus the part of its interval its children cover.

Counts labelled *computed* are derived from sizes, not observed: kernel
substeps (particle-days times steps per day), pickled task/result bytes
(``len(pickle.dumps(...))``, computed even where a serial executor pickles
nothing) and on-disk bytes (file sizes after the write).
"""

from __future__ import annotations

import pickle
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.smc import SequentialCalibrator
from repro.hpc.executor import Executor, TaskOutcome
from repro.hpc.sharding import ShardTask
from repro.service.artifacts import ArtifactStore

@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    """In-memory span recorder for one traced pass at a time."""

    def __init__(self) -> None:
        self.pass_id = ""
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.spans = []
        self._stack = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def record(self, name: str, start: float, end: float,
               parent: int | None, **counts: Any) -> Span:
        span = Span(len(self.spans), name, parent, start, end, dict(counts))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[Span]:
        span = self.record(name, time.perf_counter(), 0.0, self.current,
                           **counts)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def to_dict(self) -> dict:
        return {"pass_id": self.pass_id,
                "spans": [s.to_dict() for s in self.spans]}


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[None]:
        yield None


# --------------------------------------------------------------------------- #
# Instrumented seams
# --------------------------------------------------------------------------- #
class _TimedCall:
    """Picklable wrapper timing one task inside the worker that runs it."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> tuple[Any, float, float]:
        start = time.perf_counter()
        value = self.fn(task)
        return value, start, time.perf_counter()


def _kernel_counts(task: Any) -> dict:
    if not isinstance(task, ShardTask):
        return {}
    members = len(task.seeds)
    if task.state is not None:
        first_day, steps = task.state.day, task.state.steps_per_day
    else:
        first_day = task.start_day
        steps = int(task.engine_options["steps_per_day"])
    particle_days = members * (task.end_day - first_day)
    return {"members": members, "particle_days": particle_days,
            "substeps_computed": particle_days * steps}


class TimingExecutor(Executor):
    """Executor wrapper: one ``dispatch`` span per map, a ``kernel`` span
    per task timed in the worker."""

    def __init__(self, inner: Executor, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    @property
    def workers(self) -> int:
        return self.inner.workers

    def _record_kernels(self, dispatch: Span, tasks: list,
                        timed: list[tuple[Any, float, float] | None]) -> None:
        task_bytes = result_bytes = 0
        for task, item in zip(tasks, timed):
            task_bytes += len(pickle.dumps(task))
            if item is None:
                continue
            value, start, end = item
            result_bytes += len(pickle.dumps(value))
            self.tracer.record("kernel", start, end, dispatch.span_id,
                               **_kernel_counts(task))
        dispatch.counts.update(task_bytes_computed=task_bytes,
                               result_bytes_computed=result_bytes)

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        task_list = list(tasks)
        with self.tracer.span("dispatch", shards=len(task_list),
                              failed=0) as dispatch:
            timed = self.inner.map(_TimedCall(fn), task_list)
        self._record_kernels(dispatch, task_list, timed)
        return [value for value, _, _ in timed]

    def map_each(self, fn: Callable[[Any], Any], tasks: Iterable[Any],
                 timeout: float | None = None) -> list[TaskOutcome]:
        task_list = list(tasks)
        with self.tracer.span("dispatch", shards=len(task_list)) as dispatch:
            outcomes = self.inner.map_each(_TimedCall(fn), task_list,
                                           timeout=timeout)
        dispatch.counts["failed"] = sum(1 for o in outcomes if not o.ok)
        self._record_kernels(dispatch, task_list,
                             [o.value if o.ok else None for o in outcomes])
        return [TaskOutcome(value=o.value[0]) if o.ok else o
                for o in outcomes]

    def close(self) -> None:
        self.inner.close()


class TracedCalibrator(SequentialCalibrator):
    """Calibrator whose public window phases open spans on ``tracer``
    (assigned after construction)."""

    tracer: Tracer

    def step_window(self, *args: Any, **kwargs: Any):
        with self.tracer.span("step"):
            return super().step_window(*args, **kwargs)

    def propose_window(self, *args: Any, **kwargs: Any):
        with self.tracer.span("propose") as span:
            pending = super().propose_window(*args, **kwargs)
        span.counts["members"] = pending.n_members
        return pending

    def assemble_window(self, *args: Any, **kwargs: Any):
        with self.tracer.span("assemble") as span:
            ensemble = super().assemble_window(*args, **kwargs)
        span.counts["checkpoints_built"] = len(ensemble)
        return ensemble

    def weigh_window(self, *args: Any, **kwargs: Any):
        with self.tracer.span("weigh") as span:
            result = super().weigh_window(*args, **kwargs)
        span.counts.update(
            ess_fraction=result.diagnostics.ess_fraction,
            unique_ancestors=result.diagnostics.unique_ancestors)
        return result

    def persist_window(self, store: Any, result: Any) -> None:
        with self.tracer.span("persist") as span:
            super().persist_window(store, result)
        written = list(store._window_dir(result.index).iterdir())
        written.append(store.root / "manifest.json")
        span.counts.update(files=len(written),
                           bytes_computed=_bytes_on_disk(written))


def _bytes_on_disk(paths: Iterable[Path]) -> int:
    return sum(p.stat().st_size for p in paths)


class TimedArtifactStore(ArtifactStore):
    """Artifact store timing each sealed publication as ``publish``."""

    def __init__(self, root: str | Path, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def publish(self, window_index: int, payload: Any) -> Path:
        with self.tracer.span("publish") as span:
            directory = super().publish(window_index, payload)
        written = list(directory.iterdir())
        written.append(self.root / "LATEST.json")
        span.counts["bytes_computed"] = _bytes_on_disk(written)
        return directory


# --------------------------------------------------------------------------- #
# Self times and the per-layer breakdown of one traced pass
# --------------------------------------------------------------------------- #
def _covered(lo: float, hi: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - _covered(s.start, s.end,
                                             children.get(s.span_id, ()))
            for s in spans}


def nesting_violations(spans: list[Span]) -> int:
    """Spans that break the tree the self times assume.

    A span violates it when it does not lie inside its parent's interval
    (a kernel stamped in a worker outside its dispatch, say) or overlaps
    an earlier sibling.  Kernel spans of one dispatch may overlap each
    other: shards run in parallel on a pool.
    """
    by_id = {s.span_id: s for s in spans}
    siblings: dict[int | None, list[Span]] = {}
    bad = 0
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if s.end < s.start or (parent is not None and not (
                parent.start <= s.start and s.end <= parent.end)):
            bad += 1
        if s.name != "kernel":
            siblings.setdefault(s.parent, []).append(s)
    for group in siblings.values():
        group.sort(key=lambda s: s.start)
        bad += sum(1 for a, b in zip(group, group[1:]) if b.start < a.end)
    return bad


def layer_breakdown(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``busy_s`` is the summed duration of a layer's spans; for the kernel
    that is worker busy time, which exceeds wall time when shards run in
    parallel.  ``hpc.dispatch.overhead_s`` is the dispatch spans' self
    time.  ``service.forecast.busy_s`` is each window's remainder after its
    ingest, step, persist and publish children — on the service that is
    the forecast build (its own kernel dispatch included).

    ``trace.glue_s`` is the self time of the pass and of the window steps:
    what the named layers leave unexplained.  When the spans nest (see
    :func:`nesting_violations`), glue plus the named layers' self times
    (the window's self time being the forecast, the kernel counted by the
    wall time its spans cover) sum to the pass.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def busy(name: str) -> float:
        return sum(s.duration for s in spans_of(name))

    def self_sum(name: str) -> float:
        return sum(own[s.span_id] for s in spans_of(name))

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans_of(name))

    kernel_busy = busy("kernel")
    forecast_busy = sum(
        w.duration - sum(s.duration for s in spans
                         if s.parent == w.span_id and s.name != "dispatch")
        for w in spans_of("window"))
    particle_days = count("kernel", "particle_days")
    checkpoints = count("assemble", "checkpoints_built")
    ess = [s.counts["ess_fraction"] for s in spans_of("weigh")]
    return {
        "seir.kernel.busy_s": kernel_busy,
        "seir.kernel.particle_days": particle_days,
        "seir.kernel.particle_days_per_s": particle_days / kernel_busy,
        "seir.kernel.substeps": count("kernel", "substeps_computed"),
        "core.propose.busy_s": busy("propose"),
        "core.propose.members": count("propose", "members"),
        "hpc.dispatch.busy_s": busy("dispatch"),
        "hpc.dispatch.overhead_s": self_sum("dispatch"),
        "hpc.dispatch.shards": count("dispatch", "shards"),
        "hpc.dispatch.failed": count("dispatch", "failed"),
        "hpc.dispatch.task_bytes": count("dispatch", "task_bytes_computed"),
        "hpc.dispatch.result_bytes":
            count("dispatch", "result_bytes_computed"),
        "core.assemble.busy_s": busy("assemble"),
        "core.assemble.checkpoints_built": checkpoints,
        "core.assemble.checkpoint_use_ratio":
            count("weigh", "unique_ancestors") / checkpoints,
        "core.weigh.busy_s": busy("weigh"),
        "core.weigh.ess_fraction": statistics.fmean(ess),
        "hpc.persist.busy_s": busy("persist"),
        "hpc.persist.files": count("persist", "files"),
        "hpc.persist.bytes": count("persist", "bytes_computed"),
        "service.step.busy_s": busy("step"),
        "service.forecast.busy_s": forecast_busy,
        "service.publish.busy_s": busy("publish"),
        "service.publish.bytes": count("publish", "bytes_computed"),
        "service.ingest.busy_s": busy("ingest"),
        "trace.glue_s": self_sum("pass") + self_sum("step"),
        "nesting_violations": nesting_violations(spans),
    }
