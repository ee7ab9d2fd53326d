"""End-to-end calibration benchmark.

Run from the repository root (no build step; the package is imported from
``src/``)::

    python3 perfbench/run.py --workload batch_serial --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``batch_serial``, ``batch_2proc``, ``serve_stream`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics, timed with tracing off; with ``--trace 1`` it carries
the per-layer breakdown from traced passes alternated with untraced ones.
Informational lines (host, inputs, sample counts, digest) come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A traced run also
writes its spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so no workload runs more
# threads than it has processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "calibration_s": "s",
    "particle_days_per_s": "1/s",
    "seal_latency_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "seir.kernel.busy_s": "s",
    "seir.kernel.particle_days": "count",
    "seir.kernel.particle_days_per_s": "1/s",
    "seir.kernel.substeps": "count.computed",
    "core.propose.busy_s": "s",
    "core.propose.members": "count",
    "hpc.dispatch.busy_s": "s",
    "hpc.dispatch.overhead_s": "s",
    "hpc.dispatch.shards": "count",
    "hpc.dispatch.failed": "count",
    "hpc.dispatch.task_bytes": "B.computed",
    "hpc.dispatch.result_bytes": "B.computed",
    "core.assemble.busy_s": "s",
    "core.assemble.checkpoints_built": "count",
    "core.assemble.checkpoint_use_ratio": "ratio",
    "core.weigh.busy_s": "s",
    "core.weigh.ess_fraction": "ratio",
    "hpc.persist.busy_s": "s",
    "hpc.persist.files": "count",
    "hpc.persist.bytes": "B.computed",
    "service.step.busy_s": "s",
    "service.forecast.busy_s": "s",
    "service.publish.busy_s": "s",
    "service.publish.bytes": "B.computed",
    "service.ingest.busy_s": "s",
    "trace.glue_s": "s",
    "trace.overhead_s": "s",
    "quality.posterior_crps": "crps",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch_serial", "batch_2proc",
                                 "serve_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def host_info() -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "threads_env": {k: os.environ[k] for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


def main(argv: list[str] | None = None, scale: str = "full") -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    started = time.perf_counter()
    import workloads as wl
    import_s = time.perf_counter() - started

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    traced = bool(args.trace)
    try:
        bench, setup_times = wl.timed_setups(args.workload, args.seed, scale,
                                             workdir)
        try:
            tally = wl.RunTally()
            wl.warm_up(bench, tally)
            plain, with_trace = wl.measure(bench, args.seconds, traced,
                                           tally, setup_times)
        finally:
            bench.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        values = wl.per_layer_metrics(bench, plain, with_trace)
        units = PER_LAYER_UNITS
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "passes": [p.trace for p in with_trace]}))
    else:
        values = wl.end_to_end_metrics(setup_times, plain)
        units = END_TO_END_UNITS
    info = {
        "workload": args.workload, "seed": args.seed,
        "truth_seed": bench.truth_seed, "base_seed": bench.base_seed,
        "inputs": {**{k: list(v) if isinstance(v, tuple) else v
                      for k, v in bench.sizes.items()},
                   "windows": len(bench.config.window_breaks) - 1,
                   "executor": type(bench.executor).__name__,
                   "workers": bench.executor.workers,
                   "population": bench.truth.params.population},
        "host": host_info(),
        "import_s": import_s,
        "setup_samples": len(setup_times),
        "untraced_passes": len(plain), "traced_passes": len(with_trace),
        "window_samples": sum(len(p.latencies) for p in plain),
        "posterior_digest": wl.pass_digest(plain[0]),
        "traced_posterior_digest": (wl.pass_digest(with_trace[0])
                                    if with_trace else None),
        "computed_not_measured": [k for k, u in units.items()
                                  if u.endswith(".computed")],
    }
    print("# info " + json.dumps(info, sort_keys=True))
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
