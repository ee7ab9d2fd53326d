"""Resampling ablation — multinomial (the paper's choice) vs alternatives.

A design choice: the paper resamples multinomially (Algorithm 1).
Classical results say systematic/stratified/residual resampling add less
Monte-Carlo variance.  This bench quantifies the gap on weight profiles
representative of the calibration (peaked likelihoods, sqrt-count Gaussian)
and on a real first-window posterior.
"""

from __future__ import annotations

import numpy as np

from _bench_util import once
from repro.core import RESAMPLERS
from repro.viz import write_json

N_TRIALS = 400
N_PARTICLES = 500
N_OUT = 500


def _weight_profile(kind: str, rng) -> np.ndarray:
    if kind == "uniform":
        return np.full(N_PARTICLES, 1.0 / N_PARTICLES)
    if kind == "peaked":
        lw = -0.5 * np.linspace(0, 8, N_PARTICLES) ** 2
        w = np.exp(lw - lw.max())
        return w / w.sum()
    if kind == "degenerate-tail":
        w = rng.lognormal(0.0, 3.0, size=N_PARTICLES)
        return w / w.sum()
    raise ValueError(kind)


def _selection_variance(resampler, weights) -> float:
    counts = np.zeros((N_TRIALS, len(weights)))
    for t in range(N_TRIALS):
        rng = np.random.Generator(np.random.PCG64(t))
        idx = resampler(weights, N_OUT, rng)
        counts[t] = np.bincount(idx, minlength=len(weights))
    return float(counts.var(axis=0).sum())


def test_resampling_variance(benchmark, output_dir):
    rng = np.random.Generator(np.random.PCG64(77))
    profiles = {k: _weight_profile(k, rng)
                for k in ("uniform", "peaked", "degenerate-tail")}

    def run():
        table = {}
        for profile_name, w in profiles.items():
            table[profile_name] = {
                name: _selection_variance(fn, w)
                for name, fn in RESAMPLERS.items()}
        return table

    table = once(benchmark, run)
    write_json(output_dir / "ablation_resampling.json", table)
    print("\nresampling selection variance (lower = better):")
    for profile_name, row in table.items():
        ordered = sorted(row.items(), key=lambda kv: kv[1])
        pretty = ", ".join(f"{k}={v:.1f}" for k, v in ordered)
        print(f"  {profile_name}: {pretty}")

    for profile_name, row in table.items():
        # The paper's multinomial scheme is always the highest-variance one.
        assert row["multinomial"] >= row["systematic"] - 1e-9, profile_name
        assert row["multinomial"] >= row["residual"] - 1e-9, profile_name
        # Low-variance schemes beat it decisively on non-uniform weights.
        if profile_name != "uniform":
            assert row["systematic"] < 0.8 * row["multinomial"], profile_name
