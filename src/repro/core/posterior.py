"""Posterior summaries: credible ribbons, marginal histograms, 2-d contours.

These produce exactly the quantities the paper plots: per-day 50%/90%
credible ribbons over posterior trajectories (Figs 3-5 top panels), marginal
prior/posterior densities of theta and rho (Fig 3), and the joint (theta,
rho) density per window (Figs 4b/5b contour panels).  Since this environment
has no plotting stack, the summaries are numeric; :mod:`repro.viz` renders
them as ASCII or CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..seir.outputs import Trajectory
from .weights import weighted_quantile

__all__ = ["TrajectoryRibbon", "trajectory_ribbon", "matrix_ribbon",
           "marginal_histogram",
           "joint_density_grid", "hpd_region_mass"]


@dataclass(frozen=True)
class TrajectoryRibbon:
    """Per-day quantile bands over an ensemble of trajectories.

    Attributes
    ----------
    start_day:
        Day of the first column.
    quantiles:
        The quantile levels, ascending.
    bands:
        Array of shape ``(len(quantiles), n_days)``.
    """

    start_day: int
    quantiles: tuple[float, ...]
    bands: np.ndarray

    @property
    def n_days(self) -> int:
        return int(self.bands.shape[1])

    @property
    def days(self) -> np.ndarray:
        return np.arange(self.start_day, self.start_day + self.n_days)

    def band(self, q: float) -> np.ndarray:
        """The per-day series for one quantile level."""
        try:
            idx = self.quantiles.index(q)
        except ValueError:
            raise KeyError(f"quantile {q} not in {self.quantiles}") from None
        return self.bands[idx]

    def median(self) -> np.ndarray:
        return self.band(0.5)

    def coverage_of(self, truth: np.ndarray, lo_q: float, hi_q: float) -> float:
        """Fraction of days on which ``truth`` falls inside ``[lo_q, hi_q]``."""
        t = np.asarray(truth, dtype=np.float64)
        if t.shape[0] != self.n_days:
            raise ValueError("truth length must match ribbon days")
        lo = self.band(lo_q)
        hi = self.band(hi_q)
        inside = (t >= lo) & (t <= hi)
        return float(inside.mean())


def trajectory_ribbon(trajectories: Sequence[Trajectory], channel: str,
                      quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95),
                      weights: np.ndarray | None = None) -> TrajectoryRibbon:
    """Per-day (optionally weighted) quantiles over trajectory ensemble.

    All trajectories must share a day range; posterior ensembles do by
    construction.  Default quantiles give the paper's 50% (0.25-0.75) and
    90% (0.05-0.95) ribbons plus the median.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    start = trajectories[0].start_day
    n_days = len(trajectories[0])
    stack = np.empty((len(trajectories), n_days))
    for i, traj in enumerate(trajectories):
        if traj.start_day != start or len(traj) != n_days:
            raise ValueError("trajectories must share one day range")
        stack[i] = traj.series(channel).values
    return matrix_ribbon(start, stack, quantiles, weights)


def matrix_ribbon(start_day: int, values: np.ndarray,
                  quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95),
                  weights: np.ndarray | None = None) -> TrajectoryRibbon:
    """:func:`trajectory_ribbon` over an ``(n_trajectories, n_days)`` channel
    matrix whose first column is ``start_day``."""
    stack = np.asarray(values, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError("need a 2-d matrix of at least one trajectory")
    qs = tuple(float(q) for q in quantiles)
    if any(not 0 <= q <= 1 for q in qs) or list(qs) != sorted(qs):
        raise ValueError("quantiles must be ascending values in [0, 1]")
    if weights is None:
        bands = np.quantile(stack, qs, axis=0)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (stack.shape[0],):
            raise ValueError("weights must have one entry per trajectory")
        bands = np.empty((len(qs), stack.shape[1]))
        for d in range(stack.shape[1]):
            bands[:, d] = weighted_quantile(stack[:, d], w, np.asarray(qs))
    return TrajectoryRibbon(start_day=int(start_day), quantiles=qs,
                            bands=bands)


def marginal_histogram(values: np.ndarray, weights: np.ndarray | None = None,
                       bins: int = 40,
                       support: tuple[float, float] | None = None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted density histogram ``(bin_edges, density)``.

    Mirrors the paper's Fig 3 marginal density panels; ``density`` integrates
    to 1 over the binned range.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty sample")
    rng_lo, rng_hi = support if support is not None else (float(v.min()),
                                                          float(v.max()))
    if rng_hi <= rng_lo:
        rng_hi = rng_lo + 1e-9
    density, edges = np.histogram(v, bins=bins, range=(rng_lo, rng_hi),
                                  weights=weights, density=True)
    return edges, density


def joint_density_grid(x: np.ndarray, y: np.ndarray,
                       weights: np.ndarray | None = None,
                       bins: int = 30,
                       x_range: tuple[float, float] | None = None,
                       y_range: tuple[float, float] | None = None,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted 2-d density on a grid: ``(x_edges, y_edges, density)``.

    The numeric backing of the paper's (theta, rho) contour panels.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.size == 0:
        raise ValueError("x and y must be equal-length non-empty arrays")
    ranges = [
        x_range if x_range is not None else (float(xv.min()), float(xv.max())),
        y_range if y_range is not None else (float(yv.min()), float(yv.max())),
    ]
    for i, (lo, hi) in enumerate(ranges):
        if hi <= lo:
            ranges[i] = (lo, lo + 1e-9)
    density, x_edges, y_edges = np.histogram2d(
        xv, yv, bins=bins, range=ranges, weights=weights, density=True)
    return x_edges, y_edges, density


def hpd_region_mass(density: np.ndarray, point_index: tuple[int, int]) -> float:
    """Probability mass of the highest-density region containing a grid cell.

    Small values mean the point (e.g. the ground-truth (theta, rho) square in
    Figs 4b/5b) sits in the high-density core of the posterior; values near 1
    mean it sits in the far tails.  Used to check "the black square lies
    inside the contours" quantitatively.
    """
    d = np.asarray(density, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError("density must be a 2-d grid")
    i, j = point_index
    if not (0 <= i < d.shape[0] and 0 <= j < d.shape[1]):
        raise ValueError("point index outside the density grid")
    level = d[i, j]
    total = d.sum()
    if total <= 0:
        raise ValueError("density grid sums to zero")
    return float(d[d >= level].sum() / total)
