"""Reusable test scaffolding: parity oracles, reference paths, fixtures.

Shipped inside the package (rather than under ``tests/``) so the parity
guarantees of ``docs/scenarios.md`` are assertable by downstream users'
own suites, not just this repository's.
"""

from .parity import (assert_ensembles_identical, assert_particles_identical,
                     assert_runs_identical, assert_trajectories_identical,
                     assert_window_results_identical, parity_calibrator,
                     parity_config, parity_sweep, parity_truth,
                     statistical_diagnostics)
from .reference import ReferenceCalibrator, reference_forecast

__all__ = [
    "assert_trajectories_identical",
    "assert_particles_identical",
    "assert_ensembles_identical",
    "assert_window_results_identical",
    "assert_runs_identical",
    "statistical_diagnostics",
    "parity_truth",
    "parity_config",
    "parity_calibrator",
    "parity_sweep",
    "ReferenceCalibrator",
    "reference_forecast",
]
