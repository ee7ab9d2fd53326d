"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every named metric with its unit, that
the traced run reproduces the untraced posterior digest, that batch_2proc
reproduces batch_serial bit for bit, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.2", "--trace", str(trace)], scale="tiny")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("# info "))
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["batch_serial", "batch_2proc",
                                      "serve_stream"])
def test_every_metric_present_and_traced_digest_matches(capsys, workload):
    digests = {}
    for trace, units in ((0, run.END_TO_END_UNITS),
                         (1, run.PER_LAYER_UNITS)):
        info, result = _run(capsys, workload, trace)
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], float)
        digests[trace] = info
    assert digests[0]["traced_posterior_digest"] is None
    assert (digests[1]["traced_posterior_digest"]
            == digests[1]["posterior_digest"]
            == digests[0]["posterior_digest"])


def test_two_process_posterior_equals_serial(capsys):
    serial, _ = _run(capsys, "batch_serial", 0)
    two_proc, _ = _run(capsys, "batch_2proc", 0)
    assert two_proc["posterior_digest"] == serial["posterior_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
