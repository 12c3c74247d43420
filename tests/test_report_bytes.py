"""The report bytes of the benchmark's seed-1 calls equal the recorded ones.

``perfbench/results/baseline.json`` records, for every call of every
benchmark run, the SHA-256 of its report up to the ``timings`` field.  The
seven seed-1 calls of the ``certify-small`` and ``suites`` workloads run
here through ``cli.main`` and must reproduce those digests.  Float results
depend on the Python, numpy and BLAS builds, so the test skips on any
other build than the baseline's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import cpn_entropy.cli as cli
from cpn_entropy.report import reverify

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BASELINE = json.loads((BENCH / "results" / "baseline.json").read_text())
WORKLOADS = ("certify-small", "suites")


def _seed1_calls():
    for workload in WORKLOADS:
        run = next(r for r in BASELINE["workloads"][workload]["runs"]
                   if r["seed"] == 1)
        for call in run["calls"]:
            if call["pass"] == 0:
                yield pytest.param(call["argv"], call["digest"],
                                   id=" ".join(call["argv"]))


@pytest.fixture(scope="module")
def worker():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import worker

    recorded = BASELINE["environment"]
    running = worker.environment()
    for key in ("python", "numpy", "blas"):
        if recorded[key] != running[key]:
            pytest.skip(f"{key} build {running[key]!r} is not the "
                        f"baseline's {recorded[key]!r}")
    return worker


def test_seven_seed1_calls_are_recorded():
    assert len(list(_seed1_calls())) == 7


@pytest.mark.parametrize("argv, digest", list(_seed1_calls()))
def test_report_digest_equals_baseline(worker, argv, digest):
    call = worker.run_call(cli, argv)
    problems, got = worker.check_call(call, reverify)
    assert problems == []
    assert got == digest
