"""Report digests of calls the benchmark does not make.

``perfbench/results/baseline.json`` holds only the benchmark's calls.  These
digests were taken the same way, with ``perfbench/worker.py``'s
``run_call`` and ``check_call``: the SHA-256 of the report up to its
``timings`` field.  The ``algebra`` reports hold exact arithmetic only; the
``variation`` and ``moments`` reports hold floats, so they skip on any other
Python, numpy or BLAS build than the baseline's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import cpn_entropy.cli as cli
from cpn_entropy.report import reverify

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
import worker  # noqa: E402


def _exit_and_digest(argv):
    call = worker.run_call(cli, argv)
    return call["exit"], worker.check_call(call, reverify)[1]


@pytest.mark.parametrize("n, digest", [
    ("2", "7990704df120efe0bcc7489e5a3d234011451534562bd8ac5c5ade12a4c19d56"),
    ("6", "e4174f38eddfdc7bcbaa24f9e11cb3c6c801253733fec1e730acbcd63416294c"),
])
def test_numeric_n_algebra_digest(n, digest):
    assert _exit_and_digest(["algebra", "--n", n]) == (0, digest)


def _skip_unless_baseline_build():
    recorded = json.loads((BENCH / "results" / "baseline.json").read_text())
    running = worker.environment()
    for key in ("python", "numpy", "blas"):
        if recorded["environment"][key] != running[key]:
            pytest.skip(f"{key} build {running[key]!r} is not the baseline's")


def test_mutated_variation_digest():
    _skip_unless_baseline_build()
    argv = ["variation", "--N", "2", "--seed", "1",
            "--mutate", "laplacian:1:grad"]
    assert _exit_and_digest(argv) == (
        1, "aa3490e1fcec9c3fce0f47ceb2557f539440512ce9ad6e83a16f11c8373b1b00")


def test_moments_n3_digest():
    # the m = 4 harmonic expansion, _solve_qc and a Monte Carlo estimate
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "3", "--mc-samples", "100000", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "7fc114417cae952a59e87135f686b5d96d0dad867ecd3be7d9385fae8e403c30")


def test_moments_n2_short_last_shard_digest():
    # a last shard of 10001 rows, below numpy's temporary elision
    # threshold, after one of 200000 rows above it
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "2", "--mc-samples", "210001", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "841115a777a3df2eb0f5188df563d65a672b95169f01b82e645447890c32e2f6")
