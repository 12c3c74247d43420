"""Report digests of calls the benchmark does not make.

``perfbench/results/baseline.json`` holds only the benchmark's calls.  These
digests were taken the same way, with ``perfbench/worker.py``'s
``run_call`` and ``check_call``: the SHA-256 of the report up to its
``timings`` field.  The ``algebra`` reports hold exact arithmetic only; the
``variation`` report holds floats, so it skips on any other Python, numpy
or BLAS build than the baseline's.
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


def test_mutated_variation_digest():
    recorded = json.loads((BENCH / "results" / "baseline.json").read_text())
    running = worker.environment()
    for key in ("python", "numpy", "blas"):
        if recorded["environment"][key] != running[key]:
            pytest.skip(f"{key} build {running[key]!r} is not the baseline's")
    argv = ["variation", "--N", "2", "--seed", "1",
            "--mutate", "laplacian:1:grad"]
    assert _exit_and_digest(argv) == (
        1, "aa3490e1fcec9c3fce0f47ceb2557f539440512ce9ad6e83a16f11c8373b1b00")
