"""Report digests, pinned by exact equality.

Each digest is taken with ``perfbench/worker.py``'s ``run_call`` and
``check_call``: the SHA-256 of the report up to its ``timings`` field.  The
table holds the seed-1 calls of the benchmark's workloads and calls the
benchmark does not make.  A change that moves a report byte edits the
table here; ``perfbench/results/baseline.json`` only records what a
benchmark run measured.  The numeric ``algebra`` reports hold exact
arithmetic only; the others hold floats, so they skip on any other Python,
numpy or BLAS build than the baseline's.
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


# The seed-1 calls of the certify-small, suites and certify-n4 workloads.
SEED1_DIGESTS = {
    ("certify", "--N", "2", "--seed", "1"):
        "adf0098c1fd27b5c92c88a3be151f3b4aabd6558d44f00a56c985d47d2c51009",
    ("certify", "--N", "3", "--seed", "1"):
        "985d28ba2dd6a6ade2ff57b86aec8fbcfbdea6ad1cdd052090c7f0d6544804e3",
    ("geometry", "--N", "3", "--seed", "1"):
        "0ddc69533009419dcdaa217289faf8e01e722d3a8d4caa678f06dad70cb0d3f3",
    ("eigen", "--N", "3", "--seed", "1"):
        "7d510aed3d7d6b97cf53c682327db74328fcf7c461a6a6c14b07d368eb1b9e8e",
    ("variation", "--N", "2", "--seed", "1"):
        "22aa2747e7d7174c9b908eb41c4817a81b21541576f6bf22f4e3ad735b58d060",
    ("algebra", "--n", "symbolic", "--orders", "100", "--seed", "1"):
        "3b5948d315c14e540f794a33a3fff789683b3e7f7e4f0df46bfb073b04ea9ed9",
    ("moments", "--N", "2", "--mc-samples", "1000000", "--seed", "1"):
        "4116d56841b2dc4a60ffe4e11cc5641bc6388bc506737c8f480e84130f738c6a",
    # the headline N, about 2.5 s
    ("certify", "--N", "4", "--seed", "1"):
        "c53b0026047ce3ac07d0c898fa98fb47adec97c5570149a242d959cf9ca3401e",
}


@pytest.mark.parametrize("argv", list(SEED1_DIGESTS), ids=" ".join)
def test_seed1_digest(argv):
    _skip_unless_baseline_build()
    call = worker.run_call(cli, list(argv))
    assert worker.check_call(call, reverify) == ([], SEED1_DIGESTS[argv])


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
        0, "a5952aa082d59583fd8fe3312924fbd4e779f6b19d57fa0424b4054673788e76")


def test_moments_n2_short_last_shard_digest():
    # a last shard of 10001 rows, below numpy's temporary elision
    # threshold, after one of 200000 rows above it
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "2", "--mc-samples", "210001", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "9c56f0cf1189ce4ef2d997e23d843afd4fff696d6c465ff0d985477bccb81c2e")
