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


# Keyed by --n, so that a moved digest does not rename its test.
NUMERIC_N_DIGESTS = {
    "2": "837191dbec098bb23e4f37273d5e0403ed7bdd8428d2f2702fa21b872ba2678a",
    "6": "433fddb0b2f4cdc1943c14ededba3ba8b551217c7a741042c6a718f2cb2e4606",
}


@pytest.mark.parametrize("n", list(NUMERIC_N_DIGESTS))
def test_numeric_n_algebra_digest(n):
    assert _exit_and_digest(["algebra", "--n", n]) == (0, NUMERIC_N_DIGESTS[n])


def _skip_unless_baseline_build():
    recorded = json.loads((BENCH / "results" / "baseline.json").read_text())
    running = worker.environment()
    for key in ("python", "numpy", "blas"):
        if recorded["environment"][key] != running[key]:
            pytest.skip(f"{key} build {running[key]!r} is not the baseline's")


# The seed-1 calls of the certify-small, suites and certify-n4 workloads.
SEED1_DIGESTS = {
    ("certify", "--N", "2", "--seed", "1"):
        "e572458e99d76623c0b184aeb4e9b5e90a13cc422a0cf1687d316972492c0d06",
    ("certify", "--N", "3", "--seed", "1"):
        "3b20ba30bc9b246ea9e61bbdbdd24d317186bd51083b31665e6559adad9b1035",
    ("geometry", "--N", "3", "--seed", "1"):
        "74b7deeafac95054a49e547c639750b327ea850f6ce08554c09dc2efdbfa9817",
    ("eigen", "--N", "3", "--seed", "1"):
        "1c00c127d7678a6e7e7eaf6d5cd4e854f2bb84537591ca1504aa1a400198dff3",
    ("variation", "--N", "2", "--seed", "1"):
        "979a89a26b5374c7371a4bd8cb66cf8a95e4dcbe70ddd23c989517926a004756",
    ("algebra", "--n", "symbolic", "--orders", "100", "--seed", "1"):
        "2a143bdbeae971a91abc5487ba0b6cc001f23ef358d94476d38e370e4496580e",
    ("moments", "--N", "2", "--mc-samples", "1000000", "--seed", "1"):
        "d59b1b9b9b868639215620d402ce1a0b2d2a9f764ba3e32c51311105c6605371",
    # the headline N, about 0.4 s
    ("certify", "--N", "4", "--seed", "1"):
        "1b9e26858d8ae8e3b4971a8fc763baee5ec134f224ca0d3f0f1733f410eeb9c0",
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
        1, "6f762f4221818e50bbb7488427daa0c44841051124498cdb325fc7916871caa3")


def test_moments_n3_digest():
    # the m = 4 harmonic expansion, _solve_qc on its weight blocks and a
    # Monte Carlo estimate
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "3", "--mc-samples", "100000", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "1c8171fc06b2e6ce96bc9cb34ff8ed93be522c1466898a52c552126bd07e6424")


def test_moments_n2_short_last_shard_digest():
    # a last shard of 10001 rows, one full row block and a short one, after
    # one of 200000 rows
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "2", "--mc-samples", "210001", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "63310a32bdba9035720b67b3bc10a20c54fafccd68f54a013f7073c429b88776")
