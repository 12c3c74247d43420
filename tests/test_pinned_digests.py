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
        "ac452186f0e83776d8daefa00d7753ff898f4813c39b96717f5176b9709e5f7c",
    ("certify", "--N", "3", "--seed", "1"):
        "7c8a8b106f7bfe32e744b315164c3bd1881ffccae2522ae05a8fa26978ad946f",
    ("geometry", "--N", "3", "--seed", "1"):
        "a5f7eba2480d19e1a968ef57811d05de132bcc14fbbbf58c3a18039234bc0de4",
    ("eigen", "--N", "3", "--seed", "1"):
        "a6439e14a2a5cc62a9ae52e6e2c62d95ec74de41458232cb576ac1fe73ab70d2",
    ("variation", "--N", "2", "--seed", "1"):
        "bc75cc25bebb74ee8d71d39a32af26b67dd5e4da2f8bbac279ba8161d4b36055",
    ("algebra", "--n", "symbolic", "--orders", "100", "--seed", "1"):
        "2a143bdbeae971a91abc5487ba0b6cc001f23ef358d94476d38e370e4496580e",
    ("moments", "--N", "2", "--mc-samples", "1000000", "--seed", "1"):
        "2370aa77406af565e83f109f2227836e367ed65a9066a5ebf6db4c71acc3eebc",
    # the headline N, about 0.1 s
    ("certify", "--N", "4", "--seed", "1"):
        "fb2290be95ddbd8e18062d96943f685ee37fb7a8f989b0e74cc7f03041179ccf",
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
        1, "9989c9a6703f2959f57d13cb6a283b0669429a21f1bc533415244a91bbafca97")


def test_moments_n3_digest():
    # the m = 4 harmonic expansion, _solve_qc on its weight blocks and a
    # Monte Carlo estimate
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "3", "--mc-samples", "100000", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "1a767781d148fbe2f64c56b982677f5d73948354a10ac0dd085a00e88554eb68")


def test_moments_n2_short_last_shard_digest():
    # a last shard of 10001 rows, one full row block and a short one, after
    # one of 200000 rows
    _skip_unless_baseline_build()
    argv = ["moments", "--N", "2", "--mc-samples", "210001", "--seed", "1"]
    assert _exit_and_digest(argv) == (
        0, "d5ef2911af4548d6c2504beb64a281bb9a3e0bfa35ed7988a4699f0a0fdee91e")
