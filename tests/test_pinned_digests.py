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
        "9b2d1f896ffbe3ebef2d08b6c0bf0d58f408252ae4115694153b01de000efd28",
    ("certify", "--N", "3", "--seed", "1"):
        "b42e5eea4a8a6d20c63e345931afc75260f367b28f5ebb4ae0a506db1ab1ff58",
    ("geometry", "--N", "3", "--seed", "1"):
        "826ad553844d271f78f1d3d65d2397b4fe6c927f466c97a2565b788df9712d58",
    ("eigen", "--N", "3", "--seed", "1"):
        "7d510aed3d7d6b97cf53c682327db74328fcf7c461a6a6c14b07d368eb1b9e8e",
    ("variation", "--N", "2", "--seed", "1"):
        "b174e82d49c45dbc4f4307cfcf09e61517bba4b9a1163bfbe3eb57e598fbb2ed",
    ("algebra", "--n", "symbolic", "--orders", "100", "--seed", "1"):
        "2a143bdbeae971a91abc5487ba0b6cc001f23ef358d94476d38e370e4496580e",
    ("moments", "--N", "2", "--mc-samples", "1000000", "--seed", "1"):
        "4116d56841b2dc4a60ffe4e11cc5641bc6388bc506737c8f480e84130f738c6a",
    # the headline N, about 2.5 s
    ("certify", "--N", "4", "--seed", "1"):
        "ddd27f32054b33445e1472309a17c1a29b1c480da693a3c2ae89f2f3fe6fec08",
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
        1, "1be17ffce01d896febd60be6a1bd3bd0c3c962d1d38ccb5e2b99c8ea090a0515")


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
