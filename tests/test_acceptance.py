"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy.charts import sample_w
from cpn_entropy.cli import main
from cpn_entropy.eigenfunctions import basis_first_eigenspace, verify_eigen
from cpn_entropy.entropy import (ConformalPerturbation, _SWEEP_DEGREE,
                                 _geometry_sweep, certify, first_variations,
                                 n_tilde_max, second_variation, v_of)
from cpn_entropy.geometry import curvature_batch, einstein_tau
from cpn_entropy.moments import monte_carlo_average, polynomial_average
from cpn_entropy.polynomials import special_cubic_polynomial
from cpn_entropy.quadrature import chart_nodes, exact_orders, witness_nodes
from cpn_entropy.report import dumps, parse_report, strip_timings
from cpn_entropy.rewrite import (Coef, confluence_check, expected_checkpoint,
                                 reduce_third_variation, rule_zero_mean,
                                 assemble_third_variation_integrand)
from cpn_entropy.moments import symmetry_vanishing
from cpn_entropy.polynomials import BihomogeneousPolynomial
from cpn_entropy.variation import default_coefficients, verify_lemma_suite

F = Fraction


def _criterion(number: int, description: str, passed: bool):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_einstein_certification():
    t0 = time.time()
    ok = True
    for N in (1, 2, 3):
        w = sample_w(N, 100, seed=7)
        geo = curvature_batch(w)
        tau = einstein_tau(N, seed=7)
        ok &= float(np.max(np.abs(geo.Ric - geo.g / (2 * tau)))) < 1e-9
        scal = 2 * N / (2 * tau)
        ok &= float(np.max(np.abs(geo.R - scal))) < 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _criterion(1, "Ric = g/(2 tau) within 1e-9 at 100 seeded points, "
                  f"tau = n/(2R) constant, N in {{1,2,3}} ({elapsed:.1f}s < 30s)",
               ok)


def test_criterion_2_eigenspace():
    t0 = time.time()
    ok = True
    for N in (1, 2, 3):
        basis = basis_first_eigenspace(N)
        ok &= len(basis) == N * (N + 2)
        tau = einstein_tau(N, seed=7)
        w = sample_w(N, 100, seed=7)
        geom = curvature_batch(w)
        worst = max(verify_eigen(form, tau, w, geom) for form in basis)
        ok &= worst < 1e-8
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _criterion(2, "dimension N(N+2), eigen residual < 1e-8 over basis x 100 "
                  f"points ({elapsed:.1f}s < 60s)", ok)


def test_criterion_3_moments():
    ok = True
    for N in range(2, 7):
        f = special_cubic_polynomial(N)
        avg3 = polynomial_average(N + 1, f.power(3))
        ok &= avg3 == F(12, (N + 1) * (N + 2) * (N + 3)) and avg3 > 0
        ok &= polynomial_average(N + 1, f) == 0
        f1 = BihomogeneousPolynomial(N + 1, {
            (tuple([1] + [0] * N), tuple([0, 1] + [0] * (N - 1))): 1,
            (tuple([0, 1] + [0] * (N - 1)), tuple([1] + [0] * N)): 1})
        ok &= symmetry_vanishing(f1, ("negate", 0))
    f2 = special_cubic_polynomial(2)
    mean, se = monte_carlo_average(f2.power(3), 3, 1_000_000, seed=7)
    ok &= abs(mean - 0.2) < 3 * se
    _criterion(3, "exact avg f^3 = 12/((N+1)(N+2)(N+3)) > 0 for N in 2..6, "
                  "MC at 10^6 within 3 sigma, zero-mean and symmetry exact", ok)


def test_criterion_4_lemma_suite():
    def failing_quantities(results):
        return {key for key, (_, passed) in results.items() if not passed}

    ok = True
    for N, points in ((2, 50), (3, 50)):
        ok &= not failing_quantities(verify_lemma_suite(N, points, seed=7,
                                                        mutations=None))
    defaults = default_coefficients(4)
    for key, coeffs in defaults.items():
        for name, value in coeffs.items():
            mutated = {key: {name: value + F(1, 2)}}
            results = verify_lemma_suite(2, 4, seed=7, mutations=mutated)
            ok &= key in failing_quantities(results)
    _criterion(4, "ten variation formulas match FD within 1e-5 at 50 points, "
                  "N in {2,3}; every single-coefficient mutation detected", ok)


def test_criterion_5_stability_operators():
    h = ConformalPerturbation.special(2)
    tau = einstein_tau(2)
    w = sample_w(2, 100, seed=7)
    geom = curvature_batch(w)
    ok = n_tilde_max(h, w, geom) < 1e-7
    ok &= v_of(h, tau, w, geom) < 1e-8
    orders = exact_orders(_SWEEP_DEGREE)
    sweeps = tuple(_geometry_sweep(h, nodes(h.N, *orders))
                   for nodes in (chart_nodes, witness_nodes))
    nu2, _ = second_variation(h, tau, sweeps)
    ok &= abs(nu2) < 1e-7
    fv = first_variations(h, tau, sweeps)
    ok &= abs(fv["tau_prime"]) < 1e-8
    ok &= abs(fv["volume_prime"]) < 1e-8
    ok &= abs(fv["hbar_prime"] - fv["hbar_prime_closed"]) < 1e-5
    _criterion(5, "Ntilde(phi g) = 0 within 1e-7, v = 2 phi within 1e-8, "
                  "nu'' = 0 within 1e-7, tau' and V' within 1e-8, "
                  "Hbar' matches n(n-2)/(2V)||phi||^2 within 1e-5", ok)


def test_criterion_6_symbolic_reduction():
    result = reduce_third_variation("symbolic", "classical")
    ok = result.matches_expected
    ok &= result.final_coefficient == Coef.from_n_linear(1, -2)
    ok &= result.phi2_coefficient_zero and result.tau2_absent
    checkpoint = rule_zero_mean(
        assemble_third_variation_integrand("classical", None))
    ok &= checkpoint == expected_checkpoint("classical")
    ok &= confluence_check("symbolic", "classical", orders=100, seed=7)
    _criterion(6, "symbolic reduction yields (n-2)(4 pi tau)^(-n/2) with zero "
                  "phi^2 and tau'' remainder, checkpoint reproduced, "
                  "confluent over 100 random orders", ok)


def test_criterion_7_end_to_end_certificates(capsys):
    t0 = time.time()
    code = main(["certify", "--N", "2", "--seed", "7"])
    out = capsys.readouterr().out
    report = parse_report(out)
    cert = report["certificate"]
    records = {rec["name"]: rec for rec in report["checks"]}
    ok = code == 0 and cert["verdict"] == "not_local_max"
    nu3 = records["third_variation_nonzero"]["detail"]["value"]
    ok &= abs(nu3 - 1.8) < 1e-5 * 1.8
    ok &= cert["third_variation"]["exact_rational"] == {"num": "9", "den": "5"}
    ok &= records["third_variation_cross_check"]["residual"] < 1e-5
    for N in (3, 4):
        _, cert_n = certify(N, points=60, seed=7, timings={})
        ok &= cert_n["verdict"] == "not_local_max"
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _criterion(7, "certify N=2 gives nu''' = 1.8 within 1e-5 with exact and "
                  f"quadrature paths agreeing; N in {{2,3,4}} pass "
                  f"({elapsed:.0f}s < 300s)", ok)


def test_criterion_8_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["eigen", "--N", "2", "--seed", "7", "--points", "25"])
        assert code == 0
        outputs.append(parse_report(capsys.readouterr().out))
    ok = dumps(strip_timings(outputs[0])) == dumps(strip_timings(outputs[1]))
    for _ in range(2):
        code = main(["moments", "--N", "2", "--seed", "7",
                     "--mc-samples", "50000"])
        assert code == 0
        outputs.append(parse_report(capsys.readouterr().out))
    ok &= dumps(strip_timings(outputs[2])) == dumps(strip_timings(outputs[3]))
    _criterion(8, "identical configs produce byte-identical reports "
                  "(timing fields excluded)", ok)
