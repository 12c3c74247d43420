from fractions import Fraction
from pathlib import Path

import pytest

from cpn_entropy.rewrite import (Coef, GenExp, IntegralExpr, PHI2, PHI3,
                                 RuleError, confluence_check,
                                 expected_checkpoint,
                                 reduce_third_variation, reduce_to_fixed_point,
                                 ricci_second_variation_coefficients,
                                 rule_eigen, rule_gradient_reduction,
                                 rule_self_adjoint, rule_set, rule_zero_mean,
                                 second_variation_symbolic_zero,
                                 solve_f_second_integrals)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
PHI1 = GenExp(phi=1)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text().strip()


def one(key, coef=None) -> IntegralExpr:
    return IntegralExpr.single(key, coef if coef is not None else Coef.constant(1))


# ---------------------------------------------------------------------------
# coefficient arithmetic


def test_coef_ring_operations():
    n = Coef.n_var()
    it = Coef({(0, 1): F(1)})
    expr = (n - Coef.constant(2)) * it
    assert expr == Coef({(1, 1): F(1), (0, 1): F(-2)})
    assert (expr - expr).is_zero()
    assert expr.substitute_n(4) == Coef({(0, 1): F(2)})


def test_coef_monomial_division():
    pivot = Coef({(0, 1): F(-1, 2)})
    value = Coef({(1, 1): F(1, 2)})
    assert value.divide_by(pivot) == Coef({(1, 0): F(-1)})
    with pytest.raises(RuleError):
        value.divide_by(Coef.from_n_linear(1, -2))


# ---------------------------------------------------------------------------
# individual rules, frozen examples


def test_rule_eigen_examples():
    assert rule_eigen(one(GenExp(phi=2, lap=1))) == one(
        PHI3, Coef({(0, 1): F(-1)}))
    assert rule_eigen(one(GenExp(lap=1))) == one(PHI1, Coef({(0, 1): F(-1)}))
    untouched = one(GenExp(phi=1, grad=1))
    assert rule_eigen(untouched) == untouched


def test_rule_self_adjoint_examples():
    assert rule_self_adjoint(one(GenExp(phi=1, lapf2=1))) == one(
        GenExp(phi=1, f2=1), Coef({(0, 1): F(-1)}))
    assert rule_self_adjoint(one(GenExp(lapf2=1))).is_zero()
    # confluence with the eigen route on phi^2 lap phi
    direct = rule_eigen(one(GenExp(phi=2, lap=1)))
    via_adjoint = rule_eigen(rule_self_adjoint(one(GenExp(phi=2, lap=1))))
    assert direct == via_adjoint


def test_rule_gradient_reduction_examples():
    assert rule_gradient_reduction(one(GenExp(phi=1, grad=1))) == one(
        PHI3, Coef({(0, 1): F(1, 2)}))
    assert rule_gradient_reduction(one(GenExp(grad=1))) == one(
        PHI2, Coef({(0, 1): F(1)}))
    assert rule_gradient_reduction(IntegralExpr()).is_zero()


def test_rule_zero_mean_examples():
    tau2_term = one(GenExp(phi=1, tau2=1), Coef({(1, 2): F(1, 4)}))
    assert rule_zero_mean(tau2_term).is_zero()
    assert rule_zero_mean(one(PHI3)) == one(PHI3)
    mixed = one(PHI1) + one(PHI2)
    assert rule_zero_mean(mixed) == one(PHI2)


def test_f_second_elimination_solutions():
    phi_f2, phi_lap_f2 = solve_f_second_integrals("classical")
    assert phi_f2 == one(PHI3, -Coef.n_var())
    assert phi_lap_f2 == one(PHI3, Coef({(1, 1): F(1)}))
    # expressions without f'' pass through unchanged
    from cpn_entropy.rewrite import eliminate_f_second

    plain = one(PHI3, Coef.constant(5))
    assert eliminate_f_second(plain, "classical") == plain


def test_corrected_route_f_second_solution():
    phi_f2, phi_lap_f2 = solve_f_second_integrals("corrected")
    assert phi_f2 == one(PHI3, Coef({(1, 0): F(-1, 4), (0, 0): F(-1, 2)}))
    assert phi_lap_f2 == one(
        PHI3, Coef({(1, 1): F(1, 4), (0, 1): F(1, 2)}))


# ---------------------------------------------------------------------------
# the full reduction


def test_checkpoint_reproduced():
    result = reduce_third_variation("symbolic", "classical")
    assert result.checkpoint_matches
    assert expected_checkpoint("classical").canonical() == golden(
        "checkpoint_symbolic.txt")


def test_symbolic_normal_form_matches_golden():
    result = reduce_third_variation("symbolic", "classical")
    assert result.normal_form_text == golden("normal_form_symbolic.txt")
    assert result.final_text == golden("final_symbolic.txt")
    assert result.matches_expected
    assert result.phi2_coefficient_zero
    assert result.tau2_absent
    assert result.final_coefficient == Coef.from_n_linear(1, -2)


def test_numeric_normal_forms():
    r4 = reduce_third_variation(4, "classical")
    assert r4.normal_form_text == golden("normal_form_n4.txt")
    assert r4.final_text == golden("final_n4.txt")
    assert r4.final_coefficient == Coef.constant(2)
    for n in (6, 8):
        rn = reduce_third_variation(n, "classical")
        assert rn.matches_expected
        assert rn.final_coefficient == Coef.constant(n - 2)


def test_assembled_integrand_carries_tau_second_before_reduction():
    from cpn_entropy.rewrite import assemble_third_variation_integrand

    raw = assemble_third_variation_integrand("classical", None)
    assert any(key.tau2 for key in raw.terms)
    reduced = reduce_third_variation("symbolic", "classical")
    assert reduced.tau2_absent


def test_corrected_route_reaches_identical_normal_form():
    classical = reduce_third_variation("symbolic", "classical")
    corrected = reduce_third_variation("symbolic", "corrected")
    assert corrected.checkpoint_matches
    assert corrected.normal_form_text == classical.normal_form_text
    assert corrected.matches_expected


@pytest.mark.parametrize("route", ["classical", "corrected"])
def test_confluence_over_random_rule_orders(route):
    assert confluence_check("symbolic", route, orders=100, seed=7)


def test_confluence_numeric():
    assert confluence_check(4, "classical", orders=25, seed=11)


def test_mutation_is_flagged():
    base = ricci_second_variation_coefficients("classical")
    mutated = {"g_grad": -Coef.n_var() * F(1, 2)}  # (n-2)/2 -> n/2
    result = reduce_third_variation("symbolic", "classical",
                                    ric_overrides=mutated)
    assert not result.matches_expected
    assert not result.deviation.is_zero()
    # untouched coefficients reproduce the expected form
    clean = reduce_third_variation("symbolic", "classical",
                                   ric_overrides={"g_grad": base["g_grad"]})
    assert clean.matches_expected


def test_second_variation_reduces_to_zero_symbolically():
    assert second_variation_symbolic_zero()


def test_fixed_point_is_stable():
    result = reduce_third_variation("symbolic", "classical")
    again = reduce_to_fixed_point(result.normal_form, rule_set("classical"))
    assert again == result.normal_form


def test_coefficients_stay_rational():
    result = reduce_third_variation("symbolic", "classical")
    for coef in result.normal_form.terms.values():
        assert all(isinstance(v, F) for v in coef.terms.values())


# ---------------------------------------------------------------------------
# the numeric modules audit the symbolic rules: both sides of each derived
# rewrite are integrated by chart quadrature at N = 2


def _quadrature_audit_integrals():
    import numpy as np

    from cpn_entropy.eigenfunctions import phi_jet_batch, special_phi
    from cpn_entropy.geometry import (covariant_hessian_arrays,
                                      curvature_batch)
    from cpn_entropy.quadrature import chart_nodes

    N = 2
    form = special_phi(N)
    totals = {"phi2": 0.0, "phi3": 0.0, "grad": 0.0, "phi_grad": 0.0,
              "phi2_lap": 0.0}
    for w, wts in chart_nodes(N, 8, 8):
        geom = curvature_batch(w)
        jet = phi_jet_batch(form, 0, w)
        hess = covariant_hessian_arrays(jet.grad, jet.hess, geom.Gamma)
        lap = np.einsum("bij,bij->b", geom.g_inv, hess)
        grad_sq = np.einsum("bij,bi,bj->b", geom.g_inv, jet.grad, jet.grad)
        totals["phi2"] += float(np.dot(wts, jet.val ** 2))
        totals["phi3"] += float(np.dot(wts, jet.val ** 3))
        totals["grad"] += float(np.dot(wts, grad_sq))
        totals["phi_grad"] += float(np.dot(wts, jet.val * grad_sq))
        totals["phi2_lap"] += float(np.dot(wts, jet.val ** 2 * lap))
    return totals


def test_derived_rules_validated_by_quadrature():
    import math

    from cpn_entropy.geometry import einstein_tau

    tau = einstein_tau(2)
    t = _quadrature_audit_integrals()
    # eigen rule: int phi^2 lap phi = -(1/tau) int phi^3
    assert abs(t["phi2_lap"] + t["phi3"] / tau) / abs(t["phi3"] / tau) < 1e-5
    # gradient reduction, k = 1: int phi |grad phi|^2 = (1/(2 tau)) int phi^3
    lhs, rhs = t["phi_grad"], t["phi3"] / (2 * tau)
    assert abs(lhs - rhs) / abs(rhs) < 1e-5
    assert abs(rhs - 6 * math.pi ** 2 / 10) < 1e-8
    # gradient reduction, k = 0 (Rayleigh): int |grad phi|^2 = (1/tau) int phi^2
    assert abs(t["grad"] - t["phi2"] / tau) / (t["phi2"] / tau) < 1e-5
