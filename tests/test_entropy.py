import math
from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy.charts import sample_w
from cpn_entropy.entropy import (CERTIFICATE_CHECKS, ConformalPerturbation,
                                 _SWEEP_DEGREE, _geometry_sweep,
                                 _third_variation_rational,
                                 certify, first_variations,
                                 minimizer_identity_coefficient,
                                 n_tilde_batch, n_tilde_max,
                                 second_variation, third_variation, v_of)
from cpn_entropy.eigenfunctions import (HermitianForm, _form_from_int,
                                        basis_first_eigenspace,
                                        phi_values_batch, special_phi)
from cpn_entropy.geometry import (curvature_batch, einstein_tau,
                                  hessian_and_laplacian)
from cpn_entropy.moments import cpn_average, cpn_volume_closed_form
from cpn_entropy.quadrature import (chart_nodes, cpn_integral, exact_orders,
                                    witness_nodes)

F = Fraction


def identity_form(N: int) -> HermitianForm:
    """A = I, inducing the constant function 1 (not an eigenfunction)."""
    eye = [[int(i == j) for j in range(N + 1)] for i in range(N + 1)]
    return _form_from_int(eye, [[0] * (N + 1)] * (N + 1))


def zero_form(N: int) -> HermitianForm:
    zeros = [[0] * (N + 1)] * (N + 1)
    return _form_from_int(zeros, zeros)


def scaled_form(form: HermitianForm, c: int) -> HermitianForm:
    exact = tuple(tuple((re * c, im * c) for re, im in row)
                  for row in form.exact)
    return HermitianForm(form.matrix * c, exact)


def form_sum(a: HermitianForm, b: HermitianForm) -> HermitianForm:
    exact = tuple(tuple((ra[0] + rb[0], ra[1] + rb[1])
                        for ra, rb in zip(rowa, rowb))
                  for rowa, rowb in zip(a.exact, b.exact))
    return HermitianForm(a.matrix + b.matrix, exact)


def scaled(h: ConformalPerturbation, c: int) -> ConformalPerturbation:
    return ConformalPerturbation(scaled_form(h.form, c), h.N)


def sweeps(h: ConformalPerturbation) -> tuple:
    """The geometry sweeps on the exact rule and on its witness, which
    ``certify`` shares between stages."""
    orders = exact_orders(_SWEEP_DEGREE)
    return tuple(_geometry_sweep(h, nodes(h.N, *orders))
                 for nodes in (chart_nodes, witness_nodes))


def sampled(N: int, points: int, seed: int):
    """``(w, curvature_batch(w))`` at ``sample_w(N, points, seed)``."""
    w = sample_w(N, points, seed)
    return w, curvature_batch(w)


def n_operator_batch(h: ConformalPerturbation, w, geom):
    """N(h) = Ntilde(h) - (Hbar / (2 n tau)) g, with Hbar = n avg(psi)."""
    n = 2 * h.N
    hbar = n * float(h.exact_average(1))
    return n_tilde_batch(h, w, geom) - hbar / (2 * n * einstein_tau(h.N)) * geom.g


def third_variation_exact_rational(N: int) -> Fraction:
    """The third variation along the special phi, in closed form."""
    return _third_variation_rational(N, cpn_average(3, special_phi(N), N))


def test_v_is_twice_phi_with_small_residual():
    h = ConformalPerturbation.special(2)
    assert v_of(h, einstein_tau(2), *sampled(2, 100, 7)) < 1e-8


def test_v_of_zero_perturbation():
    zero = ConformalPerturbation(zero_form(2), 2)
    assert v_of(zero, einstein_tau(2), *sampled(2, 50, 7)) == 0.0


def test_v_of_rejects_non_eigenfunction():
    # phi = 1 is harmonic, so the residual is |phi/tau| = 1/tau = 12 at N = 2
    resid = v_of(ConformalPerturbation(identity_form(2), 2), einstein_tau(2),
                 *sampled(2, 50, 7))
    assert abs(resid - 1 / einstein_tau(2)) < 1e-9
    assert abs(resid - 12.0) < 1e-9


def test_v_has_zero_mean_exactly():
    for form in basis_first_eigenspace(2) + [special_phi(2)]:
        h = ConformalPerturbation(form, 2)
        assert h.exact_average(1) == 0


def test_n_tilde_vanishes_pointwise():
    h = ConformalPerturbation.special(2)
    assert n_tilde_max(h, *sampled(2, 100, 7)) < 1e-7


def test_n_tilde_of_zero_is_zero():
    zero = ConformalPerturbation(zero_form(2), 2)
    w = sample_w(2, 10, seed=7)
    assert np.max(np.abs(n_tilde_batch(zero, w, curvature_batch(w)))) == 0.0


def test_dropping_v_term_leaves_hessian_scale():
    # the residual decomposition: without (1/2) Hess v = Hess phi the
    # operator equals (1/2)(lap phi + phi/tau) g - Hess phi, i.e. a
    # Hessian-sized quantity
    h = ConformalPerturbation.special(2)
    w = sample_w(2, 20, seed=7)
    geom = curvature_batch(w)
    hess = hessian_and_laplacian(h.psi_jet(w), geom)[0]
    without_v_term = n_tilde_batch(h, w, geom) - hess
    assert np.max(np.abs(without_v_term)) > 0.1


def test_n_tilde_residual_decomposition_term_by_term():
    # Ntilde(phi g) = (1/2)(lap phi + phi/tau) g + Hess(v/2 - phi): both
    # pieces must be below tolerance individually
    from cpn_entropy.geometry import covariant_hessian_arrays

    N = 2
    h = ConformalPerturbation.special(N)
    tau = einstein_tau(N)
    w = sample_w(N, 50, seed=7)
    geom = curvature_batch(w)
    jet = h.psi_jet(w)
    hess = covariant_hessian_arrays(jet.grad, jet.hess, geom.Gamma)
    lap = np.einsum("bij,bij->b", geom.g_inv, hess)
    eigen_piece = 0.5 * (lap + jet.val / tau)[:, None, None] * geom.g
    assert v_of(h, tau, *sampled(N, 10, 7)) < 1e-8
    v_jet = jet * 2.0
    v_hess = covariant_hessian_arrays(v_jet.grad, v_jet.hess, geom.Gamma)
    hess_piece = 0.5 * v_hess - hess
    assert np.max(np.abs(eigen_piece)) < 1e-7
    assert np.max(np.abs(hess_piece)) < 1e-7
    # the two pieces reassemble the operator (up to the Einstein deviation,
    # which the geometry suite bounds at 1e-9)
    total = n_tilde_batch(h, w, geom)
    assert np.max(np.abs(total - eigen_piece - hess_piece)) < 1e-7


def test_n_operator_equals_n_tilde_for_eigen_direction():
    h = ConformalPerturbation.special(2)
    w = sample_w(2, 20, seed=3)
    geom = curvature_batch(w)
    assert np.max(np.abs(n_operator_batch(h, w, geom)
                         - n_tilde_batch(h, w, geom))) < 1e-12


def test_single_point_operator_wrappers():
    # single-point use of the batch operators: f(p.w[None, :])[0]
    from cpn_entropy.charts import ChartPoint

    h = ConformalPerturbation.special(2)
    p = ChartPoint(0, np.array([0.4 + 0.1j, -0.3 + 0.6j]))
    geom = curvature_batch(p.w[None, :])
    nt = n_tilde_batch(h, p.w[None, :], geom)[0]
    assert nt.shape == (4, 4)
    assert np.max(np.abs(nt)) < 1e-7
    assert np.max(np.abs(nt - nt.T)) < 1e-12
    assert np.max(np.abs(n_operator_batch(h, p.w[None, :], geom)[0]
                         - nt)) < 1e-12


def test_mean_trace_term_for_constant_direction():
    # psi = 1: N - Ntilde = -(Hbar/(2 n tau)) g with Hbar = n
    N = 2
    n = 2 * N
    one = ConformalPerturbation(identity_form(N), N)
    assert one.exact_average(1) == 1
    w = sample_w(N, 10, seed=4)
    geom = curvature_batch(w)
    tau = einstein_tau(N)
    diff = n_operator_batch(one, w, geom) - n_tilde_batch(one, w, geom)
    expected = -(n / (2 * n * tau)) * geom.g
    assert np.max(np.abs(diff - expected)) < 1e-12


def test_n_operator_is_linear():
    N = 2
    forms = basis_first_eigenspace(N)
    a, b = ConformalPerturbation(forms[0], N), ConformalPerturbation(forms[3], N)
    ab = ConformalPerturbation(form_sum(forms[0], forms[3]), N)
    w = sample_w(N, 10, seed=5)
    geom = curvature_batch(w)
    lhs = n_operator_batch(ab, w, geom)
    rhs = n_operator_batch(a, w, geom) + n_operator_batch(b, w, geom)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_first_variations_vanish_and_match():
    h = ConformalPerturbation.special(2)
    fv = first_variations(h, einstein_tau(2), sweeps(h))
    assert abs(fv["tau_prime"]) < 1e-8
    assert abs(fv["volume_prime"]) < 1e-8
    assert abs(fv["hbar_prime_closed"] - 2.0) < 1e-12
    assert abs(fv["hbar_prime"] - fv["hbar_prime_closed"]) < 1e-14


@pytest.mark.parametrize("N", [2, 3])
def test_hbar_prime_is_the_derivative_of_the_mean_trace(N):
    # psi = 1 + phi has mean 1, so the (int psi)^2 term counts too.  The
    # oracle is a central difference of
    # Hbar(s) = int n psi (1 + s psi)^(N-1) dV / int (1 + s psi)^N dV
    n = 2 * N
    form = form_sum(identity_form(N), special_phi(N))
    h = ConformalPerturbation(form, N)
    fv = first_variations(h, einstein_tau(N), sweeps(h))

    def hbar(s):
        def integral(power, factor):
            def integrand(w):
                psi = phi_values_batch(form, 0, w)
                return factor(psi) * (1.0 + s * psi) ** power
            return cpn_integral(integrand, N, *exact_orders(N + 1))
        return integral(N - 1, lambda psi: n * psi) / integral(
            N, lambda psi: 1.0)

    step = 1e-4
    difference = (hbar(step) - hbar(-step)) / (2 * step)
    assert abs(fv["hbar_prime"] - difference) < 1e-6
    # the same value from the exact moments, and V' = (n/2) V avg(psi)
    avg1, avg2 = h.exact_average(1), h.exact_average(2)
    assert avg1 == 1
    assert abs(fv["hbar_prime"] - float(n * ((N - 1) * avg2 - N * avg1 ** 2))
               ) < 1e-12
    assert abs(fv["volume_prime"] - n / 2 * cpn_volume_closed_form(N)) < 1e-12


def test_second_variation_vanishes_for_eigen_direction():
    h = ConformalPerturbation.special(2)
    nu2, err = second_variation(h, einstein_tau(2), sweeps(h))
    assert abs(nu2) < 1e-7


def test_second_variation_of_zero_is_zero():
    zero = ConformalPerturbation(zero_form(2), 2)
    nu2, _ = second_variation(zero, einstein_tau(2), sweeps(zero))
    assert nu2 == 0.0


def test_second_variation_quadratic_scaling():
    # doubling h scales the quadrature functional by exactly 4 (powers of
    # two commute with floating-point rounding)
    h = ConformalPerturbation.special(2)
    nu2, _ = second_variation(h, einstein_tau(2), sweeps(h))
    double = scaled(h, 2)
    nu2_scaled, _ = second_variation(double, einstein_tau(2), sweeps(double))
    assert abs(nu2_scaled - 4.0 * nu2) <= 1e-10 * max(abs(nu2), 1e-30) + 1e-18


@pytest.mark.parametrize("N,expected", [
    (2, F(9, 5)), (3, F(64, 15)), (4, F(125, 14))])
def test_third_variation_exact_rational(N, expected):
    assert third_variation_exact_rational(N) == expected


def test_third_variation_n2_value():
    tv = third_variation(2, special_phi(2), einstein_tau(2))
    assert list(tv) == ["phi3_average", "exact_times_volume", "quadrature",
                        "rel_diff", "value", "exact_rational"]
    assert tv["phi3_average"] == F(1, 5)
    assert tv["exact_rational"] == F(9, 5)
    assert abs(tv["value"] - 1.8) < 1e-12
    assert tv["rel_diff"] < 1e-5
    assert abs(tv["exact_times_volume"] - math.pi ** 2 / 10) < 1e-12


def test_third_variation_flips_sign_with_phi():
    tv_plus = third_variation(2, special_phi(2), einstein_tau(2))
    tv_minus = third_variation(2, scaled_form(special_phi(2), -1),
                               einstein_tau(2))
    assert tv_minus["exact_rational"] == -tv_plus["exact_rational"]
    assert abs(tv_minus["value"] + tv_plus["value"]) < 1e-12


def test_second_variation_invariant_under_sign_flip():
    h = ConformalPerturbation.special(2)
    nu2, _ = second_variation(h, einstein_tau(2), sweeps(h))
    flip = scaled(h, -1)
    nu2_flip, _ = second_variation(flip, einstein_tau(2), sweeps(flip))
    assert nu2_flip == nu2  # quadratic functional, exact under negation


def test_third_variation_positive_for_all_small_n():
    for N in (2, 3, 4, 5):
        assert third_variation_exact_rational(N) > 0


def test_third_variation_requires_n_at_least_two():
    with pytest.raises(ValueError):
        third_variation(1, identity_form(1), einstein_tau(1))


def test_minimizer_identity_is_two():
    assert minimizer_identity_coefficient() == 2


def test_certificate_n2():
    checks, cert = certify(2, points=100, seed=7, timings={})
    assert [rec["name"] for rec in checks] == list(CERTIFICATE_CHECKS)
    assert cert["verdict"] == "not_local_max"
    assert all(rec["status"] == "pass" for rec in checks)
    records = {rec["name"]: rec for rec in checks}
    nu3 = records["third_variation_nonzero"]["detail"]["value"]
    assert abs(nu3 - 1.8) < 1e-5 * 1.8
    assert abs(cert["tau"]["value"] - 1 / 12) < 1e-9
    assert abs(cert["prefactor_ratio"]["value"] - 4.5) < 1e-9
    assert records["eigen_residual"]["residual"] < 1e-8
    assert records["second_variation"]["residual"] < 1e-7


def test_certify_rejects_n1():
    with pytest.raises(ValueError, match="N >= 2"):
        certify(1, points=100, seed=7, timings={})
