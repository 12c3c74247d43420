import math
from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy.charts import sample_w
from cpn_entropy.entropy import (ConformalPerturbation, NotEigenError,
                                 StabilityCertificate, certify,
                                 first_variations, minimizer_identity_coefficient,
                                 n_operator_batch, n_tilde_batch, n_tilde_max,
                                 second_variation, third_variation,
                                 third_variation_exact_rational, v_of)
from cpn_entropy.eigenfunctions import (HermitianForm, basis_first_eigenspace,
                                        special_phi)
from cpn_entropy.geometry import curvature_batch, einstein_tau

F = Fraction


def test_v_is_twice_phi_with_small_residual():
    h = ConformalPerturbation.special(2)
    v = v_of(h, points=100, seed=7)
    assert v.scale == 2.0
    assert v.residual < 1e-8
    w = sample_w(2, 5, seed=1)
    assert np.allclose(v.jet(w).val, 2.0 * h.psi_values(w), atol=1e-14)


def test_v_of_zero_perturbation():
    from cpn_entropy.eigenfunctions import zero_form

    zero = ConformalPerturbation(zero_form(2), 2)
    v = v_of(zero)
    assert v.residual == 0.0
    assert np.all(v.jet(sample_w(2, 3, seed=0)).val == 0.0)


def test_v_of_rejects_non_eigenfunction():
    with pytest.raises(NotEigenError):
        v_of(ConformalPerturbation.constant_one(2))


def test_v_has_zero_mean_exactly():
    for form in basis_first_eigenspace(2):
        h = ConformalPerturbation(form, 2)
        assert h.exact_average(1) == 0


def test_n_tilde_vanishes_pointwise():
    h = ConformalPerturbation.special(2)
    assert n_tilde_max(h, points=100, seed=7) < 1e-7


def test_n_tilde_of_zero_is_zero():
    from cpn_entropy.eigenfunctions import zero_form

    zero = ConformalPerturbation(zero_form(2), 2)
    w = sample_w(2, 10, seed=7)
    assert np.max(np.abs(n_tilde_batch(zero, w))) == 0.0


def test_dropping_v_term_leaves_hessian_scale():
    # the residual decomposition: without (1/2) Hess v the operator equals
    # (1/2)(lap phi + phi/tau) g - Hess phi, i.e. a Hessian-sized quantity
    h = ConformalPerturbation.special(2)
    w = sample_w(2, 20, seed=7)
    mutated = n_tilde_batch(h, w, include_v_term=False)
    assert np.max(np.abs(mutated)) > 0.1


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
    eigen_piece = 0.5 * (lap + jet.val / tau.tau)[:, None, None] * geom.g
    v = v_of(h, tau, points=10, seed=7)
    v_jet = v.jet(w)
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
    nt = n_tilde_batch(h, p.w[None, :])[0]
    assert nt.shape == (4, 4)
    assert np.max(np.abs(nt)) < 1e-7
    assert np.max(np.abs(nt - nt.T)) < 1e-12
    assert np.max(np.abs(n_operator_batch(h, p.w[None, :])[0] - nt)) < 1e-12


def test_mean_trace_term_for_constant_direction():
    # psi = 1: N - Ntilde = -(Hbar/(2 n tau)) g with Hbar = n
    N = 2
    n = 2 * N
    one = ConformalPerturbation.constant_one(N)
    assert one.trace_mean_exact() == n
    w = sample_w(N, 10, seed=4)
    geom = curvature_batch(w)
    tau = einstein_tau(N)
    diff = n_operator_batch(one, w, geom) - n_tilde_batch(one, w, geom)
    expected = -(n / (2 * n * tau.tau)) * geom.g
    assert np.max(np.abs(diff - expected)) < 1e-12


def test_n_operator_is_linear():
    N = 2
    forms = basis_first_eigenspace(N)
    a, b = ConformalPerturbation(forms[0], N), ConformalPerturbation(forms[3], N)
    matrix_sum = HermitianForm(
        forms[0].matrix + forms[3].matrix,
        tuple(tuple((ra[0] + rb[0], ra[1] + rb[1])
                    for ra, rb in zip(rowa, rowb))
              for rowa, rowb in zip(forms[0].exact, forms[3].exact)))
    ab = ConformalPerturbation(matrix_sum, N)
    w = sample_w(N, 10, seed=5)
    geom = curvature_batch(w)
    lhs = n_operator_batch(ab, w, geom)
    rhs = n_operator_batch(a, w, geom) + n_operator_batch(b, w, geom)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_first_variations_vanish_and_match():
    h = ConformalPerturbation.special(2)
    fv = first_variations(h)
    assert abs(fv["tau_prime"]) < 1e-8
    assert abs(fv["volume_prime"]) < 1e-8
    assert abs(fv["hbar_prime_closed"] - 2.0) < 1e-12
    assert abs(fv["hbar_prime_fd"] - fv["hbar_prime_closed"]) < 1e-5
    assert fv["psi_mean_exact"] == 0


def test_second_variation_vanishes_for_eigen_direction():
    h = ConformalPerturbation.special(2)
    nu2, err = second_variation(h)
    assert abs(nu2) < 1e-7


def test_second_variation_of_zero_is_zero():
    from cpn_entropy.eigenfunctions import zero_form

    zero = ConformalPerturbation(zero_form(2), 2)
    nu2, _ = second_variation(zero)
    assert nu2 == 0.0


def test_second_variation_quadratic_scaling():
    # doubling h scales the quadrature functional by exactly 4 (powers of
    # two commute with floating-point rounding)
    h = ConformalPerturbation.special(2)
    nu2, _ = second_variation(h)
    nu2_scaled, _ = second_variation(h.scaled(2))
    assert abs(nu2_scaled - 4.0 * nu2) <= 1e-10 * max(abs(nu2), 1e-30) + 1e-18


@pytest.mark.parametrize("N,expected", [
    (2, F(9, 5)), (3, F(64, 15)), (4, F(125, 14))])
def test_third_variation_exact_rational(N, expected):
    assert third_variation_exact_rational(N) == expected


def test_third_variation_n2_value():
    tv = third_variation(2)
    assert tv.exact_rational == F(9, 5)
    assert abs(tv.value - 1.8) < 1e-12
    assert tv.quadrature_rel_diff < 1e-5
    assert abs(tv.phi3_integral_exact - math.pi ** 2 / 10) < 1e-12


def test_third_variation_flips_sign_with_phi():
    tv_plus = third_variation(2)
    tv_minus = third_variation(2, form=special_phi(2).scaled(-1))
    assert tv_minus.exact_rational == -tv_plus.exact_rational
    assert abs(tv_minus.value + tv_plus.value) < 1e-12


def test_second_variation_invariant_under_sign_flip():
    h = ConformalPerturbation.special(2)
    nu2, _ = second_variation(h)
    nu2_flip, _ = second_variation(h.scaled(-1))
    assert nu2_flip == nu2  # quadratic functional, exact under negation


def test_third_variation_positive_for_all_small_n():
    for N in (2, 3, 4, 5):
        assert third_variation_exact_rational(N) > 0


def test_third_variation_requires_n_at_least_two():
    with pytest.raises(ValueError):
        third_variation(1)


def test_minimizer_identity_is_two():
    assert minimizer_identity_coefficient() == 2


def test_certificate_n2():
    cert = certify(2, points=100, seed=7)
    assert isinstance(cert, StabilityCertificate)
    assert cert.verdict == "not_local_max"
    assert not cert.failures
    assert abs(cert.third_variation.value - 1.8) < 1e-5 * 1.8
    assert abs(cert.tau - 1 / 12) < 1e-9
    assert abs(cert.prefactor_ratio - 4.5) < 1e-9
    assert cert.eigen_residual < 1e-8
    assert abs(cert.second_variation) < 1e-7


def test_certify_rejects_n1():
    with pytest.raises(ValueError, match="N >= 2"):
        certify(1)
