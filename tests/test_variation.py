from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy.charts import sample_w
from cpn_entropy.eigenfunctions import HermitianForm, special_phi
from cpn_entropy.geometry import einstein_tau
from cpn_entropy.variation import (PositivityError, QUANTITIES,
                                   closed_form_derivative,
                                   conformal_change_mismatch,
                                   default_coefficients, default_test_function,
                                   failing_quantities, family_geometry,
                                   fd_derivative,
                                   prepare_point_data,
                                   gradient_free_second_order_coefficients,
                                   undetected_mutations, verify_lemma_suite)
from cpn_entropy import variation

F = Fraction


@pytest.mark.parametrize("N,points", [(2, 50), (3, 20)])
def test_lemma_suite_passes(N, points):
    results = verify_lemma_suite(N, points, seed=7)
    assert list(results) == list(QUANTITIES)
    assert not failing_quantities(results)


def test_scalar_first_variation_reduces_via_eigen_equation():
    # R' = -(n-1) lap phi - (n/(2 tau)) phi = ((n-2)/(2 tau)) phi
    N, n = 2, 4
    w = sample_w(N, 20, seed=3)
    tau = einstein_tau(N)
    phi = special_phi(N)
    data = prepare_point_data(N, w, phi, default_test_function(N))
    closed = closed_form_derivative("scalar", 1, data, default_coefficients(n))
    reduced = (n - 2) / (2 * tau) * data.phi.val
    assert np.max(np.abs(closed - reduced)) < 1e-9


def test_inverse_first_variation_vanishes_where_phi_does():
    # the special phi vanishes at the chart origin
    N = 2
    w = np.zeros((1, N), dtype=complex)
    phi = special_phi(N)
    data = prepare_point_data(N, w, phi, default_test_function(N))
    closed = closed_form_derivative("inverse", 1, data,
                                    default_coefficients(2 * N))
    assert np.max(np.abs(closed)) < 1e-15


def test_second_laplacian_variation_on_constant_is_zero():
    N = 2
    w = sample_w(N, 5, seed=4)
    phi = special_phi(N)
    const = HermitianForm(np.eye(N + 1, dtype=complex),
                          tuple(tuple((F(int(i == j)), F(0))
                                      for j in range(N + 1))
                                for i in range(N + 1)))
    data = prepare_point_data(N, w, phi, const)
    closed = closed_form_derivative("laplacian", 2, data,
                                    default_coefficients(2 * N))
    assert np.max(np.abs(closed)) < 1e-12
    fd = fd_derivative("laplacian", 2, phi, w, data.u)
    assert np.max(np.abs(fd)) < 1e-7


def test_fd_inverse_matches_closed_form_tightly():
    N = 2
    w = sample_w(N, 10, seed=5)
    phi = special_phi(N)
    data = prepare_point_data(N, w, phi, default_test_function(N))
    closed = closed_form_derivative("inverse", 1, data,
                                    default_coefficients(2 * N))
    fd = fd_derivative("inverse", 1, phi, w, data.u)
    assert np.max(np.abs(closed - fd)) < 1e-7


def test_fd_ricci_second_variation_matches_closed_form():
    N = 2
    w = sample_w(N, 10, seed=5)
    phi = special_phi(N)
    data = prepare_point_data(N, w, phi, default_test_function(N))
    closed = closed_form_derivative("ricci", 2, data,
                                    default_coefficients(2 * N))
    fd = fd_derivative("ricci", 2, phi, w, data.u)
    scale = max(1.0, float(np.max(np.abs(closed))))
    assert np.max(np.abs(closed - fd)) / scale < 1e-5


def test_zero_direction_gives_zero_derivatives():
    N = 2
    w = sample_w(N, 5, seed=6)
    from cpn_entropy.eigenfunctions import zero_form

    zero = zero_form(N)
    u = default_test_function(N)
    from cpn_entropy.eigenfunctions import phi_jet_batch

    u_jet = phi_jet_batch(u, 0, w)
    for quantity, order in QUANTITIES:
        if order != 1:
            continue
        fd = fd_derivative(quantity, 1, zero, w, u_jet)
        assert np.max(np.abs(np.asarray(fd))) < 1e-9


def test_gradient_coefficient_mutation_fails_only_laplacian_first_order():
    # perturbing the gradient coefficient (n-2)/2 -> (n-1)/2
    n = 4
    mutation = {("laplacian", 1): {"grad": F(n - 1, 2)}}
    results = verify_lemma_suite(2, 6, seed=7, mutations=mutation)
    assert failing_quantities(results) == {("laplacian", 1)}


def test_every_single_coefficient_mutation_is_detected():
    n = 4
    defaults = default_coefficients(n)
    for key, coeffs in defaults.items():
        for name, value in coeffs.items():
            mutated = {key: {name: value + F(1, 2)}}
            results = verify_lemma_suite(2, 4, seed=7, mutations=mutated)
            assert key in failing_quantities(results), (key, name)
    assert undetected_mutations(2, 4, seed=7) == []


def test_undetected_mutations_names_a_mutation_the_suite_passes(monkeypatch):
    # with the inverse scale off by -1/2, its +1/2 mutation is the true form
    true_coefficients = default_coefficients

    def off_by_half(n):
        coeffs = true_coefficients(n)
        coeffs[("inverse", 1)] = {"scale": F(-3, 2)}
        return coeffs

    monkeypatch.setattr(variation, "default_coefficients", off_by_half)
    assert undetected_mutations(2, 4, seed=7) == ["inverse:1:scale"]
    mutated = {("inverse", 1): {"scale": F(-1)}}
    assert not failing_quantities(
        verify_lemma_suite(2, 4, seed=7, mutations=mutated))


def test_gradient_free_second_order_variants_are_rejected():
    # dropping the gradient cross terms from the two second-order formulas
    # leaves forms the finite-difference oracle refuses
    variants = gradient_free_second_order_coefficients(4)
    results = verify_lemma_suite(2, 6, seed=7, mutations=variants)
    assert failing_quantities(results) == {("laplacian", 2), ("ricci", 2)}


@pytest.mark.parametrize("N", [2, 3])
def test_conformal_change_oracle(N):
    assert conformal_change_mismatch(N, 8, seed=7) < 1e-8


def test_family_positivity_guard():
    N = 2
    w = sample_w(N, 30, seed=8)
    with pytest.raises(PositivityError):
        family_geometry(special_phi(N), -0.9, w)


def test_suite_input_validation():
    with pytest.raises(ValueError):
        verify_lemma_suite(1, 5, seed=0)
    with pytest.raises(ValueError):
        verify_lemma_suite(2, 0, seed=0)
