import numpy as np
import pytest

from cpn_entropy.charts import ChartPoint, sample_w, transition_map
from cpn_entropy.eigenfunctions import (HermitianForm, _form_from_int,
                                        basis_first_eigenspace, phi_value_at,
                                        phi_values_batch, special_phi,
                                        verify_eigen)
from cpn_entropy.geometry import curvature_batch, einstein_tau
from cpn_entropy.moments import polynomial_average
from cpn_entropy.polynomials import BihomogeneousPolynomial


@pytest.mark.parametrize("N,count", [(1, 3), (2, 8), (3, 15)])
def test_basis_dimension(N, count):
    assert len(basis_first_eigenspace(N)) == count == N * (N + 2)


def test_basis_forms_are_exactly_trace_free():
    for form in basis_first_eigenspace(3):
        assert form.trace == 0


def test_special_phi_matrix():
    got = special_phi(2).matrix
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(got, expected.astype(complex))


def test_special_phi_padded_for_larger_n():
    got = special_phi(3).matrix
    assert np.array_equal(got[:3, :3], (np.ones((3, 3)) - np.eye(3)).astype(complex))
    assert np.all(got[3, :] == 0) and np.all(got[:, 3] == 0)


def test_special_phi_requires_n_at_least_two():
    with pytest.raises(ValueError, match="N >= 2"):
        special_phi(1)


def test_phi_value_examples():
    origin = ChartPoint(0, np.zeros(2, dtype=complex))
    assert phi_value_at(special_phi(2), origin) == 0.0
    diag = HermitianForm(np.diag([1.0, -1.0, 0.0]).astype(complex))
    assert abs(phi_value_at(diag, origin) - 1.0) < 1e-15


def test_phi_projective_invariance_across_charts():
    p = ChartPoint(0, np.array([0.3 + 0.2j, -0.5 + 0.1j]))
    for form in basis_first_eigenspace(2):
        base = phi_value_at(form, p)
        for target in (1, 2):
            q = transition_map(p, target)
            assert abs(phi_value_at(form, q) - base) < 1e-12


def test_phi_values_batch_matches_pointwise():
    w = sample_w(2, 10, seed=3)
    form = special_phi(2)
    batch = phi_values_batch(form, 0, w)
    single = [phi_value_at(form, ChartPoint(0, row)) for row in w]
    assert np.allclose(batch, single, atol=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_eigen_residual_over_basis(N):
    tau = einstein_tau(N, seed=1)
    w = sample_w(N, 100, seed=7)
    geom = curvature_batch(w)
    for form in basis_first_eigenspace(N):
        assert verify_eigen(form, tau, w, geom) < 1e-8


def test_special_phi_eigen_residual_and_eigenvalue():
    tau = einstein_tau(2, seed=1)
    assert abs(1.0 / tau - 12.0) < 1e-9
    w = sample_w(2, 100, seed=7)
    assert verify_eigen(special_phi(2), tau, w, curvature_batch(w)) < 1e-8


def test_zero_form_has_zero_residual():
    tau = einstein_tau(2, seed=1)
    zero = HermitianForm(np.zeros((3, 3), dtype=complex))
    w = sample_w(2, 10, seed=7)
    assert verify_eigen(zero, tau, w, curvature_batch(w)) == 0.0


def test_nonzero_trace_is_not_an_eigenfunction():
    # the constant component sits at eigenvalue 0, so the residual is ~1/tau
    tau = einstein_tau(2, seed=1)
    identity = _form_from_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                              [[0] * 3] * 3)
    w = sample_w(2, 20, seed=7)
    resid = verify_eigen(identity, tau, w, curvature_batch(w))
    assert resid > 1.0


def test_zero_mean_is_exact_for_every_basis_form():
    for N in (1, 2, 3):
        for form in basis_first_eigenspace(N):
            poly = BihomogeneousPolynomial.from_form(form)
            assert polynomial_average(N + 1, poly) == 0


def test_gram_matrix_has_full_rank():
    # quadrature inner products of the basis functions
    from cpn_entropy.quadrature import chart_nodes

    for N in (2, 3):
        basis = basis_first_eigenspace(N)
        blocks, weights = [], []
        for w, wts in chart_nodes(N, 5, 6):
            blocks.append(np.stack(
                [phi_values_batch(f, 0, w) for f in basis], axis=1))
            weights.append(wts)
        v = np.concatenate(blocks, axis=0)
        wts = np.concatenate(weights)
        gram = np.einsum("bi,b,bj->ij", v, wts, v) / np.sum(wts)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == N * (N + 2)
        assert np.min(np.linalg.eigvalsh(gram)) > 1e-8


def test_special_phi_values_stay_within_two():
    # sup |phi_A| is the largest |eigenvalue| of A, 2 for the special form
    vals = phi_values_batch(special_phi(2), 0, sample_w(2, 200, seed=5))
    assert np.max(np.abs(vals)) <= 2.0 + 1e-12
