import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpn_entropy.charts import ChartPoint, sample_w
from cpn_entropy.eigenfunctions import phi_jet_batch, phi_value_at, special_phi
from cpn_entropy.geometry import (NormalizationError, Tau, curvature_batch,
                                  curvature_from_arrays, einstein_tau,
                                  fd_metric_arrays, hessian_and_laplacian,
                                  metric_arrays, metric_values,
                                  potential_metric_arrays, pullback_mismatch)


def test_chart_origin_metric_is_identity():
    g = metric_values(np.zeros((1, 2), dtype=complex))
    assert g.shape == (1, 4, 4)
    assert_allclose(g[0], np.eye(4), atol=1e-15)


def test_round_sphere_metric_closed_form():
    # N=1: g = (dx^2 + dy^2) / (1 + x^2 + y^2)^2, the curvature-4 sphere.
    w = sample_w(1, 20, seed=3)
    sigma = 1.0 + np.abs(w[:, 0]) ** 2
    expected = np.eye(2)[None, :, :] / (sigma ** 2)[:, None, None]
    assert_allclose(metric_values(w), expected, atol=1e-15)


def test_round_sphere_christoffel_closed_form():
    # conformally flat closed form: Gamma^k_ij = d_i u dj^k + d_j u di^k
    # - d_k u g^flat_ij with u = -log sigma.
    w = sample_w(1, 10, seed=4)
    geo = curvature_batch(w)
    x, y = w[:, 0].real, w[:, 0].imag
    sigma = 1.0 + x ** 2 + y ** 2
    ux, uy = -2 * x / sigma, -2 * y / sigma
    expected = np.empty((w.shape[0], 2, 2, 2))
    for b in range(w.shape[0]):
        du = np.array([ux[b], uy[b]])
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    expected[b, k, i, j] = (du[j] * (i == k) + du[i] * (j == k)
                                            - du[k] * (i == j))
    assert_allclose(geo.Gamma, expected, atol=1e-13)


@pytest.mark.parametrize("N,R_expected", [(1, 8.0), (2, 24.0), (3, 48.0)])
def test_scalar_curvature_constant(N, R_expected):
    geo = curvature_batch(sample_w(N, 10, seed=5))
    assert_allclose(geo.R, R_expected, atol=1e-10)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_einstein_condition(N):
    # ric = g/(2 tau) with tau = n/(2R)
    geo = curvature_batch(sample_w(N, 100, seed=7))
    tau = einstein_tau(N, seed=7)
    assert np.max(np.abs(geo.Ric - geo.g / (2 * tau.tau))) < 1e-9


@pytest.mark.parametrize("N,tau_expected", [(1, 1 / 8), (2, 1 / 12), (3, 1 / 16)])
def test_einstein_tau_values(N, tau_expected):
    tau = einstein_tau(N, samples=20, seed=1)
    assert isinstance(tau, Tau)
    assert abs(tau.tau - tau_expected) < 1e-12


def test_einstein_tau_rejects_bad_dimension():
    with pytest.raises(ValueError):
        einstein_tau(0)


def test_metric_times_inverse_is_identity():
    for N in (1, 2, 3):
        geo = curvature_batch(sample_w(N, 25, seed=9))
        err = np.einsum("bij,bjk->bik", geo.g, geo.g_inv) - np.eye(2 * N)
        assert np.max(np.abs(err)) < 1e-12


def test_riemann_first_pair_antisymmetry():
    geo = curvature_batch(sample_w(2, 10, seed=2))
    assert np.max(np.abs(geo.Riem + geo.Riem.transpose(0, 1, 3, 2, 4))) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
def test_curvature_against_finite_difference_oracle(N):
    w = sample_w(N, 4, seed=6)
    g, dg, d2g = metric_arrays(w)
    fdg, fd2g = fd_metric_arrays(w, step=1e-4)
    exact = curvature_from_arrays(g, dg, d2g)
    approx = curvature_from_arrays(g, fdg, fd2g)
    assert np.max(np.abs(exact.Riem - approx.Riem)) < 1e-6
    # contractions accumulate componentwise FD roundoff over 2N sums
    assert np.max(np.abs(exact.Ric - approx.Ric)) < 2 * N * 1e-6


def test_metric_derivatives_against_nested_dual_oracle():
    for N in (1, 2, 3):
        w = sample_w(N, 2, seed=8)
        g, dg, d2g = metric_arrays(w)
        gp, dgp, d2gp = potential_metric_arrays(w[0])
        assert np.max(np.abs(gp - g[:1])) < 1e-12
        assert np.max(np.abs(dgp - dg[:1])) < 1e-12
        assert np.max(np.abs(d2gp - d2g[:1])) < 1e-12


def test_chart_transitions_are_isometries():
    for N in (1, 2, 3):
        w = sample_w(N, 10, seed=10) + 0.15
        for target in range(1, N + 1):
            assert pullback_mismatch(w, 0, target) < 1e-10


def test_covariant_hessian_of_constant_vanishes():
    from cpn_entropy.jets import Jet

    w = np.array([[0.3 + 0.1j, -0.2 + 0.4j]])
    constant = Jet(np.full(1, 3.7), np.zeros((1, 4)), np.zeros((1, 4, 4)))
    hess, lap = hessian_and_laplacian(constant, curvature_batch(w))
    assert np.max(np.abs(hess)) < 1e-14
    assert np.max(np.abs(lap)) < 1e-14


def test_hessian_trace_gives_eigenvalue():
    # trace of the covariant Hessian of phi equals lap phi = -phi/tau
    N = 2
    form = special_phi(N)
    tau = einstein_tau(N)
    p = ChartPoint(0, np.array([0.5 - 0.2j, 0.1 + 0.8j]))
    w = p.w[None, :]
    geo = curvature_batch(w)
    hess, lap = hessian_and_laplacian(phi_jet_batch(form, 0, w), geo)
    trace = np.einsum("ij,ij->", geo.g_inv[0], hess[0])
    assert abs(trace - lap[0]) < 1e-12
    assert abs(trace + phi_value_at(form, p) / tau.tau) < 1e-8


def test_laplacian_chart_invariance():
    from cpn_entropy.charts import transition_map

    form = special_phi(2)
    p = ChartPoint(0, np.array([0.5 - 0.2j, 0.1 + 0.8j]))
    q = transition_map(p, 2)

    def laplacian(chart, w):
        w = w[None, :]
        jet = phi_jet_batch(form, chart, w)
        return hessian_and_laplacian(jet, curvature_batch(w))[1][0]

    assert abs(laplacian(p.chart, p.w) - laplacian(q.chart, q.w)) < 1e-8


def test_scalar_spread_guard():
    # feeding einstein_tau an impossible tolerance must trip the guard
    with pytest.raises(NormalizationError):
        einstein_tau(2, samples=20, seed=0, tol=1e-18)
