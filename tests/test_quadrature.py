import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from cpn_entropy.eigenfunctions import phi_values_batch, special_phi
from cpn_entropy.moments import (cpn_average, cpn_volume_closed_form,
                                 polynomial_average)
from cpn_entropy.polynomials import BihomogeneousPolynomial
from cpn_entropy.quadrature import (_B_D_SETS, Lattice, adaptive_cpn_integral,
                                    chart_nodes, cpn_integral, exact_orders,
                                    gauss_jacobi, lattice_generator,
                                    rule_size, simplex_rule, torus_grid,
                                    torus_lattice, witness_nodes)


@pytest.mark.parametrize("a", range(6))
def test_gauss_jacobi_integrates_beta_moments(a):
    # int_0^1 u^k (1 - u)^a du = k! a! / (k + a + 1)!, exact for k <= 2n - 1
    for n in range(1, 9):
        nodes, weights = gauss_jacobi(n, a)
        assert np.all((nodes > 0) & (nodes < 1)) and np.all(weights > 0)
        for k in range(2 * n):
            beta = Fraction(math.factorial(k) * math.factorial(a),
                            math.factorial(k + a + 1))
            value = float(np.dot(weights, nodes ** k))
            assert abs(value - float(beta)) <= 1e-14 * float(beta), (n, k)


def test_exact_orders():
    assert [exact_orders(d) for d in range(6)] == [
        (1, Lattice(0)), (1, Lattice(1)), (2, Lattice(2)), (2, Lattice(3)),
        (3, Lattice(4)), (3, Lattice(5))]
    # the sweep's degree-2 rule: 2^N sticks times M lattice points
    assert [rule_size(N, *exact_orders(2)) for N in range(2, 7)] == [
        4 * 7, 8 * 13, 16 * 21, 32 * 31, 64 * 48]
    assert rule_size(2, 4, 6) == 16 * 36


def _is_b_d(M, z, d):
    """The d-fold sums of {0, z_1, ..., z_N}, one per multiset, are
    distinct mod M."""
    sums = [sum(multiset) % M
            for multiset in combinations_with_replacement((0,) + z, d)]
    return len(set(sums)) == len(sums)


def test_lattice_generators_are_b_d_sets():
    for (N, d), (M, z) in _B_D_SETS.items():
        assert len(z) == N and _is_b_d(M, z, d), (N, d)
        # fewer points than the uniform grid exact for the same degree
        assert M < (d + 1) ** N
    # the digit lattice, for every (N, d) not in the table
    for N in range(1, 6):
        for d in range(5):
            if (N, d) not in _B_D_SETS:
                M, z = lattice_generator(N, d)
                assert M == (d + 1) ** N and _is_b_d(M, z, d), (N, d)
    # and the check sees an aliased sum: 0 + 2 = 1 + 1
    assert not _is_b_d(7, (1, 2), 2)


def test_torus_lattice_weight():
    pts, weight = torus_lattice(4, 2)
    assert pts.shape == (21, 4)
    assert abs(weight * 21 - (2 * math.pi) ** 4) < 1e-12
    # the generator's multiples mod M, in units of 2 pi / M
    steps = np.rint(pts * 21 / (2 * math.pi)).astype(int)
    assert np.array_equal(steps, np.outer(np.arange(21), (1, 4, 14, 16)) % 21)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_chart_rule_is_exact_for_phi_powers(N):
    # phi^q has degree q: on the rule exact for degree d >= q the moments
    # engine gives its exact average
    form = special_phi(N)
    power = BihomogeneousPolynomial.from_form(form)
    exact = {q: cpn_average(q, form, N) if q <= 3
             else polynomial_average(N + 1, power.power(q))
             for q in range(1, 5)}
    for d in range(1, 5):
        sums = np.zeros(d + 1)
        for w, weights in chart_nodes(N, *exact_orders(d)):
            phi = phi_values_batch(form, 0, w)
            sums += [float(np.dot(weights, phi ** q)) for q in range(d + 1)]
        average = sums / sums[0]
        assert abs(sums[0] - cpn_volume_closed_form(N)) < 1e-12, d
        for q in range(1, d + 1):
            assert abs(average[q] - float(exact[q])) <= 1e-14 * max(
                abs(exact[q]), 1), (d, q)


def _on_nodes(nodes, func):
    return sum(float(np.dot(weights, func(w))) for w, weights in nodes)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_witness_nodes_move_the_rule_by_an_isometry(N):
    orders = exact_orders(2)
    M = lattice_generator(N, 2)[0]
    rule = list(chart_nodes(N, *orders))
    moved = list(witness_nodes(N, *orders))
    assert len(rule) == len(moved)
    for (w, weights), (wm, moved_weights) in zip(rule, moved):
        assert np.array_equal(weights, moved_weights)
        # U is unitary and fixes z_0: each |w_j| goes to the stick N + 1 - j
        assert np.allclose(np.abs(wm[:, ::-1]), np.abs(w), rtol=1e-15, atol=0)
        assert np.allclose(np.linalg.norm(wm, axis=1),
                           np.linalg.norm(w, axis=1), rtol=1e-15, atol=0)
        # and shifts each angle by pi / M: the rule's angles are even
        # multiples of pi / M, the moved rule's odd ones
        half_steps = np.rint(np.angle(np.concatenate([w, wm]))
                             * M / np.pi).astype(int) % 2
        assert np.all(half_steps[:len(w)] == 0) and np.all(
            half_steps[len(w):] == 1)
        assert not set(map(tuple, np.round(w, 12))) & set(
            map(tuple, np.round(wm, 12)))
    volume = _on_nodes(moved, lambda w: np.ones(len(w)))
    assert volume == _on_nodes(rule, lambda w: np.ones(len(w)))
    assert abs(volume - cpn_volume_closed_form(N)) < 1e-12
    # exact for degree 2, like the rule
    form = special_phi(N)
    value = _on_nodes(moved, lambda w: phi_values_batch(form, 0, w) ** 2)
    assert abs(value / volume - float(cpn_average(2, form, N))) < 1e-14

    # and wrong where the rule is wrong, in another way: t_1^4 has degree 4
    def t1_4(w):
        return (np.abs(w[:, 0]) ** 2 / (1 + np.sum(np.abs(w) ** 2, axis=1))) ** 4

    assert abs(_on_nodes(moved, t1_4) - _on_nodes(rule, t1_4)) > 1e-4


def test_simplex_rule_integrates_to_simplex_volume():
    for N in (1, 2, 3):
        t, w = simplex_rule(N, 6)
        assert abs(np.sum(w) - 1.0 / math.factorial(N)) < 1e-14
        assert np.allclose(np.sum(t, axis=1), 1.0)
        assert np.all(t > 0)


def test_torus_grid_weight():
    pts, weight = torus_grid(2, 5)
    assert pts.shape == (25, 2)
    assert abs(weight * 25 - (2 * math.pi) ** 2) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
def test_unit_integrand_gives_volume(N):
    total = cpn_integral(lambda w: np.ones(w.shape[0]), N, 6, 6)
    assert abs(total - cpn_volume_closed_form(N)) < 1e-12


def test_chunking_does_not_change_the_rule():
    def collect(max_chunk):
        total = 0.0
        count = 0
        for w, wts in chart_nodes(2, 4, 5, max_chunk=max_chunk):
            total += float(np.dot(wts, np.abs(w[:, 0]) ** 2 / (1 + np.abs(w[:, 0]) ** 2)))
            count += w.shape[0]
        return total, count

    t1, c1 = collect(10)
    t2, c2 = collect(100000)
    assert c1 == c2 == (4 ** 2) * (5 ** 2)
    assert abs(t1 - t2) < 1e-13


def test_phi_cubed_integral_matches_exact_value():
    # int phi^3 dV = (1/5) * pi^2/2 at N = 2
    form = special_phi(2)

    def phi3(w):
        return phi_values_batch(form, 0, w) ** 3

    value, err = adaptive_cpn_integral(phi3, 2, tol=1e-8, max_level=4)
    exact = 0.2 * cpn_volume_closed_form(2)
    assert abs(value - exact) / exact < 1e-12
    assert err < 1e-8


def test_adaptive_reports_achieved_error():
    # a needle the coarse levels cannot resolve: convergence fails within
    # the level budget and the achieved estimate is reported
    def needle(w):
        r2 = np.sum(np.abs(w) ** 2, axis=1)
        return np.exp(-4000.0 * (r2 - 0.7) ** 2)

    value, err = adaptive_cpn_integral(needle, 2, tol=1e-12, max_level=2)
    assert err > 1e-12
