import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy.eigenfunctions import special_phi
from cpn_entropy.moments import (cpn_average, cpn_volume,
                                 cpn_volume_closed_form, monomial_average,
                                 monte_carlo_average, polynomial_average,
                                 symmetry_vanishing)
from cpn_entropy.polynomials import (BihomogeneousPolynomial,
                                     special_cubic_polynomial)

F = Fraction


def test_monomial_average_frozen_values():
    assert monomial_average(3, (1, 1, 1), (1, 1, 1)) == F(1, 60)
    assert monomial_average(3, (1, 0, 0), (0, 1, 0)) == 0
    assert monomial_average(1, (0,), (0,)) == 1
    assert monomial_average(2, (2, 0), (2, 0)) == F(2 * 1, math.factorial(3))


def test_monomial_average_validation():
    with pytest.raises(ValueError):
        monomial_average(0, (), ())
    with pytest.raises(ValueError):
        monomial_average(2, (1,), (1,))
    with pytest.raises(ValueError):
        monomial_average(2, (-1, 0), (-1, 0))


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_cubic_average_closed_form(N):
    f = special_cubic_polynomial(N)
    avg = polynomial_average(N + 1, f.power(3))
    assert avg == F(12, (N + 1) * (N + 2) * (N + 3))
    assert avg > 0


def test_linear_average_vanishes():
    f = special_cubic_polynomial(2)
    assert polynomial_average(3, f) == 0


def test_square_average_value():
    f = special_cubic_polynomial(2)
    assert polynomial_average(3, f.power(2)) == F(1, 2)


def test_polynomial_average_is_linear():
    m = 3
    p = BihomogeneousPolynomial.monomial(m, (1, 1, 0), (1, 1, 0), F(3, 7))
    q = BihomogeneousPolynomial.monomial(m, (2, 0, 0), (2, 0, 0), F(-1, 5))
    left = polynomial_average(m, p + q)
    right = polynomial_average(m, p) + polynomial_average(m, q)
    assert left == right


def test_symmetry_vanishing_examples():
    m = 3
    f1 = BihomogeneousPolynomial(m, {((1, 0, 0), (0, 1, 0)): 1,
                                     ((0, 1, 0), (1, 0, 0)): 1})
    assert symmetry_vanishing(f1, ("negate", 0))
    z1sq = BihomogeneousPolynomial.monomial(m, (1, 0, 0), (1, 0, 0), 1)
    assert not symmetry_vanishing(z1sq, ("negate", 0))
    cross = (BihomogeneousPolynomial.monomial(m, (0, 2, 0), (0, 0, 2), 1)
             * BihomogeneousPolynomial.monomial(m, (1, 0, 0), (1, 0, 0), 1))
    assert symmetry_vanishing(cross, ("rotate", 1))


def test_symmetry_vanishing_implies_zero_average():
    # enumerated family of low-degree monomials
    m = 3
    from itertools import product

    exps = [e for e in product(range(3), repeat=3) if sum(e) <= 3]
    checked = 0
    for a in exps:
        for b in exps:
            if sum(a) != sum(b):
                continue
            p = BihomogeneousPolynomial.monomial(m, a, b, 1)
            for sym in (("negate", 0), ("negate", 1), ("rotate", 0),
                        ("rotate", 2)):
                transformed = symmetry_vanishing(p, sym)
                if transformed:
                    checked += 1
                    avg = p.terms and monomial_average(m, a, b)
                    assert avg == 0
    assert checked > 10


@pytest.mark.parametrize("q,expected", [(1, F(0)), (2, F(1, 2)), (3, F(1, 5))])
def test_cpn_average_of_special_phi_powers(q, expected):
    assert cpn_average(q, special_phi(2), 2) == expected


def test_cpn_average_rejects_bad_power():
    with pytest.raises(ValueError):
        cpn_average(4, special_phi(2), 2)


def test_monte_carlo_average_of_constant_is_exact():
    one = BihomogeneousPolynomial.constant(3, 1)
    mean, se = monte_carlo_average(one, 3, 10_000, seed=1)
    assert mean == 1.0
    assert se == 0.0


def test_monte_carlo_matches_exact_cubic():
    f = special_cubic_polynomial(2)
    mean, se = monte_carlo_average(f.power(3), 3, 400_000, seed=42)
    assert abs(mean - 0.2) < 3 * se


def test_monte_carlo_zero_mean_within_three_sigma():
    f = special_cubic_polynomial(2)
    mean, se = monte_carlo_average(f, 3, 200_000, seed=42)
    assert abs(mean) < 3 * se


def test_monte_carlo_enforces_sample_floor():
    f = special_cubic_polynomial(2)
    with pytest.raises(ValueError):
        monte_carlo_average(f, 3, 9_999, seed=0)


def test_monte_carlo_deterministic_for_fixed_seed():
    f = special_cubic_polynomial(2)
    a = monte_carlo_average(f.power(2), 3, 50_000, seed=9)
    b = monte_carlo_average(f.power(2), 3, 50_000, seed=9)
    assert a == b


def all_shard_seeds_at_once(p, m, samples, seed):
    """``monte_carlo_average`` as it was when it spawned every shard's seed
    before the first draw."""
    chunk = 200_000
    children = np.random.SeedSequence(seed).spawn(-(-samples // chunk))
    total = total_sq = 0.0
    count = 0
    for child in children:
        size = min(chunk, samples - count)
        rng = np.random.default_rng(child)
        g = (rng.standard_normal((size, m))
             + 1j * rng.standard_normal((size, m)))
        z = g / np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.real(p.evaluate(z))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals ** 2))
        count += size
    mean = total / count
    return mean, math.sqrt(max(total_sq / count - mean ** 2, 0.0) / count)


def test_monte_carlo_shard_seeds_are_the_streams_spawned_at_once():
    # three shards, the last one 10001 rows long
    p = special_cubic_polynomial(2).power(3)
    assert (monte_carlo_average(p, 3, 410_001, seed=5)
            == all_shard_seeds_at_once(p, 3, 410_001, seed=5))


def test_monte_carlo_spawns_one_shard_seed_at_a_time(monkeypatch):
    asked = []

    class SpySeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            asked.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
    f = special_cubic_polynomial(2)
    monte_carlo_average(f, 3, 410_001, seed=5)
    assert asked == [1, 1, 1]


def test_monte_carlo_peak_memory_holds_one_shard():
    # a shard's real parts and values, one row block of complex points and
    # its powers: about 14 MiB, where a whole complex shard and its draws
    # took 24.4 MiB and powers cached over the whole shard 86 MiB
    p = special_cubic_polynomial(2).power(3)
    tracemalloc.start()
    try:
        monte_carlo_average(p, 3, 1_000_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2 ** 20


def test_monte_carlo_shards_match_the_two_draw_construction():
    # z is built in place; the old g = a + 1j * b, z = g / |g| gives the
    # same bits
    p = special_cubic_polynomial(2).power(3)
    # 16383 to 32768 rows sit at the edges of the row-block rule; 216383
    # rows are one full shard and then a 16383-row shard
    for seed, samples in ((1, 10_000), (7, 250_000), (3, 16_383),
                          (3, 16_384), (3, 32_767), (3, 32_768),
                          (3, 216_383)):
        seq = np.random.SeedSequence(seed)
        total = total_sq = 0.0
        for count in range(0, samples, 200_000):
            size = min(200_000, samples - count)
            rng = np.random.default_rng(seq.spawn(1)[0])
            g = (rng.standard_normal((size, 3))
                 + 1j * rng.standard_normal((size, 3)))
            vals = np.real(p.evaluate(g / np.linalg.norm(g, axis=1,
                                                         keepdims=True)))
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals ** 2))
        mean = total / samples
        stderr = math.sqrt(max(total_sq / samples - mean ** 2, 0.0) / samples)
        assert monte_carlo_average(p, 3, samples, seed) == (mean, stderr)


def test_cpn_volume_n1_is_pi():
    value, err = cpn_volume(1)
    assert abs(value - math.pi) < 1e-10
    assert err < 1e-10


def test_cpn_volume_n2_matches_closed_form():
    value, err = cpn_volume(2)
    closed = cpn_volume_closed_form(2)
    assert abs(closed - math.pi ** 2 / 2) < 1e-15
    assert abs(value - closed) / closed < 1e-6


def test_volume_constraint_ratio_is_not_one():
    # V != (4 pi tau)^{n/2} under this normalization; the certificate
    # reports the ratio instead of assuming the two prefactors agree.
    from cpn_entropy.geometry import einstein_tau

    tau = einstein_tau(2)
    ratio = cpn_volume_closed_form(2) / (4 * math.pi * tau) ** 2
    assert abs(ratio - 4.5) < 1e-9
