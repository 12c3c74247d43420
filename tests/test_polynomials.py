from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy import polynomials
from cpn_entropy.polynomials import (QC, QC_ZERO, BihomogeneousPolynomial,
                                     UnsupportedDegreeError, flat_laplacian,
                                     full_harmonic_expansion,
                                     harmonic_decomposition,
                                     special_cubic_polynomial)

F = Fraction


def is_real_valued(p: BihomogeneousPolynomial) -> bool:
    return all(p.terms.get((b, a), QC_ZERO) == c.conj()
               for (a, b), c in p.terms.items())


def recompose(h: BihomogeneousPolynomial, q: BihomogeneousPolynomial):
    return h + BihomogeneousPolynomial.radius_squared(h.m) * q


def test_qc_field_operations():
    a = QC(F(1, 2), F(3))
    b = QC(F(-2), F(1, 4))
    assert a + b == QC(F(-3, 2), F(13, 4))
    assert a * b == QC(F(1, 2) * F(-2) - F(3) * F(1, 4),
                       F(1, 2) * F(1, 4) + F(3) * F(-2))
    assert (a / b) * b == a
    assert a.conj() == QC(F(1, 2), F(-3))
    with pytest.raises(ZeroDivisionError):
        a / QC()


def test_qc_refuses_floats():
    with pytest.raises(TypeError):
        QC.of(0.5 + 0.1j)


def test_polynomial_evaluation_matches_terms():
    p = BihomogeneousPolynomial(3, {
        ((1, 0, 0), (0, 1, 0)): QC(F(2)),
        ((0, 1, 0), (1, 0, 0)): QC(F(2)),
    })
    z = np.array([[0.3 + 0.1j, -0.2 + 0.5j, 0.7 + 0j]])
    direct = 2 * z[0, 0] * np.conj(z[0, 1]) + 2 * z[0, 1] * np.conj(z[0, 0])
    assert abs(p.evaluate(z)[0] - direct) < 1e-15


def test_special_polynomial_is_real_and_bidegree_one():
    f = special_cubic_polynomial(2)
    assert is_real_valued(f)
    assert f.bidegree() == (1, 1)
    assert len(f.terms) == 6


def test_flat_laplacian_of_radius_squared():
    m = 3
    r2 = BihomogeneousPolynomial.radius_squared(m)
    assert flat_laplacian(r2) == BihomogeneousPolynomial.constant(m, 4 * m)


@pytest.mark.parametrize("N", [2, 3])
def test_harmonic_decomposition_of_z1_squared(N):
    # |z_1|^2 = (|z_1|^2 - r^2/(N+1)) + r^2 * 1/(N+1)
    m = N + 1
    e1 = tuple([1] + [0] * N)
    p = BihomogeneousPolynomial.monomial(m, e1, e1, 1)
    h, q = harmonic_decomposition(p, 1)
    expected_h = p - BihomogeneousPolynomial.radius_squared(m).scale(F(1, m))
    assert h == expected_h
    assert q == BihomogeneousPolynomial.constant(m, F(1, m))
    assert flat_laplacian(h).is_zero()
    assert recompose(h, q) == p


def test_already_harmonic_polynomial_untouched():
    p = BihomogeneousPolynomial.monomial(3, (1, 0, 0), (0, 1, 0), 1)
    h, q = harmonic_decomposition(p, 1)
    assert h == p
    assert q.is_zero()


def test_decomposition_recomposes_exactly_for_cubics():
    f = special_cubic_polynomial(2)
    p = f.power(3)
    h, q = harmonic_decomposition(p, 3)
    assert flat_laplacian(h).is_zero()
    assert recompose(h, q) == p


def test_full_expansion_constant_component_positive():
    # f^3 = F3 + r^2 F2 + r^4 F1 + r^6 F0 with F0 = avg f^3 = 1/5 at N=2
    f = special_cubic_polynomial(2)
    parts = full_harmonic_expansion(f.power(3), 3)
    assert len(parts) == 4
    for part in parts[:-1]:
        assert flat_laplacian(part).is_zero()
    const = parts[-1]
    coeff = const.terms[((0, 0, 0), (0, 0, 0))]
    assert coeff == QC(F(1, 5))
    assert coeff.re > 0


def test_unsupported_degree_signals():
    f = special_cubic_polynomial(2)
    with pytest.raises(UnsupportedDegreeError):
        harmonic_decomposition(f.power(4), 4)


def test_wrong_bidegree_rejected():
    f = special_cubic_polynomial(2)
    with pytest.raises(ValueError):
        harmonic_decomposition(f.power(2), 3)


def test_from_form_requires_exact_entries():
    from cpn_entropy.eigenfunctions import HermitianForm

    form = HermitianForm(np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="exact"):
        BihomogeneousPolynomial.from_form(form)


def test_a_term_that_cancels_and_returns_is_appended_last():
    x = BihomogeneousPolynomial.monomial(2, (1, 0), (1, 0), 1)
    y = BihomogeneousPolynomial.monomial(2, (0, 1), (0, 1), 2)
    p = x + y
    assert list(p.terms) == [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    p = p - x
    assert list(p.terms) == [((0, 1), (0, 1))]
    p = p + x
    assert list(p.terms) == [((0, 1), (0, 1)), ((1, 0), (1, 0))]


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_polynomials_on_different_spaces_do_not_combine(op):
    p = BihomogeneousPolynomial.monomial(3, (1, 0, 0), (1, 0, 0), 3)
    q = BihomogeneousPolynomial.monomial(4, (1, 0, 0, 0), (0, 1, 0, 0), 4)
    with pytest.raises(ValueError):
        {"add": p.__add__, "sub": p.__sub__, "mul": p.__mul__}[op](q)


def whole_array_evaluate(p: BihomogeneousPolynomial, z) -> np.ndarray:
    """The one-pass loop ``evaluate`` replaced: each factor multiplied into
    a running term of ones over the whole array."""
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    out = np.zeros(z.shape[:-1], dtype=complex)
    for (a, b), c in p.terms.items():
        term = np.ones(z.shape[:-1], dtype=complex)
        for j, e in enumerate(a):
            if e:
                term = term * z[..., j] ** e
        for j, e in enumerate(b):
            if e:
                term = term * zc[..., j] ** e
        out += c.to_complex() * term
    return out


def _points(m, shape, seed, sphere=False):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(shape + (m,))
         + 1j * rng.standard_normal(shape + (m,)))
    return z / np.linalg.norm(z, axis=-1, keepdims=True) if sphere else z


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _same_bits(p, shape, seed):
    z = _points(p.m, shape, seed)
    new, old = p.evaluate(z), whole_array_evaluate(p, z)
    assert new.shape == old.shape == shape
    return np.array_equal(_bits(new), _bits(old))


BLOCK = polynomials._BLOCK_ROWS


def _sample_polynomials(N):
    f = special_cubic_polynomial(N)
    m = N + 1
    return [f.power(3),
            f.power(2) + BihomogeneousPolynomial.constant(m, F(-2, 3)),
            BihomogeneousPolynomial.constant(m, QC(F(1), F(2))),
            BihomogeneousPolynomial.zero(m)]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_evaluate_agrees_with_the_whole_array_loop(N):
    # On the unit sphere every monomial has modulus at most 1, so the two
    # summation orders differ by a few roundings of size eps * sum |c|.
    # The largest difference seen was 5.3e-15 = 0.11 eps * 216, for f^3
    # (sum |c| = 216) at N = 2; the bound is eps * sum |c|.
    eps = np.finfo(float).eps
    for p in _sample_polynomials(N):
        bound = eps * float(sum(abs(c.re) + abs(c.im)
                                for c in p.terms.values()))
        for shape in [(1,), (9,), (BLOCK + 1,), (16385,), (3, 7000),
                      (2, 3, 5)]:
            z = _points(p.m, shape, seed=len(p.terms), sphere=True)
            new, old = p.evaluate(z), whole_array_evaluate(p, z)
            assert new.shape == old.shape == shape
            assert np.max(np.abs(new - old)) <= bound, (p, shape)


def test_row_blocks_evaluate_with_the_bits_of_one_call():
    # each row has the bits it has alone, wherever it sits in a call: the
    # offsets cross the block edges at 8192 and 16384 rows
    offsets = [1, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK]
    alone = sorted({0, 2 * BLOCK + 4} | {i + d for i in offsets
                                         for d in (-1, 0, 1)})
    for N in (2, 3, 4):
        z = _points(N + 1, (2 * BLOCK + 5,), seed=N)
        for p in _sample_polynomials(N):
            whole = p.evaluate(z)
            for start in offsets:
                assert np.array_equal(_bits(p.evaluate(z[start:])),
                                      _bits(whole[start:])), (p, start)
                assert np.array_equal(
                    _bits(p.evaluate(z[:start])), _bits(whole[:start]))
            rows = np.concatenate([p.evaluate(z[i:i + 1]) for i in alone])
            assert np.array_equal(_bits(rows), _bits(whole[alone])), p


@pytest.mark.parametrize("rows", [1, 9, BLOCK + 1, 16385])
def test_evaluate_keeps_the_bits_of_constant_and_zero_polynomials(rows):
    # both kernels give c and 0 exactly
    assert _same_bits(BihomogeneousPolynomial.constant(3, QC(F(1), F(2))),
                      (rows,), seed=rows)
    assert _same_bits(BihomogeneousPolynomial.zero(3), (rows,), seed=rows)


def dense_harmonic_decomposition(p: BihomogeneousPolynomial, k: int):
    """``harmonic_decomposition`` as one dense system over every bidegree
    (k-1, k-1) key, before it was split by torus weight."""
    m = p.m
    if k == 0 or p.is_zero():
        return p, BihomogeneousPolynomial.zero(m)
    mono = polynomials._monomial_basis(m, k - 1)
    keys = [(a, b) for a in mono for b in mono]
    const = 4 * (m + 2 * (k - 1))
    r2 = BihomogeneousPolynomial.radius_squared(m)

    def dense(poly):
        return [poly.terms.get(key, QC_ZERO) for key in keys]

    cols = []
    for key in keys:
        q_basis = BihomogeneousPolynomial(m, {key: 1})
        cols.append(dense(q_basis.scale(const) + r2 * flat_laplacian(q_basis)))
    matrix = [list(row) for row in zip(*cols)]
    sol = polynomials._solve_qc(matrix, dense(flat_laplacian(p)))
    q = BihomogeneousPolynomial(m, dict(zip(keys, sol)))
    return p - r2 * q, q


def _gaussian_rational_form(m):
    """z* A z for a Hermitian A with non-real Gaussian-rational entries."""
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    terms = {}
    for i in range(m):
        for j in range(i, m):
            entry = (QC(F(i + 1, 3)) if i == j
                     else QC(F(i - 2 * j, 5), F(i + j + 1, 7)))
            terms[(units[j], units[i])] = entry
            terms[(units[i], units[j])] = entry.conj()
    return BihomogeneousPolynomial(m, terms)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 4])
def test_weight_blocks_give_the_dense_decomposition(m, k):
    form = _gaussian_rational_form(m)
    assert is_real_valued(form)
    for p in (special_cubic_polynomial(m - 1).power(k), form.power(k)):
        h, q = harmonic_decomposition(p, k)
        dense_h, dense_q = dense_harmonic_decomposition(p, k)
        assert h == dense_h and q == dense_q
        assert list(h.terms) == list(dense_h.terms)
        assert list(q.terms) == list(dense_q.terms)
