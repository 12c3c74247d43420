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


def _same_bits(p, shape, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(shape + (p.m,))
         + 1j * rng.standard_normal(shape + (p.m,)))
    new, old = p.evaluate(z), whole_array_evaluate(p, z)
    assert new.shape == old.shape == shape
    return np.array_equal(new.view(np.uint64), old.view(np.uint64))


BLOCK = polynomials._BLOCK_ROWS
# 16383 to 16385 straddle numpy's temporary elision threshold
ROW_COUNTS = [1, 2, 3, 7, 8, 9, 17, BLOCK - 1, BLOCK, BLOCK + 1, 10000,
              16383, 16384, 16385, 2 * BLOCK + 1, 200000]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_evaluate_keeps_the_bits_of_the_whole_array_loop(N):
    p = special_cubic_polynomial(N).power(3)
    for rows in ROW_COUNTS:
        assert _same_bits(p, (rows,), seed=rows), rows
    for shape in [(3, 7000), (2, 4000), (2, 3, 5)]:
        assert _same_bits(p, shape, seed=N), shape


@pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 32767, 32768, 200000])
def test_row_blocks_tile_the_rows_at_block_boundaries(n):
    blocks = polynomials._row_blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(s.start % BLOCK == 0 for s in blocks)
    elide = polynomials._ELIDE_ROWS
    assert all(s.stop - s.start >= min(n, elide) for s in blocks)


def test_row_blocks_evaluate_with_the_bits_of_one_call():
    p = special_cubic_polynomial(2).power(3)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((200000, 3)) + 1j * rng.standard_normal((200000, 3))
    blocks = np.concatenate([p.evaluate(z[s])
                             for s in polynomials._row_blocks(len(z))])
    assert np.array_equal(blocks.view(np.uint64),
                          p.evaluate(z).view(np.uint64))


@pytest.mark.parametrize("rows", [1, 9, BLOCK + 1, 16385])
def test_evaluate_keeps_the_bits_of_constant_and_zero_polynomials(rows):
    f = special_cubic_polynomial(2)
    with_constant = f.power(2) + BihomogeneousPolynomial.constant(3, F(-2, 3))
    assert _same_bits(with_constant, (rows,), seed=rows)
    assert _same_bits(BihomogeneousPolynomial.constant(3, QC(F(1), F(2))),
                      (rows,), seed=rows)
    assert _same_bits(BihomogeneousPolynomial.zero(3), (rows,), seed=rows)
