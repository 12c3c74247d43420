import math

import numpy as np
from numpy.testing import assert_allclose

from cpn_entropy.jets import Dual2, Jet, nested_variable


def _seed_xy(vals):
    vals = np.asarray(vals, dtype=float)
    b, d = vals.shape
    jets = []
    for c in range(d):
        e = np.zeros(d)
        e[c] = 1.0
        jets.append(Jet.variable(vals[:, c].astype(complex), e.astype(complex), d))
    return jets


def test_jet_rational_function_derivatives():
    # f(x, y) = x^2 y / (1 + x y): check gradient and Hessian by hand
    pts = np.array([[0.3, -0.7], [1.2, 0.4]])
    x, y = _seed_xy(pts)
    f = (x * x * y) / (x * y + 1.0)

    def reference(xv, yv):
        den = 1.0 + xv * yv
        val = xv ** 2 * yv / den
        fx = (2 * xv * yv * den - xv ** 2 * yv * yv) / den ** 2
        fy = (xv ** 2 * den - xv ** 3 * yv) / den ** 2
        return val, fx, fy

    for b, (xv, yv) in enumerate(pts):
        val, fx, fy = reference(xv, yv)
        assert abs(f.val[b] - val) < 1e-14
        assert abs(f.grad[b, 0] - fx) < 1e-13
        assert abs(f.grad[b, 1] - fy) < 1e-13
    # Hessian against central differences of the analytic gradient
    h = 1e-6
    for b, (xv, yv) in enumerate(pts):
        fxx = (reference(xv + h, yv)[1] - reference(xv - h, yv)[1]) / (2 * h)
        fxy = (reference(xv, yv + h)[1] - reference(xv, yv - h)[1]) / (2 * h)
        assert abs(f.hess[b, 0, 0] - fxx) < 1e-7
        assert abs(f.hess[b, 0, 1] - fxy) < 1e-7
        assert_allclose(f.hess[b], f.hess[b].T, atol=1e-14)


def test_jet_log_and_reciprocal():
    pts = np.array([[0.5, 0.25]])
    x, y = _seed_xy(pts)
    g = (x * x + y * y + 1.0).log()
    sigma = 1.0 + 0.5 ** 2 + 0.25 ** 2
    assert abs(g.val[0] - math.log(sigma)) < 1e-15
    assert abs(g.grad[0, 0] - 2 * 0.5 / sigma) < 1e-14
    r = (x + 2.0).reciprocal()
    assert abs(r.val[0] - 1 / 2.5) < 1e-15
    assert abs(r.grad[0, 0] + 1 / 2.5 ** 2) < 1e-14
    assert abs(r.hess[0, 0, 0] - 2 / 2.5 ** 3) < 1e-13


def test_jet_complex_conjugation():
    d = 2
    direction = np.array([1.0, 1.0j])
    z = Jet.variable(np.array([0.3 + 0.4j]), direction, d)
    m = z * z.conj()
    assert abs(m.val[0] - abs(0.3 + 0.4j) ** 2) < 1e-15
    assert np.max(np.abs(m.val.imag)) < 1e-16
    # |z|^2 has Hessian 2 I in (x, y)
    assert_allclose(m.hess[0].real, 2 * np.eye(2), atol=1e-14)


def test_dual2_matches_jet_to_second_order():
    xy = [0.4, -0.2]
    coords = [Dual2.variable(xy[c], c, 2) for c in range(2)]
    k = (coords[0] * coords[0] + coords[1] * coords[1] + 1.0).log()
    sigma = 1.0 + 0.4 ** 2 + 0.2 ** 2
    assert abs(k.v - math.log(sigma)) < 1e-15
    assert abs(k.g[0] - 2 * 0.4 / sigma) < 1e-14
    assert abs(k.h[0][1] - (-4 * 0.4 * (-0.2) / sigma ** 2)) < 1e-13


def test_nested_dual_fourth_derivative():
    # K(x) = log(1 + x^2) in one variable: K'''' has the closed form below
    x0 = 0.37
    var = nested_variable(x0, 0, 1)
    k = (var * var + 1.0).log()
    s = 1.0 + x0 ** 2
    expected4 = (-12.0 / s ** 2 + 96.0 * x0 ** 2 / s ** 3
                 - 96.0 * x0 ** 4 / s ** 4)
    got4 = k.h[0][0].h[0][0]
    assert abs(got4 - expected4) < 1e-12
    # cross-check the second derivative in both nesting levels
    expected2 = 2.0 / s - 4.0 * x0 ** 2 / s ** 2
    assert abs(k.v.h[0][0] - expected2) < 1e-14
    assert abs(k.h[0][0].v - expected2) < 1e-14


# ---------------------------------------------------------------------------
# seeds carry no Hessian array


def _explicit(jet):
    """The same jet with its Hessian as an explicit array."""
    return Jet(jet.val, jet.grad, jet.hess)


def _seeds():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    direction = np.hstack([np.eye(3), 1j * np.eye(3)])
    z = Jet.variable(w, direction, 6)
    one = Jet.constant(np.full(6, 1.5 - 0.5j), 6)
    return z, one


def _general(z):
    """A jet with a nonzero Hessian: 1 / (1 + |z|^2), summed over axis 1."""
    sq = z.conj() * z
    return (sq[:, 0] + sq[:, 1] + sq[:, 2] + 1.0).reciprocal()


def _assert_same_jet(a, b):
    for part in ("val", "grad", "hess"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.shape == y.shape and x.dtype == y.dtype, part
        assert np.array_equal(x, y), part


def test_seed_hessian_reads_as_zeros_of_the_old_shape_and_dtype():
    z, one = _seeds()
    real = Jet.variable(np.array([0.5, 2.0]), np.array([1.0, 0.0]), 2)
    for jet, shape, dtype in ((z, (6, 3, 6, 6), complex),
                              (one, (6, 6, 6), complex),
                              (real, (2, 2, 2), float),
                              (Jet.constant(np.arange(3), 4), (3, 4, 4), float)):
        assert jet.hess.shape == shape and jet.hess.dtype == dtype
        assert not np.any(jet.hess)
        # a write into the zeros raises instead of being lost
        assert not jet.hess.flags.writeable
    # sums, negations, scalar multiples, conj, real and slices stay seeds
    for jet in (z + z, -z, 2.0 * z, z * 3j, z + 1.0, z.conj(), z.real,
                z[:, 1], one + z[:, 0]):
        assert jet._hess is None
        assert jet.hess.shape == jet.grad.shape + jet.grad.shape[-1:]


def test_seed_products_match_the_explicit_zero_products():
    z, one = _seeds()
    zi, zj = z[:, 0], z[:, 2]
    general = _general(z)
    pairs = [(zi.conj(), zj), (zi, zi), (z.conj()[:, :, None], z[:, None, :]),
             (zi, one), (one, zj.conj()), (one, one),
             (zi, general), (general, zj.conj()), (one, general),
             (z, general[:, None]), (general, general)]
    for a, b in pairs:
        _assert_same_jet(a * b, _explicit(a) * _explicit(b))
    # sums of a seed and a general jet, broadcast ones too, own a fresh
    # Hessian of the sum's full shape
    for a, b in ((zi, general), (general, one), (z, general[:, None]),
                 (general[:, None], z.conj())):
        total = a + b
        _assert_same_jet(total, _explicit(a) + _explicit(b))
        total.hess[...] += 1.0
        assert not np.shares_memory(total.hess, general.hess)
        _assert_same_jet(general, _general(z))
    # quotients, reciprocals and logs of seeds
    _assert_same_jet(zi / general, _explicit(zi) / general)
    _assert_same_jet(general / zi, general / _explicit(zi))
    for jet in (zi, one, zi.real):
        _assert_same_jet(jet.reciprocal(), _explicit(jet).reciprocal())
    x = Jet.variable(np.array([0.5, 2.0]), np.array([1.0, 0.0]), 2)
    _assert_same_jet((x + 1.0).log(), _explicit(x + 1.0).log())
