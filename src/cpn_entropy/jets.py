"""Forward-mode derivative carriers for exact metric and scalar-field jets.

Two flavors are provided:

* ``Jet`` -- batched second-order jets with numpy payloads.  A ``Jet`` carries
  the value, gradient, and Hessian of a scalar field at a batch of points and
  propagates them exactly through rational expressions (no truncation error,
  only roundoff).
* ``Dual2`` -- a scalar second-order dual number whose coefficients may
  themselves be ``Dual2`` instances.  Nesting two levels yields exact fourth
  order mixed partials; this is the independent cross-check for the metric
  derivative chain, driven from the potential log(1+|w|^2).
"""

from __future__ import annotations

import math

import numpy as np


class Jet:
    """Value / gradient / Hessian of a field over a batch of points.

    Shapes: ``val (B, *S)``, ``grad (B, *S, D)``, ``hess (B, *S, D, D)``
    where ``D`` is the number of real coordinates and ``S`` the value shape,
    empty for a scalar.  Jets of broadcastable value shapes combine
    elementwise.  Payloads may be real or complex.

    A jet whose Hessian is known to be zero holds no Hessian array
    (``_hess`` is None): the seeds of ``variable`` and ``constant``, and
    their sums, negations, scalar multiples, ``conj``, ``real`` and slices.
    The product rule skips its val * hess term, which is a zero, so the
    product has the bits of the explicit-zero product up to the sign of a
    zero.  ``hess`` reads as a read-only array of zeros of the full shape,
    so a write into it raises instead of being lost.  A sum with one such
    operand gets a fresh copy of the other Hessian, broadcast to the sum's
    shape, and shares no array with its operands.
    """

    __slots__ = ("val", "grad", "_hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val)
        self.grad = np.asarray(grad)
        self._hess = None if hess is None else np.asarray(hess)

    @property
    def hess(self):
        if self._hess is None:
            return np.broadcast_to(np.zeros((), dtype=self.grad.dtype),
                                   self.grad.shape + self.grad.shape[-1:])
        return self._hess

    def _map_hess(self, fn):
        """``fn`` of the Hessian array, or None for a known-zero one."""
        return None if self._hess is None else fn(self._hess)

    @classmethod
    def constant(cls, val, dim):
        val = np.asarray(val)
        dtype = val.dtype if val.dtype.kind == "c" else np.float64
        return cls(val.astype(dtype), np.zeros(val.shape + (dim,), dtype=dtype),
                   None)

    @classmethod
    def variable(cls, val, direction, dim):
        """Seed coordinates: ``direction`` is the gradient of ``val``."""
        val = np.asarray(val)
        direction = np.asarray(direction)
        grad = np.broadcast_to(direction, val.shape + (dim,)).copy()
        dtype = np.result_type(val.dtype, direction.dtype)
        return cls(val.astype(dtype), grad.astype(dtype), None)

    def __getitem__(self, index):
        """The jet of ``val[index]``, for an index of batch and value axes."""
        return Jet(self.val[index], self.grad[index],
                   self._map_hess(lambda h: h[index]))

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            grad = self.grad + other.grad
            if self._hess is None and other._hess is None:
                hess = None
            elif self._hess is None or other._hess is None:
                h = other._hess if self._hess is None else self._hess
                hess = np.broadcast_to(h, grad.shape + grad.shape[-1:]).copy()
            else:
                hess = self._hess + other._hess
            return Jet(self.val + other.val, grad, hess)
        return Jet(self.val + other, self.grad, self._hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, self._map_hess(np.negative))

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self, other
            val = a.val * b.val
            grad = a.val[..., None] * b.grad + b.val[..., None] * a.grad
            # a.val b.hess + b.val a.hess + a.grad b.grad^T + b.grad a.grad^T,
            # summed in that order without the terms of a zero Hessian;
            # every term has the product's full shape
            outer = a.grad[..., :, None] * b.grad[..., None, :]
            if a._hess is None and b._hess is None:
                hess = outer
            elif a._hess is None:
                hess = a.val[..., None, None] * b._hess
                hess += outer
            elif b._hess is None:
                hess = b.val[..., None, None] * a._hess
                hess += outer
            else:
                hess = a.val[..., None, None] * b._hess
                hess += b.val[..., None, None] * a._hess
                hess += outer
            hess += b.grad[..., :, None] * a.grad[..., None, :]
            return Jet(val, grad, hess)
        return Jet(self.val * other, self.grad * other,
                   self._map_hess(lambda h: h * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def reciprocal(self):
        iv = 1.0 / self.val
        iv2 = iv * iv
        grad = -self.grad * iv2[..., None]
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        hess = 2.0 * outer * (iv2 * iv)[..., None, None]
        if self._hess is not None:
            hess = -self._hess * iv2[..., None, None] + hess
        return Jet(iv, grad, hess)

    def log(self):
        iv = 1.0 / self.val
        grad = self.grad * iv[..., None]
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        hess = outer * (iv * iv)[..., None, None]
        if self._hess is None:
            hess = -hess
        else:
            hess = self._hess * iv[..., None, None] - hess
        return Jet(np.log(self.val), grad, hess)

    def conj(self):
        return Jet(np.conj(self.val), np.conj(self.grad),
                   self._map_hess(np.conj))

    @property
    def real(self):
        return Jet(self.val.real, self.grad.real,
                   self._map_hess(lambda h: h.real))


class Dual2:
    """Scalar second-order dual number with nestable coefficients.

    ``g`` is a list of length D and ``h`` a D x D list of lists.  Coefficients
    are floats or, when nested, ``Dual2`` instances, which gives exact fourth
    order derivatives from two levels of nesting.
    """

    __slots__ = ("v", "g", "h", "dim")

    def __init__(self, v, g, h, dim):
        self.v = v
        self.g = g
        self.h = h
        self.dim = dim

    @classmethod
    def constant(cls, value, dim):
        zero = 0.0 if not isinstance(value, Dual2) else value.zero_like()
        g = [zero for _ in range(dim)]
        h = [[zero for _ in range(dim)] for _ in range(dim)]
        return cls(value, g, h, dim)

    @classmethod
    def variable(cls, value: float, index, dim):
        """Seed coordinate ``index`` at a float ``value``; ``nested_variable``
        seeds the nested level."""
        d = cls.constant(value, dim)
        d.g[index] = 1.0
        return d

    def zero_like(self):
        return Dual2.constant(self.v * 0.0 if not isinstance(self.v, Dual2)
                              else self.v.zero_like(), self.dim)

    def _lift(self, other):
        if isinstance(other, Dual2):
            return other
        return Dual2.constant(other, self.dim)

    def __add__(self, other):
        o = self._lift(other)
        g = [a + b for a, b in zip(self.g, o.g)]
        h = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.h, o.h)]
        return Dual2(self.v + o.v, g, h, self.dim)

    __radd__ = __add__

    def __neg__(self):
        g = [-a for a in self.g]
        h = [[-a for a in ra] for ra in self.h]
        return Dual2(-self.v, g, h, self.dim)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        g = [self.v * o.g[i] + o.v * self.g[i] for i in range(self.dim)]
        h = [[self.v * o.h[i][j] + o.v * self.h[i][j]
              + self.g[i] * o.g[j] + o.g[i] * self.g[j]
              for j in range(self.dim)] for i in range(self.dim)]
        return Dual2(self.v * o.v, g, h, self.dim)

    __rmul__ = __mul__

    def reciprocal(self):
        iv = _inv(self.v)
        iv2 = iv * iv
        iv3 = iv2 * iv
        g = [-self.g[i] * iv2 for i in range(self.dim)]
        h = [[-self.h[i][j] * iv2 + 2.0 * self.g[i] * self.g[j] * iv3
              for j in range(self.dim)] for i in range(self.dim)]
        return Dual2(iv, g, h, self.dim)

    def log(self):
        iv = _inv(self.v)
        g = [self.g[i] * iv for i in range(self.dim)]
        h = [[self.h[i][j] * iv - self.g[i] * self.g[j] * iv * iv
              for j in range(self.dim)] for i in range(self.dim)]
        return Dual2(_log(self.v), g, h, self.dim)


def _inv(x):
    if isinstance(x, Dual2):
        return x.reciprocal()
    return 1.0 / x


def _log(x):
    if isinstance(x, Dual2):
        return x.log()
    return math.log(x)


def nested_variable(value, index, dim):
    """Seed coordinate ``index`` for fourth-order (nested) differentiation."""
    inner = Dual2.variable(float(value), index, dim)
    outer = Dual2.constant(inner, dim)
    outer.g[index] = Dual2.constant(1.0, dim)
    return outer
