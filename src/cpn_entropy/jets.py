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
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val)
        self.grad = np.asarray(grad)
        self.hess = np.asarray(hess)

    @classmethod
    def constant(cls, val, dim):
        val = np.asarray(val)
        dtype = val.dtype if val.dtype.kind == "c" else np.float64
        return cls(val.astype(dtype),
                   np.zeros(val.shape + (dim,), dtype=dtype),
                   np.zeros(val.shape + (dim, dim), dtype=dtype))

    @classmethod
    def variable(cls, val, direction, dim):
        """Seed coordinates: ``direction`` is the gradient of ``val``."""
        val = np.asarray(val)
        direction = np.asarray(direction)
        grad = np.broadcast_to(direction, val.shape + (dim,)).copy()
        dtype = np.result_type(val.dtype, direction.dtype)
        return cls(val.astype(dtype), grad.astype(dtype),
                   np.zeros(val.shape + (dim, dim), dtype=dtype))

    def __getitem__(self, index):
        """The jet of ``val[index]``, for an index of batch and value axes."""
        return Jet(self.val[index], self.grad[index], self.hess[index])

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad,
                       self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self, other
            val = a.val * b.val
            grad = a.val[..., None] * b.grad + b.val[..., None] * a.grad
            hess = (a.val[..., None, None] * b.hess
                    + b.val[..., None, None] * a.hess
                    + a.grad[..., :, None] * b.grad[..., None, :]
                    + b.grad[..., :, None] * a.grad[..., None, :])
            return Jet(val, grad, hess)
        return Jet(self.val * other, self.grad * other, self.hess * other)

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
        hess = (-self.hess * iv2[..., None, None]
                + 2.0 * outer * (iv2 * iv)[..., None, None])
        return Jet(iv, grad, hess)

    def log(self):
        iv = 1.0 / self.val
        grad = self.grad * iv[..., None]
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        hess = self.hess * iv[..., None, None] - outer * (iv * iv)[..., None, None]
        return Jet(np.log(self.val), grad, hess)

    def conj(self):
        return Jet(np.conj(self.val), np.conj(self.grad), np.conj(self.hess))

    @property
    def real(self):
        return Jet(self.val.real, self.grad.real, self.hess.real)


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
