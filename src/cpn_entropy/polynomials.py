"""Exact bihomogeneous polynomials on C^m with Gaussian-rational coefficients.

A polynomial of bidegree (k, k) is a sum of monomials z^a zbar^b with
|a| = |b| = k; restricted to the unit sphere these descend to CP^{m-1}.
All arithmetic is exact: coefficients are pairs of ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class QC:
    """A Gaussian rational re + i*im."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, complex):
            raise TypeError("refusing inexact complex -> QC conversion")
        return QC(Fraction(x))

    def __add__(self, o):
        o = QC.of(o)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-QC.of(o))

    def __rsub__(self, o):
        return (-self) + QC.of(o)

    def __mul__(self, o):
        o = QC.of(o)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QC.of(o)
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * o.re + self.im * o.im) / n2,
                  (self.im * o.re - self.re * o.im) / n2)

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


QC_ZERO = QC()
QC_ONE = QC(Fraction(1))
QC_I = QC(Fraction(0), Fraction(1))


class BihomogeneousPolynomial:
    """Exact polynomial in z, zbar on C^m, stored as {(a, b): QC}."""

    def __init__(self, m: int, terms: dict | None = None):
        self.m = m
        self.terms: dict[tuple[tuple[int, ...], tuple[int, ...]], QC] = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(key, QC.of(coeff))

    def _accumulate(self, key, coeff: QC):
        if coeff.is_zero():
            return
        a, b = key
        if len(a) != self.m or len(b) != self.m:
            raise ValueError("exponent length must equal m")
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, m: int, a, b, coeff=1) -> "BihomogeneousPolynomial":
        return cls(m, {(tuple(a), tuple(b)): QC.of(coeff)})

    @classmethod
    def zero(cls, m: int) -> "BihomogeneousPolynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, c) -> "BihomogeneousPolynomial":
        return cls.monomial(m, (0,) * m, (0,) * m, c)

    @classmethod
    def radius_squared(cls, m: int) -> "BihomogeneousPolynomial":
        p = cls.zero(m)
        for j in range(m):
            e = [0] * m
            e[j] = 1
            p = p + cls.monomial(m, e, e, 1)
        return p

    @classmethod
    def from_form(cls, form) -> "BihomogeneousPolynomial":
        """z* A z as an exact polynomial; requires exact form entries."""
        if form.exact is None:
            raise ValueError("HermitianForm carries no exact entries")
        m = form.size
        p = cls.zero(m)
        for i in range(m):
            for j in range(m):
                re, im = form.exact[i][j]
                c = QC(re, im)
                if c.is_zero():
                    continue
                a = [0] * m
                b = [0] * m
                a[j] += 1   # z_j
                b[i] += 1   # zbar_i
                p = p + cls.monomial(m, a, b, c)
        return p

    # -- algebra -----------------------------------------------------------

    def __add__(self, o: "BihomogeneousPolynomial"):
        out = BihomogeneousPolynomial(self.m, dict(self.terms))
        for key, c in o.terms.items():
            out._accumulate(key, c)
        return out

    def __sub__(self, o):
        return self + o.scaled(QC(Fraction(-1)))

    def scaled(self, c) -> "BihomogeneousPolynomial":
        c = QC.of(c)
        out = BihomogeneousPolynomial(self.m)
        for key, coeff in self.terms.items():
            out._accumulate(key, coeff * c)
        return out

    def __mul__(self, o: "BihomogeneousPolynomial"):
        out = BihomogeneousPolynomial(self.m)
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in o.terms.items():
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                out._accumulate(key, c1 * c2)
        return out

    def power(self, q: int) -> "BihomogeneousPolynomial":
        if q < 0:
            raise ValueError("q must be nonnegative")
        out = BihomogeneousPolynomial.constant(self.m, 1)
        for _ in range(q):
            out = out * self
        return out

    def is_real_valued(self) -> bool:
        for (a, b), c in self.terms.items():
            other = self.terms.get((b, a), QC_ZERO)
            if other != c.conj():
                return False
        return True

    def bidegree(self) -> tuple[int, int] | None:
        """(k, l) if all terms share total degrees, else None."""
        degs = {(sum(a), sum(b)) for (a, b) in self.terms}
        if not degs:
            return (0, 0)
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, o):
        return isinstance(o, BihomogeneousPolynomial) and self.terms == o.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at rows of a complex array z of shape (..., m)."""
        z = np.asarray(z, dtype=complex)
        zc = np.conj(z)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for (a, b), c in self.terms.items():
            term = np.ones(z.shape[:-1], dtype=complex)
            for j, e in enumerate(a):
                if e:
                    term = term * z[..., j] ** e
            for j, e in enumerate(b):
                if e:
                    term = term * zc[..., j] ** e
            out += c.to_complex() * term
        return out

    def __repr__(self):
        n = len(self.terms)
        return f"BihomogeneousPolynomial(m={self.m}, {n} terms)"


def special_cubic_polynomial(N: int) -> BihomogeneousPolynomial:
    """The unstable-direction polynomial f on C^{N+1} with unit coefficients."""
    from .eigenfunctions import special_phi

    return BihomogeneousPolynomial.from_form(special_phi(N))


# ---------------------------------------------------------------------------
# flat harmonic decomposition P_k = H_k + r^2 P_{k-1}


class UnsupportedDegreeError(ValueError):
    pass


def flat_laplacian(p: BihomogeneousPolynomial) -> BihomogeneousPolynomial:
    """Euclidean Laplacian on C^m = R^{2m}: 4 sum_j d2/dz_j dzbar_j."""
    out = BihomogeneousPolynomial(p.m)
    for (a, b), c in p.terms.items():
        for j in range(p.m):
            if a[j] and b[j]:
                na = list(a)
                nb = list(b)
                na[j] -= 1
                nb[j] -= 1
                out._accumulate((tuple(na), tuple(nb)),
                                c * (4 * a[j] * b[j]))
    return out


def _monomial_basis(m: int, k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [(0,) * m]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], k, m)
    return out


def _solve_qc(matrix: list[list[QC]], rhs: list[QC]) -> list[QC]:
    """Exact Gaussian elimination over Gaussian rationals."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ArithmeticError("singular system in harmonic decomposition")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = QC_ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def harmonic_decomposition(p: BihomogeneousPolynomial, k: int):
    """Split P of bidegree (k, k) as P = H + r^2 Q with H flat-harmonic.

    Exact in rational arithmetic; supports k <= 3.  Returns (H, Q).
    """
    if k > 3:
        raise UnsupportedDegreeError(f"bidegree ({k},{k}) unsupported (k <= 3)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    deg = p.bidegree()
    if deg is None or (not p.is_zero() and deg != (k, k)):
        raise ValueError(f"polynomial is not of bidegree ({k},{k})")
    m = p.m
    if k == 0 or p.is_zero():
        return p, BihomogeneousPolynomial.zero(m)

    # Applying the flat Laplacian to P = H + r^2 Q gives
    #   lap P = lap(r^2 Q) = 4(m + 2(k-1)) Q + r^2 lap Q,
    # a linear system for Q over the bidegree (k-1, k-1) monomials.
    mono = _monomial_basis(m, k - 1)
    index = {}
    keys = []
    for a in mono:
        for b in mono:
            index[(a, b)] = len(keys)
            keys.append((a, b))
    dim = len(keys)
    const = 4 * (m + 2 * (k - 1))
    r2 = BihomogeneousPolynomial.radius_squared(m)
    cols = []
    for key in keys:
        q_basis = BihomogeneousPolynomial.monomial(m, key[0], key[1], 1)
        image = q_basis.scaled(const) + r2 * flat_laplacian(q_basis)
        col = [QC_ZERO] * dim
        for kk, c in image.terms.items():
            col[index[kk]] = c
        cols.append(col)
    matrix = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    lap_p = flat_laplacian(p)
    rhs = [QC_ZERO] * dim
    for kk, c in lap_p.terms.items():
        rhs[index[kk]] = c
    sol = _solve_qc(matrix, rhs)
    q = BihomogeneousPolynomial(m)
    for key, c in zip(keys, sol):
        q._accumulate(key, c)
    h = p - r2 * q
    if not flat_laplacian(h).is_zero():
        raise ArithmeticError("decomposition failed: residue not harmonic")
    return h, q


def recompose(h: BihomogeneousPolynomial, q: BihomogeneousPolynomial):
    return h + BihomogeneousPolynomial.radius_squared(h.m) * q


def full_harmonic_expansion(p: BihomogeneousPolynomial, k: int):
    """[H_k, H_{k-1}, ..., H_0] with P = sum_j r^{2(k-j)} H_j."""
    parts = []
    current, kk = p, k
    while kk > 0:
        h, q = harmonic_decomposition(current, kk)
        parts.append(h)
        current, kk = q, kk - 1
    parts.append(current)
    return parts
