"""Exact bihomogeneous polynomials on C^m with Gaussian-rational coefficients.

A polynomial of bidegree (k, k) is a sum of monomials z^a zbar^b with
|a| = |b| = k; restricted to the unit sphere these descend to CP^{m-1}.
All arithmetic is exact: coefficients are pairs of ``fractions.Fraction``.

``LinearCombination`` is the package's one exact sparse sum: a dict of
nonzero coefficients with one zero rule, ``_accumulate``.  The polynomials
here and the coefficients and integral expressions of ``rewrite`` subclass
it and only normalize their keys and coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add

import numpy as np

# rows per block of ``BihomogeneousPolynomial.evaluate``
_BLOCK_ROWS = 8192
# numpy's temporary elision threshold, 256 KiB, in complex128 elements
_ELIDE_ROWS = 16384


def _row_blocks(n: int) -> list[slice]:
    """Cut n rows into consecutive blocks that ``evaluate`` can take one at a
    time with the bits of one call on all n rows.

    Each block but the last has ``_ELIDE_ROWS`` rows, a multiple of
    ``_BLOCK_ROWS``, and the last takes the tail.  So each call's own row
    blocks fall where the whole call's would, and every block has at least
    ``_ELIDE_ROWS`` rows whenever n does: each call then picks the operand
    order that the whole call would.  Fewer than ``_ELIDE_ROWS`` rows stay
    one block.
    """
    k = max(1, n // _ELIDE_ROWS)
    return [slice(i * _ELIDE_ROWS, n if i == k - 1 else (i + 1) * _ELIDE_ROWS)
            for i in range(k)]


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

    def __bool__(self):
        return bool(self.re or self.im)

    def to_complex(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


QC_ZERO = QC()
QC_ONE = QC(Fraction(1))
QC_I = QC(Fraction(0), Fraction(1))


class LinearCombination:
    """A sparse exact sum, stored as ``terms: {key: coefficient}``.

    ``_accumulate`` is the one zero rule: a term whose coefficient cancels
    leaves ``terms``, and one that comes back is appended at the end.  The
    insertion order is kept because ``BihomogeneousPolynomial.evaluate``
    sums terms in that order.  Subclasses normalize the terms given to the
    constructor (``_normalize``) and say which sums combine (``_matching``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        for key, coef in (terms or {}).items():
            self._accumulate(*self._normalize(key, coef))

    def _normalize(self, key, coef):
        return key, coef

    def _new(self):
        """An empty sum of the same kind."""
        return type(self)()

    def _matching(self, o):
        """``o``, if it may be added to or multiplied with this sum."""
        if type(o) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(o).__name__}")
        return o

    def _accumulate(self, key, coef):
        if not coef:
            return
        cur = self.terms.get(key)
        new = coef if cur is None else cur + coef
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def map_terms(self, fn):
        """The sum of the ``(key, coef)`` terms ``fn(key, coef)`` yields for
        each term, in order."""
        out = self._new()
        for key, coef in self.terms.items():
            for new_key, new_coef in fn(key, coef):
                out._accumulate(new_key, new_coef)
        return out

    def scale(self, c):
        return self.map_terms(lambda key, coef: ((key, coef * c),))

    def __add__(self, o):
        out = self._new()
        out.terms = dict(self.terms)
        for key, coef in self._matching(o).terms.items():
            out._accumulate(key, coef)
        return out

    def __neg__(self):
        return self.map_terms(lambda key, coef: ((key, -coef),))

    def __sub__(self, o):
        return self + -self._matching(o)

    def _product(self, o, combine_keys):
        """The product of two sums whose keys multiply by ``combine_keys``."""
        out = self._new()
        other = self._matching(o).terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in other:
                out._accumulate(combine_keys(k1, k2), c1 * c2)
        return out

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, o):
        return type(o) is type(self) and self.terms == o.terms


def _add_exponents(k1, k2):
    return (tuple(map(add, k1[0], k2[0])), tuple(map(add, k1[1], k2[1])))


class BihomogeneousPolynomial(LinearCombination):
    """Exact polynomial in z, zbar on C^m, stored as {(a, b): QC}."""

    __slots__ = ("m",)

    def __init__(self, m: int, terms: dict | None = None):
        self.m = m
        super().__init__(terms)

    def _normalize(self, key, coef):
        a, b = key
        if len(a) != self.m or len(b) != self.m:
            raise ValueError("exponent length must equal m")
        return key, QC.of(coef)

    def _new(self):
        return BihomogeneousPolynomial(self.m)

    def _matching(self, o):
        if super()._matching(o).m != self.m:
            raise ValueError("polynomials live on different C^m")
        return o

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, m: int, a, b, coeff) -> "BihomogeneousPolynomial":
        return cls(m, {(tuple(a), tuple(b)): QC.of(coeff)})

    @classmethod
    def zero(cls, m: int) -> "BihomogeneousPolynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, c) -> "BihomogeneousPolynomial":
        return cls.monomial(m, (0,) * m, (0,) * m, c)

    @classmethod
    def radius_squared(cls, m: int) -> "BihomogeneousPolynomial":
        units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        return cls(m, {(e, e): 1 for e in units})

    @classmethod
    def from_form(cls, form) -> "BihomogeneousPolynomial":
        """z* A z as an exact polynomial; requires exact form entries."""
        if form.exact is None:
            raise ValueError("HermitianForm carries no exact entries")
        m = form.size
        terms = {}
        for i in range(m):
            for j in range(m):
                a = [0] * m
                b = [0] * m
                a[j] += 1   # z_j
                b[i] += 1   # zbar_i
                terms[(tuple(a), tuple(b))] = QC(*form.exact[i][j])
        return cls(m, terms)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, o: "BihomogeneousPolynomial"):
        return self._product(o, _add_exponents)

    def power(self, q: int) -> "BihomogeneousPolynomial":
        if q < 0:
            raise ValueError("q must be nonnegative")
        out = BihomogeneousPolynomial.constant(self.m, 1)
        for _ in range(q):
            out = out * self
        return out

    def bidegree(self) -> tuple[int, int] | None:
        """(k, l) if all terms share total degrees, else None."""
        degs = {(sum(a), sum(b)) for (a, b) in self.terms}
        if not degs:
            return (0, 0)
        return degs.pop() if len(degs) == 1 else None

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at rows of a complex array z of shape (..., m).

        The rows are taken ``_BLOCK_ROWS`` at a time.  In each block every
        power z_j^e and zbar_j^e that some term uses is computed once; each
        term is the product of its factors in exponent order (z before
        zbar, j ascending), a fresh array per product, and is added to the
        block's slice of the output in term order.  The bits, up to the sign
        of a zero, are those of one whole-array pass that multiplied each
        factor into a running term of ones: numpy computed ``term * power``
        as ``power * term`` (temporary elision) when the array had at least
        ``_ELIDE_ROWS`` elements, and complex products are not bitwise
        commutative, so the operand order follows the total row count.
        """
        z = np.asarray(z, dtype=complex)
        rows = z.reshape(-1, z.shape[-1])
        out = np.zeros(len(rows), dtype=complex)
        plan = [(c.to_complex(),
                 [(0, j, e) for j, e in enumerate(a) if e]
                 + [(1, j, e) for j, e in enumerate(b) if e])
                for (a, b), c in self.terms.items()]
        used = {key for _, factors in plan for key in factors}
        power_first = len(rows) >= _ELIDE_ROWS
        for start in range(0, len(rows), _BLOCK_ROWS):
            s = slice(start, start + _BLOCK_ROWS)
            bases = (rows[s], np.conj(rows[s]))
            powers = {(i, j, e): bases[i][:, j] ** e for i, j, e in used}
            for c, factors in plan:
                if not factors:
                    out[s] += c
                    continue
                term = powers[factors[0]]
                for key in factors[1:]:
                    term = (powers[key] * term if power_first
                            else term * powers[key])
                out[s] += c * term
        return out.reshape(z.shape[:-1])

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
    def lap(key, c):
        a, b = key
        for j in range(p.m):
            if a[j] and b[j]:
                yield ((a[:j] + (a[j] - 1,) + a[j + 1:],
                        b[:j] + (b[j] - 1,) + b[j + 1:]), c * (4 * a[j] * b[j]))

    return p.map_terms(lap)


def _monomial_basis(m: int, k: int) -> list[tuple[int, ...]]:
    """Exponents of total degree k on C^m, in lexicographic order."""
    return [e for e in product(range(k + 1), repeat=m) if sum(e) == k]


def _solve_qc(matrix: list[list[QC]], rhs: list[QC]) -> list[QC]:
    """Exact Gaussian elimination over Gaussian rationals."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular system in harmonic decomposition")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = QC_ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
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
    keys = [(a, b) for a in mono for b in mono]
    const = 4 * (m + 2 * (k - 1))
    r2 = BihomogeneousPolynomial.radius_squared(m)

    def dense(poly):
        # every term of a bidegree (k-1, k-1) polynomial has a key here
        return [poly.terms.get(key, QC_ZERO) for key in keys]

    cols = []
    for key in keys:
        q_basis = BihomogeneousPolynomial(m, {key: 1})
        cols.append(dense(q_basis.scale(const) + r2 * flat_laplacian(q_basis)))
    matrix = [list(row) for row in zip(*cols)]
    sol = _solve_qc(matrix, dense(flat_laplacian(p)))
    q = BihomogeneousPolynomial(m, dict(zip(keys, sol)))
    h = p - r2 * q
    if not flat_laplacian(h).is_zero():
        raise ArithmeticError("decomposition failed: residue not harmonic")
    return h, q


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
