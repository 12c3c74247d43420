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
from operator import add, sub

import numpy as np

# rows per block of ``BihomogeneousPolynomial.evaluate``
_BLOCK_ROWS = 8192


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

    def _evaluation_plan(self):
        """The monomials and term groups of ``evaluate``.

        Slot 0 holds 1 and slots 1..m hold z_0..z_{m-1}.  Every other
        monomial z^e that a term uses as z^a or z^b gets a slot after its
        parent z^(e - e_j), j the last index with e_j > 0, and a step
        (slot, parent slot, slot of z_j), in order of degree.  The groups
        map the slot of each antiholomorphic z^b, in order of first use, to
        the (coefficient, slot of z^a) of its terms in term order.
        """
        m = self.m
        units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        slots = {(0,) * m: 0} | {e: j + 1 for j, e in enumerate(units)}
        parents = {}
        for key in self.terms:
            for e in key:
                while e not in slots and e not in parents:
                    j = max(i for i, x in enumerate(e) if x)
                    parents[e] = (e[:j] + (e[j] - 1,) + e[j + 1:], j)
                    e = parents[e][0]
        steps = []
        for e in sorted(parents, key=sum):
            slots[e] = len(slots)
            parent, j = parents[e]
            steps.append((slots[e], slots[parent], j + 1))
        groups = {}
        for (a, b), c in self.terms.items():
            groups.setdefault(slots[b], []).append((c.to_complex(), slots[a]))
        return len(slots), steps, list(groups.items())

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at rows of a complex array z of shape (..., m).

        P is summed as a Hermitian form over shared monomials: for each
        antiholomorphic exponent b, W_b = sum_a c_ab z^a, and P = sum_b
        W_b conj(z^b).  The rows are taken ``_BLOCK_ROWS`` at a time.  In
        each block every monomial z^e is one product of its parent and a
        coordinate (``_evaluation_plan``); W_b is accumulated in term
        order, and the groups are added in order of first use.  Every
        product is ``np.multiply`` into a buffer that is none of its
        operands, so each row's bits depend on that row alone, not on the
        number of rows or on where the row sits among them.
        """
        z = np.asarray(z, dtype=complex)
        rows = z.reshape(-1, z.shape[-1])
        out = np.zeros(len(rows), dtype=complex)
        size, steps, groups = self._evaluation_plan()
        # the monomials, then three work rows: W_b, a product and conj(z^b)
        buf = np.empty((size + 3, min(len(rows), _BLOCK_ROWS)), dtype=complex)
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            mono = buf[:, :len(block)]
            w, prod, zb = mono[size:]
            mono[0] = 1
            mono[1:self.m + 1] = block.T
            for slot, parent, j in steps:
                np.multiply(mono[parent], mono[j], out=mono[slot])
            acc = out[start:start + len(block)]
            for b, terms in groups:
                (c, a), rest = terms[0], terms[1:]
                np.multiply(mono[a], c, out=w)
                for c, a in rest:
                    w += np.multiply(mono[a], c, out=prod)
                np.conjugate(mono[b], out=zb)
                acc += np.multiply(w, zb, out=prod)
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


def _weight(key) -> tuple[int, ...]:
    """The torus weight a - b of the monomial z^a zbar^b."""
    return tuple(map(sub, *key))


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
    # a linear system for Q over the bidegree (k-1, k-1) monomials.  The
    # Laplacian and r^2 keep each monomial's torus weight a - b, so the
    # system is one block per weight, and Q vanishes on every weight that
    # lap P lacks.
    mono = _monomial_basis(m, k - 1)
    keys = [(a, b) for a in mono for b in mono]
    blocks = {}
    for key in keys:
        blocks.setdefault(_weight(key), []).append(key)
    const = 4 * (m + 2 * (k - 1))
    r2 = BihomogeneousPolynomial.radius_squared(m)
    rhs = flat_laplacian(p)
    sol = {}
    for weight in dict.fromkeys(map(_weight, rhs.terms)):
        block = blocks[weight]
        cols = []
        for key in block:
            q_basis = BihomogeneousPolynomial(m, {key: 1})
            image = q_basis.scale(const) + r2 * flat_laplacian(q_basis)
            cols.append([image.terms.get(row, QC_ZERO) for row in block])
        matrix = [list(row) for row in zip(*cols)]
        sol.update(zip(block, _solve_qc(
            matrix, [rhs.terms.get(row, QC_ZERO) for row in block])))
    q = BihomogeneousPolynomial(m, {key: sol[key] for key in keys
                                    if key in sol})
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
