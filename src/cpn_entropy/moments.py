"""Exact averages of bihomogeneous monomials over odd-dimensional spheres.

All sphere integrals are reported as averages (integral divided by sphere
volume); the certificate multiplies by the CP^N volume explicitly where an
integral is needed.  Monomial averages over S^{2m-1} in C^m follow the
Dirichlet moment identity

    avg(prod |z_i|^{2 a_i}) = prod(a_i!) * (m-1)! / (m-1+sum a_i)!,

and vanish whenever the holomorphic and antiholomorphic exponents differ
(rotations z_j -> e^{i t} z_j are measure-preserving).  The Monte Carlo
estimator is the independent oracle for every derived value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .polynomials import _BLOCK_ROWS, QC, QC_I, BihomogeneousPolynomial

# i^k for k = 0..3: z_j -> i z_j multiplies z^a zbar^b by i^((a_j - b_j) % 4)
_I_POWERS = (QC(Fraction(1)), QC_I, QC(Fraction(-1)),
             QC(Fraction(0), Fraction(-1)))


def monomial_average(m: int, a, b) -> Fraction:
    """Average of z^a zbar^b over the unit sphere of C^m, exact."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != m or len(b) != m:
        raise ValueError("exponent tuples must have length m")
    if any(x < 0 for x in a + b):
        raise ValueError("exponents must be nonnegative")
    if a != b:
        return Fraction(0)
    total = sum(a)
    num = math.prod(math.factorial(x) for x in a) * math.factorial(m - 1)
    return Fraction(num, math.factorial(m - 1 + total))


def polynomial_average(m: int, p: BihomogeneousPolynomial) -> Fraction:
    """Linear extension of ``monomial_average``; exact rational."""
    if p.m != m:
        raise ValueError("polynomial lives on a different C^m")
    total_re = Fraction(0)
    total_im = Fraction(0)
    for (a, b), c in p.terms.items():
        avg = monomial_average(m, a, b)
        if avg:
            total_re += c.re * avg
            total_im += c.im * avg
    if total_im != 0:
        raise ArithmeticError("average of a real-valued polynomial must be real")
    return total_re


def apply_symmetry(p: BihomogeneousPolynomial, sym) -> BihomogeneousPolynomial:
    """Transform P under z_j -> -z_j (kind 'negate') or z_j -> i z_j ('rotate')."""
    kind, j = sym
    if kind == "negate":
        return p.map_terms(lambda key, c: (
            (key, c * (-1 if (key[0][j] + key[1][j]) % 2 else 1)),))
    if kind == "rotate":
        return p.map_terms(lambda key, c: (
            (key, c * _I_POWERS[(key[0][j] - key[1][j]) % 4]),))
    raise ValueError(f"unknown symmetry kind {kind!r}")


def symmetry_vanishing(p: BihomogeneousPolynomial, sym) -> bool:
    """True iff P is odd under the sphere isometry, forcing zero average."""
    transformed = apply_symmetry(p, sym)
    return transformed == -p


def cpn_average(q: int, form, N: int) -> Fraction:
    """Exact average of phi_A^q over CP^N (q in {1,2,3}).

    phi_A^q lifts to the circle-invariant restriction of (z* A z)^q to the
    unit sphere of C^{N+1}; the quotient map preserves normalized averages,
    so the CP^N average equals the sphere average, computed exactly.
    """
    if q not in (1, 2, 3):
        raise ValueError("q must be 1, 2, or 3")
    p = BihomogeneousPolynomial.from_form(form)
    return polynomial_average(N + 1, p.power(q))


def cpn_volume_closed_form(N: int) -> float:
    """pi^N / N!, the volume of CP^N in this normalization."""
    return math.pi ** N / math.factorial(N)


def cpn_volume(N: int):
    """Volume by chart quadrature; returns (value, error_estimate).

    Cross-check target is the closed form pi^N/N!.  The integrand is
    constant, so both rules of ``quadrature.ADAPTIVE_ORDERS`` are exact up
    to rounding, and the error estimate is their relative difference.
    """
    from .quadrature import adaptive_cpn_integral

    def one(w):
        return np.ones(w.shape[0])

    return adaptive_cpn_integral(one, N, tol=1e-6)


# samples per Monte Carlo shard
MC_SHARD_ROWS = 200_000


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n elementwise as ((x * x) * x) ..., a new array; ones for n = 0."""
    out = np.ones_like(x) if n == 0 else x.copy()
    for _ in range(n - 1):
        out *= x
    return out


def monte_carlo_average(p: BihomogeneousPolynomial, m: int, samples: int,
                        seed: int, q: int):
    """Unbiased estimate of avg((Re p)^q) over the unit sphere of C^m.

    Returns (mean, standard_error).  Per-shard seeds are spawned from the
    master seed, so the estimate is deterministic for a fixed seed.

    p must have one bidegree (k, k).  Then p(g) = |g|^(2k) p(g / |g|), so
    each complex Gaussian row g gives the sample (Re p(g) / |g|^(2k))^q at
    the uniform point g / |g| without that point being built, and avg(f^3)
    is estimated from f itself (6 terms at N = 2), not from f^3 (55).

    A shard of up to ``MC_SHARD_ROWS`` samples holds only its real parts
    and its values, in two float buffers reused shard after shard; the
    complex rows exist one block of ``_BLOCK_ROWS`` rows at a time.  Four
    properties fix the bits, those of the whole-shard formula
    (Re p(g) / |g|^(2k))^q for g = a + 1j * b: one spawned child per
    shard, drawing all of the shard's real parts and then its imaginary
    parts (split draws continue one stream); per-row division by
    |g|^(2k), with |g|^2 = sum a_j^2 + sum b_j^2 and both powers taken by
    elementwise products in one fixed order; ``evaluate``, whose rows keep
    their bits in any block; and one ``np.sum`` per shard of the values
    and one of their squares.  So the block size does not move a bit.
    """
    if samples < 10_000:
        raise ValueError("samples must be >= 10^4")
    if p.m != m:
        raise ValueError("polynomial lives on a different C^m")
    if isinstance(q, bool) or not isinstance(q, int) or q < 1:
        raise ValueError("q must be an int >= 1")
    degree = p.bidegree()
    if degree is None or degree[0] != degree[1]:
        raise ValueError("p must have one bidegree (k, k) to be divided "
                         "by |g|^(2k)")
    k = degree[0]
    seq = np.random.SeedSequence(seed)
    reals = np.empty((min(MC_SHARD_ROWS, samples), m))
    vals = np.empty(len(reals))
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < samples:
        size = min(MC_SHARD_ROWS, samples - count)
        # one child per shard, spawned when needed: the same streams as
        # spawning them all at once, without holding them all
        rng = np.random.default_rng(seq.spawn(1)[0])
        rng.standard_normal(out=reals[:size])
        for start in range(0, size, _BLOCK_ROWS):
            s = slice(start, min(start + _BLOCK_ROWS, size))
            z = np.empty((s.stop - s.start, m), dtype=complex)
            z.real = reals[s]
            z.imag = rng.standard_normal(z.shape)
            r2 = np.zeros(len(z))
            for part in (z.real, z.imag):
                for j in range(m):
                    r2 += part[:, j] * part[:, j]
            v = vals[s]
            np.divide(np.real(p.evaluate(z)), _power(r2, k), out=v)
            v[:] = _power(v, q)
        v = vals[:size]
        total += float(np.sum(v))
        total_sq += float(np.sum(np.square(v, out=v)))
        count += size
    mean = total / count
    var = max(total_sq / count - mean ** 2, 0.0)
    stderr = math.sqrt(var / count)
    return mean, stderr
