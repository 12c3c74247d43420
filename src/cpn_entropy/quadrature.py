"""Degree-exact quadrature over CP^N in chart-0 coordinates.

The chart integral of F against the volume density sigma^{-(N+1)} compactifies
under t_0 = 1/sigma, t_j = |w_j|^2/sigma, theta_j = arg w_j into

    int F dV = 2^{-N} int_{Delta^N} int_{T^N} F(w(t, theta)) dtheta dt,

where Delta^N is the Euclidean simplex {t_j >= 0, sum t_j <= 1} and T^N the
torus of relative phases.  The rule is Stroud's conical product (A. H.
Stroud, *Approximate Calculation of Multiple Integrals*, 1971) on the
simplex times a rule on the torus.  The simplex is broken into sticks
u_0..u_{N-1}, whose Jacobian prod (1 - u_i)^(N-1-i) is the weight of a
Gauss-Jacobi rule in u_i (nodes by Golub-Welsch).

A polynomial of degree d in the first eigenfunctions, such as phi^q for
q <= d, has degree at most d in each u_i and carries only the torus
characters m = (e_{j_1} + ... + e_{j_d}) - (e_{i_1} + ... + e_{i_d}), with
e_0 = 0.  ``exact_orders(d)`` takes the torus factor to be the rank-1
lattice theta_k = 2 pi (k z mod M) / M, k = 0..M-1 (I. H. Sloan and S. Joe,
*Lattice Methods for Multiple Integration*, 1994).  It integrates the
character m exactly when m.z = 0 mod M only for m = 0, that is when the
d-fold sums of {0, z_1, ..., z_N} are distinct mod M (a B_d set).  So the
rule is exact for degree d whatever N is.  At d = 2 and N = 2..6 the
tabled moduli M are the smallest possible, about N^2 (``_B_D_SETS``),
against the 3^N points of a uniform grid exact for the same degree.
Every chart quadrature runs on such a lattice, ``adaptive_cpn_integral``
too: its ladder is the rules exact for degrees 3 and 4.  Sphere Monte
Carlo (``moments.monte_carlo_average``) is the independent oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def gauss_jacobi(n: int, a: int):
    """The n-point Gauss rule on [0, 1] for the weight (1 - u)^a, a >= 0.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    polynomials orthogonal for this weight (the Jacobi P_k^(a, 0), moved
    from [-1, 1] to [0, 1]), and each weight is the weight's mass 1/(a + 1)
    times the squared first component of the node's eigenvector.  The rule
    integrates u^k (1 - u)^a exactly for k <= 2n - 1.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a
    diag = np.empty(n)
    diag[0] = -a / (a + 2.0)
    diag[1:] = -a * a / (s * (s + 2.0))
    off = 2.0 * k * (k + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    jacobi = (np.diag(0.5 * (1.0 + diag)) + np.diag(0.5 * off, 1)
              + np.diag(0.5 * off, -1))
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, vectors[0] ** 2 / (a + 1.0)


class Lattice(NamedTuple):
    """The torus factor of ``exact_orders(degree)``: at each N the rank-1
    lattice of ``lattice_generator(N, Lattice(degree))``."""

    degree: int


# (N, d) -> (M, z): {0, z_1, ..., z_N} is a B_d set mod M with M the
# smallest modulus that has one (found by exhaustive search; searching at
# run time would take seconds at N = 6).
_B_D_SETS = {
    (2, 2): (7, (1, 3)),
    (3, 2): (13, (1, 3, 9)),
    (4, 2): (21, (1, 4, 14, 16)),
    (5, 2): (31, (1, 3, 8, 12, 18)),
    (6, 2): (48, (1, 3, 15, 20, 38, 42)),
}


def lattice_generator(N: int, torus) -> tuple[int, tuple[int, ...]]:
    """(M, z) of the rank-1 lattice on T^N that the torus factor ``torus``
    names; the one place a torus becomes a lattice.

    ``Lattice(d)`` is the tabled B_d set, else the digit lattice of
    n = d + 1.  An int n is the digit lattice z_j = n^(j-1), M = n^N: the
    sum m.z of a character with every |m_j| < n is 0 mod n^N only at
    m = 0, by its base-n digits, so it is exact on the box of the n-point
    uniform grid, with as many points.  The int form is kept for callers
    that name a torus by its points per angle, such as perfbench's tests
    of ``chart_nodes(2, 4, 6, max_chunk=8)`` (16 x 36 nodes).
    """
    if isinstance(torus, Lattice):
        if (N, torus.degree) in _B_D_SETS:
            return _B_D_SETS[N, torus.degree]
        torus = torus.degree + 1
    return torus ** N, tuple(torus ** j for j in range(N))


def exact_orders(d: int) -> tuple[int, Lattice]:
    """(n_u, torus) of the chart rule exact for integrands of degree d."""
    return (d + 2) // 2, Lattice(d)


def simplex_rule(N: int, n_u: int):
    """Stick-breaking Gauss-Jacobi product rule for the simplex Delta^N.

    t_{j+1} = u_j prod_{i<j} (1 - u_i) and t_0 = prod_i (1 - u_i).  The
    Jacobian prod_i (1 - u_i)^(N-1-i) is the weight of the rule in u_i, so
    a polynomial of degree d in t is exact once 2 n_u - 1 >= d.  Returns
    (t, weights) with t of shape (n_u^N, N+1); weights sum to 1/N!.
    """
    rules = [gauss_jacobi(n_u, N - 1 - i) for i in range(N)]
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    wgrids = np.meshgrid(*(w for _, w in rules), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    t = np.empty((u.shape[0], N + 1))
    remaining = np.ones(u.shape[0])
    for j in range(N):
        t[:, j + 1] = remaining * u[:, j]
        remaining = remaining * (1.0 - u[:, j])
    t[:, 0] = remaining
    return t, weight


def torus_lattice(N: int, torus):
    """Rank-1 lattice theta_k = 2 pi (k z mod M) / M, k = 0..M-1, on T^N
    with per-node weight (2 pi)^N / M, for (M, z) = lattice_generator(N,
    torus)."""
    M, z = lattice_generator(N, torus)
    pts = 2.0 * math.pi * (np.outer(np.arange(M), z) % M) / M
    return pts, (2.0 * math.pi) ** N / M


def rule_size(N: int, n_u: int, torus) -> float:
    """Nodes of the chart rule (n_u, torus) at N: n_u^N simplex nodes times
    M lattice points.  A float, so that a count too large to hold raises
    OverflowError at once."""
    return float(n_u) ** N * lattice_generator(N, torus)[0]


def chart_nodes(N: int, n_u: int, torus, max_chunk: int = 8192):
    """Chart-0 nodes and absolute dV weights, in vectorized chunks.

    ``torus`` is a ``Lattice`` or an int (``lattice_generator``).  Yields
    (w, weights) pairs with w complex of shape (B, N) and
    B <= max(max_chunk, n_u^N); the union of all chunks is the full
    simplex x torus product rule.
    """
    t, tw = simplex_rule(N, n_u)
    theta, theta_weight = torus_lattice(N, torus)
    radial = np.sqrt(t[:, 1:] / t[:, :1])
    scale = 2.0 ** (-N) * theta_weight
    n_simplex = radial.shape[0]
    group = max(1, max_chunk // n_simplex)
    for start in range(0, theta.shape[0], group):
        phase = np.exp(1j * theta[start:start + group])
        w = (radial[None, :, :] * phase[:, None, :]).reshape(-1, N)
        weights = np.broadcast_to(tw * scale, (phase.shape[0], n_simplex)).ravel()
        yield w, weights


def witness_nodes(N: int, n_u: int, torus):
    """The ``chart_nodes`` rule moved by U [z_0 : z_1 : ... : z_N] =
    [z_0 : c z_N : ... : c z_1], c = e^{i pi / M} with M the lattice's
    points, an isometry of g_FS that reverses the stick order and shifts
    every torus angle by half a lattice step.  With the rule's weights
    each sum is Q(f o U), exact wherever the rule is, and no node is a
    node of the rule."""
    c = np.exp(1j * math.pi / lattice_generator(N, torus)[0])
    for w, weights in chart_nodes(N, n_u, torus):
        yield w[:, ::-1] * c, weights


def cpn_integral(func, N: int, n_u: int, torus) -> float:
    """int_{CP^N} func dV with func acting on (B, N) complex chart batches.

    Each ``chart_nodes`` chunk is summed with one ``np.dot``, in chunk
    order, which fixes the bits.
    """
    total = 0.0
    for w, weights in chart_nodes(N, n_u, torus):
        total += float(np.dot(weights, np.asarray(func(w), dtype=float)))
    return total


# The ladder of ``adaptive_cpn_integral``: the rules exact for degree 3,
# the highest degree of its integrands (phi^3), and 4.
ADAPTIVE_ORDERS = (exact_orders(3), exact_orders(4))


def adaptive_cpn_integral(func, N: int, tol: float):
    """int_{CP^N} func dV on both rules of ``ADAPTIVE_ORDERS``.

    Returns (value, error_estimate): the second rule's value and its
    relative difference from the first.  Both rules are exact for degree
    <= 3, so their agreement certifies only such integrands, and for one
    of higher degree the estimate bounds nothing.  The ladder is fixed:
    ``tol``, the agreement the caller asks for, stops nothing, and a
    caller counts the result as converged when error_estimate < tol.
    """
    coarse, fine = (cpn_integral(func, N, *orders)
                    for orders in ADAPTIVE_ORDERS)
    return fine, abs(fine - coarse) / max(abs(fine), abs(coarse), 1e-30)
