"""Fubini-Study geometry of CP^N in chart coordinates.

The metric is realized from the potential K(w) = log(1 + |w|^2) with the real
coordinate convention (x_1..x_N, y_1..y_N), w = x + iy, chosen so that the
chart-origin metric is the identity.  Writing H_ab = d^2 K / dw_a dwbar_b for
the Hermitian coefficient matrix, the real metric is the block matrix

    g = [[Re H, Im H], [-Im H, Re H]],

i.e. g(X, X) = sum_ab H_ab Z_a conj(Z_b) for X = (xi, eta), Z = xi + i eta
(verified against the horizontal pullback through the sphere lift).

Derivatives of g are propagated exactly with forward-mode jets of the closed
form H = I/sigma - wbar w^T / sigma^2, sigma = 1 + |w|^2.  Two independent
oracles cross-check the chain: nested dual numbers applied to the potential
itself (fourth-order exact), and Richardson-extrapolated finite differences.

Index conventions (batch axis b first):

    dg[b, i, j, k]        = d_k g_ij
    d2g[b, i, j, k, l]    = d_k d_l g_ij
    Gamma[b, k, i, j]     = Gamma^k_ij
    Riem[b, l, i, j, k]   = R_ijk^l = d_i Gamma^l_jk - d_j Gamma^l_ik
                            + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    Ric[b, j, k]          = sum_i Riem[b, i, i, j, k]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet, nested_variable


@dataclass
class GeometryJet:
    """Metric and curvature data at a batch of points (batch axis first)."""

    g: np.ndarray
    g_inv: np.ndarray
    Gamma: np.ndarray
    Riem: np.ndarray
    Ric: np.ndarray
    R: np.ndarray


@dataclass
class Tau:
    """The shrinker scale tau = n / (2R) of the Einstein normalization."""

    tau: float


# ---------------------------------------------------------------------------
# metric values and exact derivative arrays


def coordinate_jets(w: np.ndarray) -> list[Jet]:
    """Jets of the complex chart coordinates over the 2N real variables."""
    w = np.asarray(w, dtype=complex)
    _, n = w.shape
    d = 2 * n
    jets = []
    for a in range(n):
        direction = np.zeros(d, dtype=complex)
        direction[a] = 1.0
        direction[n + a] = 1.0j
        jets.append(Jet.variable(w[:, a], direction, d))
    return jets


def _hermitian_metric_jets(w: np.ndarray) -> list[list[Jet]]:
    """Jets of H_ab = delta_ab/sigma - wbar_a w_b/sigma^2."""
    wj = coordinate_jets(w)
    n = len(wj)
    sigma = None
    for a in range(n):
        term = wj[a].conj() * wj[a]
        sigma = term if sigma is None else sigma + term
    sigma = sigma + 1.0
    inv_s = sigma.reciprocal()
    inv_s2 = inv_s * inv_s
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            h = -(wj[a].conj() * wj[b]) * inv_s2
            if a == b:
                h = h + inv_s
            row.append(h)
        rows.append(row)
    return rows


def _assemble_real_blocks(hval, hgrad, hhess):
    """Real metric arrays from complex Hermitian data.

    ``hval (B,N,N)``, ``hgrad (B,N,N,D)``, ``hhess (B,N,N,D,D)`` complex.
    """
    b, n = hval.shape[0], hval.shape[1]
    d = 2 * n
    g = np.empty((b, d, d))
    dg = np.empty((b, d, d, d))
    d2g = np.empty((b, d, d, d, d))
    for arr, src in ((g, hval), (dg, hgrad), (d2g, hhess)):
        s_re = src.real
        s_im = src.imag
        arr[:, :n, :n] = s_re
        arr[:, n:, n:] = s_re
        arr[:, :n, n:] = s_im
        arr[:, n:, :n] = -s_im
    return g, dg, d2g


def metric_arrays(w: np.ndarray):
    """Exact (g, dg, d2g) at a batch of chart points, shapes per module doc."""
    h = _hermitian_metric_jets(w)
    n = len(h)
    b = h[0][0].val.shape[0]
    d = 2 * n
    hval = np.empty((b, n, n), dtype=complex)
    hgrad = np.empty((b, n, n, d), dtype=complex)
    hhess = np.empty((b, n, n, d, d), dtype=complex)
    for a in range(n):
        for c in range(n):
            hval[:, a, c] = h[a][c].val
            hgrad[:, a, c] = h[a][c].grad
            hhess[:, a, c] = h[a][c].hess
    return _assemble_real_blocks(hval, hgrad, hhess)


def metric_values(w: np.ndarray) -> np.ndarray:
    """Metric matrices g(w) only, shape (B, 2N, 2N); fast path, no jets."""
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    sigma = 1.0 + np.sum(w * np.conj(w), axis=1).real
    eye = np.eye(n)
    h = (eye[None, :, :] / sigma[:, None, None]
         - np.conj(w)[:, :, None] * w[:, None, :] / (sigma ** 2)[:, None, None])
    g = np.empty((b, 2 * n, 2 * n))
    g[:, :n, :n] = h.real
    g[:, n:, n:] = h.real
    g[:, :n, n:] = h.imag
    g[:, n:, :n] = -h.imag
    return g


# ---------------------------------------------------------------------------
# curvature assembly


def curvature_from_arrays(g, dg, d2g):
    """Full curvature stack from metric derivative arrays."""
    g_inv = np.linalg.inv(g)
    t = (dg.transpose(0, 2, 3, 1) + dg.transpose(0, 2, 1, 3)
         - dg.transpose(0, 3, 1, 2))
    gamma = 0.5 * np.einsum("bkl,blij->bkij", g_inv, t)
    dginv = -np.einsum("bka,bacm,bcl->bklm", g_inv, dg, g_inv)
    dt = (d2g.transpose(0, 2, 3, 1, 4) + d2g.transpose(0, 2, 1, 3, 4)
          - d2g.transpose(0, 3, 1, 2, 4))
    dgamma = (0.5 * np.einsum("bklm,blij->bmkij", dginv, t)
              + 0.5 * np.einsum("bkl,blijm->bmkij", g_inv, dt))
    a1 = dgamma.transpose(0, 2, 1, 3, 4)          # d_i Gamma^l_jk
    a2 = a1.transpose(0, 1, 3, 2, 4)              # d_j Gamma^l_ik
    quad1 = np.einsum("blim,bmjk->blijk", gamma, gamma)
    quad2 = quad1.transpose(0, 1, 3, 2, 4)
    riem = a1 - a2 + quad1 - quad2
    ric = np.einsum("biijk->bjk", riem)
    scal = np.einsum("bjk,bjk->b", g_inv, ric)
    return GeometryJet(g=g, g_inv=g_inv, Gamma=gamma, Riem=riem, Ric=ric, R=scal)


def curvature_batch(w: np.ndarray) -> GeometryJet:
    g, dg, d2g = metric_arrays(w)
    return curvature_from_arrays(g, dg, d2g)


# ---------------------------------------------------------------------------
# scalar-field covariant calculus


def covariant_hessian_arrays(grad, hess, gamma):
    """(nabla^2 u)_ij = d_i d_j u - Gamma^k_ij d_k u, batched."""
    return hess - np.einsum("bkij,bk->bij", gamma, grad)


def hessian_and_laplacian(jet: Jet, geom: GeometryJet):
    """Covariant Hessian (B, D, D) and Laplacian (B,) of a batched scalar jet.

    ``jet`` and ``geom`` must be taken at the same points in the same chart;
    the Laplacian is the trace of the Hessian against g_inv.
    """
    hess = covariant_hessian_arrays(jet.grad, jet.hess, geom.Gamma)
    return hess, np.einsum("bij,bij->b", geom.g_inv, hess)


# ---------------------------------------------------------------------------
# Einstein scale


class NormalizationError(RuntimeError):
    """Scalar curvature failed to be constant: normalization bug."""


def einstein_tau(N: int, samples: int = 20, seed: int = 0,
                 tol: float = 1e-9) -> Tau:
    """tau = n/(2R), with R checked constant over seeded sample points."""
    if N < 1:
        raise ValueError("N must be >= 1")
    from .charts import sample_w

    w = sample_w(N, max(samples, 20), seed)
    scal = curvature_batch(w).R
    spread = float(np.max(scal) - np.min(scal))
    if spread > tol * max(1.0, float(np.max(np.abs(scal)))):
        raise NormalizationError(
            f"scalar curvature varies by {spread:.3e} over sample points")
    n = 2 * N
    return Tau(tau=n / (2.0 * float(scal[0])))


# ---------------------------------------------------------------------------
# independent oracles for the metric derivative chain


def fd_metric_arrays(w: np.ndarray, step: float = 1e-4):
    """(dg, d2g) by Richardson-extrapolated central differences on g values."""
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    d = 2 * n
    xy = np.concatenate([w.real, w.imag], axis=1)

    def g_at(offsets):
        pts = xy + offsets
        return metric_values(pts[:, :n] + 1j * pts[:, n:])

    def d1(h):
        out = np.empty((b, d, d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            out[..., k] = (g_at(e) - g_at(-e)) / (2 * h)
        return out

    def d2(h):
        out = np.empty((b, d, d, d, d))
        g0 = g_at(np.zeros(d))
        for k in range(d):
            ek = np.zeros(d)
            ek[k] = h
            out[..., k, k] = (g_at(ek) - 2 * g0 + g_at(-ek)) / h ** 2
            for l in range(k + 1, d):
                el = np.zeros(d)
                el[l] = h
                mixed = (g_at(ek + el) - g_at(ek - el)
                         - g_at(-ek + el) + g_at(-ek - el)) / (4 * h ** 2)
                out[..., k, l] = mixed
                out[..., l, k] = mixed
        return out

    dg = (4.0 * d1(step / 2) - d1(step)) / 3.0
    d2g = (4.0 * d2(step / 2) - d2(step)) / 3.0
    return dg, d2g


def potential_metric_arrays(w_point: np.ndarray):
    """(g, dg, d2g) at a single point from nested duals on K = log(1+|w|^2).

    Fourth-order exact and structurally independent of the jet path: it
    differentiates the potential, not the closed-form metric components.
    """
    w_point = np.asarray(w_point, dtype=complex)
    n = w_point.shape[0]
    d = 2 * n
    xy = np.concatenate([w_point.real, w_point.imag])

    coords = [nested_variable(xy[c], c, d) for c in range(d)]
    sigma = None
    for c in range(d):
        sq = coords[c] * coords[c]
        sigma = sq if sigma is None else sigma + sq
    k = (sigma + 1.0).log()

    k2 = np.empty((d, d))
    k3 = np.empty((d, d, d))
    k4 = np.empty((d, d, d, d))
    for a in range(d):
        for c in range(d):
            cell = k.h[a][c]
            k2[a, c] = cell.v
            for e in range(d):
                k3[a, c, e] = cell.g[e]
                for f in range(d):
                    k4[a, c, e, f] = cell.h[e][f]

    def wirt(t, a, c):
        # d_a d_cbar K from real partials: for tensor t indexed by two real
        # slots first, remaining slots are coordinate derivatives.
        return 0.25 * (t[a, c] + t[n + a, n + c]) \
            + 0.25j * (t[a, n + c] - t[n + a, c])

    hval = np.empty((1, n, n), dtype=complex)
    hgrad = np.empty((1, n, n, d), dtype=complex)
    hhess = np.empty((1, n, n, d, d), dtype=complex)
    for a in range(n):
        for c in range(n):
            hval[0, a, c] = wirt(k2, a, c)
            hgrad[0, a, c] = wirt(k3, a, c)
            hhess[0, a, c] = wirt(k4, a, c)
    return _assemble_real_blocks(hval, hgrad, hhess)


# ---------------------------------------------------------------------------
# chart transitions as isometries


def transition_jacobian(w: np.ndarray, source: int, target: int):
    """Real Jacobian of the chart transition, plus the target coordinates."""
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    d = 2 * n
    wj = coordinate_jets(w)
    z = []
    for idx in range(n + 1):
        if idx == source:
            z.append(Jet.constant(np.ones(b, dtype=complex), d))
        else:
            pos = idx if idx < source else idx - 1
            z.append(wj[pos])
    pivot_inv = z[target].reciprocal()
    new = [z[idx] * pivot_inv for idx in range(n + 1) if idx != target]
    jac = np.empty((b, d, d))
    w_new = np.empty((b, n), dtype=complex)
    for m, jet in enumerate(new):
        w_new[:, m] = jet.val
        jac[:, m, :] = jet.grad.real
        jac[:, n + m, :] = jet.grad.imag
    return jac, w_new


def pullback_mismatch(w: np.ndarray, source: int, target: int) -> float:
    """Max deviation between g and the pullback of g along a chart change."""
    jac, w_new = transition_jacobian(w, source, target)
    g_src = metric_values(w)
    g_tgt = metric_values(w_new)
    pulled = np.einsum("bmi,bmn,bnj->bij", jac, g_tgt, jac)
    return float(np.max(np.abs(pulled - g_src)))
