"""Fubini-Study geometry of CP^N in chart coordinates.

The metric is realized from the potential K(w) = log(1 + |w|^2) with the real
coordinate convention (x_1..x_N, y_1..y_N), w = x + iy, chosen so that the
chart-origin metric is the identity.  Writing H_ab = d^2 K / dw_a dwbar_b for
the Hermitian coefficient matrix, the real metric is the block matrix

    g = [[Re H, Im H], [-Im H, Re H]],

i.e. g(X, X) = sum_ab H_ab Z_a conj(Z_b) for X = (xi, eta), Z = xi + i eta
(verified against the horizontal pullback through the sphere lift).

In the real coordinates X = (x, y) write Y = J X = (-y, x),
s = 1/(1 + |X|^2) and P = X X^T + Y Y^T.  Then g = s I - s^2 P, and
``metric_arrays`` writes dg and d2g from the closed forms of their
derivatives (see its docstring), with no jet and no complex array.  Two
independent oracles cross-check them, each on its own formula: nested dual
numbers applied to the potential itself (fourth-order exact,
``potential_metric_arrays``), and Richardson-extrapolated finite
differences of ``metric_values``, which evaluates the complex H.

Index conventions (batch axis b first):

    dg[b, i, j, k]        = d_k g_ij
    d2g[b, i, j, k, l]    = d_k d_l g_ij
    Gamma[b, k, i, j]     = Gamma^k_ij
    Riem[b, l, i, j, k]   = R_ijk^l = d_i Gamma^l_jk - d_j Gamma^l_ik
                            + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    Ric[b, j, k]          = sum_i Riem[b, i, i, j, k]
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .jets import Jet, nested_variable


@dataclass
class GeometryJet:
    """Metric and curvature data at a batch of points (batch axis first).

    ``Riem`` is None where only the Ricci kernel ``_ricci_rows`` ran."""

    g: np.ndarray
    g_inv: np.ndarray
    Gamma: np.ndarray
    Riem: np.ndarray
    Ric: np.ndarray
    R: np.ndarray


# ---------------------------------------------------------------------------
# metric values and exact derivative arrays


def coordinate_jets(w: np.ndarray) -> Jet:
    """Jet of the complex chart coordinates over the 2N real variables, of
    value shape (N,)."""
    w = np.asarray(w, dtype=complex)
    n = w.shape[1]
    return Jet.variable(w, np.hstack([np.eye(n), 1j * np.eye(n)]), 2 * n)


def homogeneous_jets(chart: int, w: np.ndarray) -> list[Jet]:
    """Jets of the N+1 homogeneous coordinates of chart points ``w``: the
    chart coordinates with the constant 1 inserted at index ``chart``."""
    coords = coordinate_jets(w)
    b, n = coords.val.shape
    wj = [coords[:, a] for a in range(n)]
    one = Jet.constant(np.ones(b, dtype=complex), 2 * n)
    return wj[:chart] + [one] + wj[chart:]


def _write_real_blocks(out, src):
    """Write [[Re H, Im H], [-Im H, Re H]] of complex (B, N, N, ...) data
    ``src`` into ``out`` of shape (B, 2N, 2N, ...)."""
    n = src.shape[1]
    s_re = src.real
    s_im = src.imag
    out[:, :n, :n] = s_re
    out[:, n:, n:] = s_re
    out[:, :n, n:] = s_im
    out[:, n:, :n] = -s_im


def _assemble_real_blocks(hval, hgrad, hhess):
    """Real (g, dg, d2g) from complex Hermitian data ``hval (B,N,N)``,
    ``hgrad (B,N,N,D)`` and ``hhess (B,N,N,D,D)``."""
    arrays = []
    for src in (hval, hgrad, hhess):
        b, n = src.shape[:2]
        arrays.append(np.empty((b, 2 * n, 2 * n) + src.shape[3:]))
        _write_real_blocks(arrays[-1], src)
    return tuple(arrays)


@functools.lru_cache(maxsize=None)
def _second_derivative_pattern(n: int):
    """(positions, values) in a flattened d2g row of the constant
    d_k d_l P_ij = d_ik d_jl + d_il d_jk + J_ik J_jl + J_il J_jk, where
    J = [[0, -I], [I, 0]] maps X to Y.  Entries where the terms cancel are
    left out."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    delta = np.eye(2 * n)
    jmat = np.block([[zero, -eye], [eye, zero]])
    pattern = sum(np.einsum(spec, a, a) for a in (delta, jmat)
                  for spec in ("ik,jl->ijkl", "il,jk->ijkl")).reshape(-1)
    at = np.flatnonzero(pattern)
    values = pattern[at]
    # the cache hands the same arrays to every call
    at.flags.writeable = values.flags.writeable = False
    return at, values


def metric_arrays(w: np.ndarray):
    """Exact (g, dg, d2g) at a batch of chart points, shapes per module doc.

    From the real closed form g = s I - s^2 P of the module doc, with
    d_k s = -2 s^2 X_k, d_k P_ij = d_ik X_j + X_i d_jk + J_ik Y_j + Y_i J_jk
    and the constant d_k d_l P_ij (``_second_derivative_pattern``):

        d_k g_ij     = (4 s^3 P_ij - 2 s^2 d_ij) X_k - s^2 d_k P_ij
        d_k d_l g_ij = 4 s^3 (d_k P_ij X_l + d_l P_ij X_k)
                       + d_ij (8 s^3 X_k X_l - 2 s^2 d_kl)
                       + P_ij (4 s^3 d_kl - 24 s^4 X_k X_l)
                       - s^2 d_k d_l P_ij.

    The first three terms of d2g are one product u @ v per row, over the
    2N + 2 columns u = [dP, I, P] of (i, j); the constant term is then
    subtracted at its at most 4 (2N)^2 entries, so d2g is the only (2N)^4
    array formed.  g and dg are elementwise.  The product is one gemm per
    row, so a row's bits do not depend on its batch, though they do depend
    on the BLAS kernel, as the curvature kernels' do.
    """
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    d = 2 * n
    x = np.concatenate([w.real, w.imag], axis=1)
    y = np.concatenate([-w.imag, w.real], axis=1)
    s = 1.0 / (1.0 + np.sum(x * x, axis=1))
    s2 = s * s
    s3 = s2 * s
    xx = x[:, :, None] * x[:, None, :]
    p = y[:, :, None] * y[:, None, :]
    p += xx
    g = p * -s2[:, None, None]
    g.reshape(b, d * d)[:, ::d + 1] += s[:, None]
    # u[(i, j)] = [d_0 P_ij, ..., d_(d-1) P_ij, d_ij, P_ij]; J is -1 at
    # (a, n + a) and 1 at (n + a, a)
    u = np.zeros((b, d * d, d + 2))
    dp = u[:, :, :d].reshape(b, d, d, d)
    np.einsum("biji->bij", dp)[...] = x[:, None, :]
    np.einsum("bijj->bij", dp)[...] += x[:, :, None]
    low, high = slice(None, n), slice(n, None)
    for rows, cols, sign in ((low, high, -1.0), (high, low, 1.0)):
        np.einsum("biji->bij", dp[:, rows, :, cols])[...] += sign * y[:, None, :]
        np.einsum("bijj->bij", dp[:, :, rows, cols])[...] += sign * y[:, :, None]
    u[:, ::d + 1, d] = 1.0
    u[:, :, d + 1] = p.reshape(b, d * d)
    coef = p * (4.0 * s3)[:, None, None]
    coef.reshape(b, d * d)[:, ::d + 1] -= 2.0 * s2[:, None]
    dg = np.einsum("bij,bk->bijk", coef, x)
    dg -= dp * s2[:, None, None, None]
    # v[m, (k, l)] = 4 s^3 (d_mk X_l + X_k d_ml), then the rows of d_ij, P_ij
    v = np.zeros((b, d + 2, d * d))
    x4 = x * (4.0 * s3)[:, None]
    vm = v[:, :d].reshape(b, d, d, d)
    np.einsum("bmml->bml", vm)[...] = x4[:, None, :]
    np.einsum("bmkm->bmk", vm)[...] += x4[:, None, :]
    xx = xx.reshape(b, d * d)
    np.multiply(xx, (8.0 * s3)[:, None], out=v[:, d])
    v[:, d, ::d + 1] -= 2.0 * s2[:, None]
    np.multiply(xx, (-24.0 * s2 * s2)[:, None], out=v[:, d + 1])
    v[:, d + 1, ::d + 1] += 4.0 * s3[:, None]
    d2g = np.matmul(u, v)
    at, pattern = _second_derivative_pattern(n)
    # one index array into the flat buffer is faster than a [:, at] pair
    flat = d2g.reshape(-1)
    flat[at + d ** 4 * np.arange(b)[:, None]] -= s2[:, None] * pattern
    return g, dg, d2g.reshape(b, d, d, d, d)


def metric_values(w: np.ndarray) -> np.ndarray:
    """Metric matrices g(w) only, shape (B, 2N, 2N), from the complex H of
    the module doc.  ``fd_metric_arrays`` differentiates these values, so
    they stay on H, not on ``metric_arrays``' real closed form."""
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    sigma = 1.0 + np.sum(w * np.conj(w), axis=1).real
    eye = np.eye(n)
    h = (eye[None, :, :] / sigma[:, None, None]
         - np.conj(w)[:, :, None] * w[:, None, :] / (sigma ** 2)[:, None, None])
    g = np.empty((b, 2 * n, 2 * n))
    _write_real_blocks(g, h)
    return g


# ---------------------------------------------------------------------------
# curvature assembly


def _christoffel_rows(g_inv, dg):
    """(t, Gamma) as (B, d, d^2) arrays: t[l, i, j] = d_i g_jl + d_j g_il -
    d_l g_ij and Gamma^k_ij = g^kl t_lij / 2."""
    b, d = g_inv.shape[:2]
    t = np.add(dg.transpose(0, 2, 3, 1), dg.transpose(0, 2, 1, 3),
               out=np.empty((b, d, d, d)))
    t -= dg.transpose(0, 3, 1, 2)
    t = t.reshape(b, d, d * d)
    gamma = g_inv @ t
    gamma *= 0.5
    return t, gamma


def _curvature_rows(g, dg, d2g):
    """(g_inv, Gamma, Riem, Ric, R) from metric derivative arrays.

    Every contraction is one ``np.matmul`` of C-contiguous arrays, one gemm
    per row, so every output row depends only on the same input row.
    """
    b, d = g.shape[:2]
    g_inv = np.linalg.inv(g)
    t, gamma = _christoffel_rows(g_inv, dg)
    # dginv[k, m, l] = d_m g^kl = -g^ka (d_m g_ac) g^cl, over a, then over c
    dginv = g_inv @ dg.transpose(0, 1, 3, 2).reshape(b, d, d * d)
    dginv = dginv.reshape(b, d * d, d) @ g_inv
    np.negative(dginv, out=dginv)
    # dt[l, m, i, j] = d_m t_lij
    dt = np.add(d2g.transpose(0, 2, 4, 3, 1), d2g.transpose(0, 2, 4, 1, 3),
                out=np.empty((b, d, d, d, d)))
    dt -= d2g.transpose(0, 3, 4, 1, 2)
    # x[l, i, j, k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk, where
    # d_m Gamma^k_ij = (g^kl d_m t_lij + d_m g^kl t_lij) / 2
    x = (g_inv @ dt.reshape(b, d, d ** 3)).reshape(dt.shape)
    del dt  # one (2N)^4 array fewer while dginv @ t is formed
    x += (dginv @ t).reshape(x.shape)
    x *= 0.5
    x += (gamma.reshape(b, d * d, d)
          @ gamma.reshape(b, d, d * d)).reshape(x.shape)
    riem = np.subtract(x, x.transpose(0, 1, 3, 2, 4))
    ric = np.einsum("biijk->bjk", riem)
    scal = np.einsum("bjk,bjk->b", g_inv, ric)
    return g_inv, gamma.reshape(b, d, d, d), riem, ric, scal


def _ricci_rows(g, dg, d2g):
    """(g_inv, Gamma, Ric, R) from metric derivative arrays, without Riem.

    Ric_jk = d_i Gamma^i_jk - d_j d_k (log det g) / 2
             + Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik,
    with d_i Gamma^i_jk = (g^il d_i t_ljk + d_i g^il t_ljk) / 2 and
    d_j d_k log det g = g^ab d_j d_k g_ab - tr(g^-1 d_j g g^-1 d_k g).
    d2g is the only (2N)^4 array: three products read it against vec(g^-1),
    viewed as (d^2, d^2) from each side and as (d, d^2, d), which needs no
    transposed copy because d2g is symmetric in its last two indices.  Every
    other product has d^3 entries, so the kernel takes O(d^4) flops where
    ``_curvature_rows`` takes O(d^5).  Gamma has the bits of
    ``_curvature_rows``' Gamma.  Every contraction is one ``np.matmul`` of
    C-contiguous arrays, so every output row depends only on the same input
    row.
    """
    b, d = g.shape[:2]
    g_inv = np.linalg.inv(g)
    t, gamma = _christoffel_rows(g_inv, dg)
    vec = g_inv.reshape(b, 1, d * d)
    vec_col = g_inv.reshape(b, d * d, 1)
    # p[k, j] = g^li d_i d_j g_kl, read as d2g[k, l, i, j] over (l, i);
    # g^il d_i t_ljk = p[k, j] + p[j, k] - q[j, k], q[j, k] = g^li d_l d_i g_jk
    p = (vec[:, None] @ d2g.reshape(b, d, d * d, d)).reshape(b, d, d)
    q = d2g.reshape(b, d * d, d * d) @ vec_col
    # s[j, k] = g^ab d_j d_k g_ab
    s = vec @ d2g.reshape(b, d * d, d * d)
    # m[a, c, j] = (g^-1 d_j g)_ac; tr(g^-1 d_j g g^-1 d_k g) = m[a, c, j]
    # m[c, a, k], over (c, a)
    m = g_inv @ dg.reshape(b, d, d * d)
    m_swap = m.reshape(b, d, d, d).transpose(0, 3, 2, 1).reshape(b, d, d * d)
    tr_mm = m_swap @ m.reshape(b, d * d, d)
    # d_i g^il = -g^lc (g^ai d_i g_ca), the inner sum over (a, i)
    div_inv = g_inv @ (dg.reshape(b, d, d * d) @ vec_col)
    np.negative(div_inv, out=div_inv)
    div_t = div_inv.reshape(b, 1, d) @ t
    # Gamma^i_ip Gamma^p_jk and Gamma^i_jp Gamma^p_ik, the last over (p, i)
    gamma4 = gamma.reshape(b, d, d, d)
    trace = np.einsum("biip->bp", gamma4).reshape(b, 1, d)
    gg_trace = trace @ gamma
    gamma_swap = gamma4.transpose(0, 2, 3, 1).reshape(b, d, d * d)
    gg = gamma_swap @ gamma.reshape(b, d * d, d)
    ric = np.add(p, p.transpose(0, 2, 1), out=np.empty((b, d, d)))
    ric -= q.reshape(b, d, d)
    ric += div_t.reshape(b, d, d)
    ric -= s.reshape(b, d, d)
    ric += tr_mm
    ric *= 0.5
    ric += gg_trace.reshape(b, d, d)
    ric -= gg
    scal = np.einsum("bjk,bjk->b", g_inv, ric)
    return g_inv, gamma4, ric, scal


def curvature_from_arrays(g, dg, d2g):
    """Full curvature stack from metric derivative arrays."""
    return GeometryJet(g, *_curvature_rows(g, dg, d2g))


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


# Largest spread of R, relative to max(1, |R|), that einstein_tau accepts.
_SCALAR_SPREAD_TOL = 1e-9


def einstein_tau(N: int, seed: int = 0) -> float:
    """tau = n/(2R), with R checked constant over 20 seeded sample points.

    R comes from the Ricci kernel ``_ricci_rows``: no Riemann tensor."""
    if N < 1:
        raise ValueError("N must be >= 1")
    from .charts import sample_w

    w = sample_w(N, 20, seed)
    scal = _ricci_rows(*metric_arrays(w))[3]
    spread = float(np.max(scal) - np.min(scal))
    if spread > _SCALAR_SPREAD_TOL * max(1.0, float(np.max(np.abs(scal)))):
        raise NormalizationError(
            f"scalar curvature varies by {spread:.3e} over sample points")
    n = 2 * N
    return n / (2.0 * float(scal[0]))


# ---------------------------------------------------------------------------
# independent oracles for the metric derivative chain


def fd_metric_arrays(w: np.ndarray):
    """(dg, d2g) by Richardson-extrapolated central differences on g values."""
    step = 1e-4
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

    Fourth-order exact and independent of ``metric_arrays``: it
    differentiates the potential log(1 + |w|^2) itself, never the closed
    form g = s I - s^2 P, so it stays an oracle for that form.
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
    z = homogeneous_jets(source, w)
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
