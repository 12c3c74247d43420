"""First nontrivial Laplace eigenspace of (CP^N, g_FS).

Every trace-free Hermitian (N+1)x(N+1) matrix A induces a real function

    phi_A([z]) = (z* A z) / |z|^2,

and these span the eigenspace of the smallest nonzero eigenvalue 1/tau,
of dimension N(N+2).  Forms are also carried with exact Gaussian-rational
entries so that downstream moment computations stay in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charts import ChartPoint
# curvature_batch is bound here only for perfbench's tracer test, which
# checks that the tracer patches every module binding it.
from .geometry import (GeometryJet, curvature_batch,  # noqa: F401
                       hessian_and_laplacian)
from .jets import Jet


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Hermitian coefficient matrix; ``exact`` carries (re, im) Fractions."""

    matrix: np.ndarray = field(repr=False)
    exact: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix must be Hermitian")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def _exact_from_int_matrices(re_mat, im_mat):
    n = len(re_mat)
    return tuple(tuple((Fraction(re_mat[i][j]), Fraction(im_mat[i][j]))
                       for j in range(n)) for i in range(n))


def _form_from_int(re_mat, im_mat) -> HermitianForm:
    m = np.array(re_mat, dtype=float) + 1j * np.array(im_mat, dtype=float)
    return HermitianForm(m, _exact_from_int_matrices(re_mat, im_mat))


def basis_first_eigenspace(N: int) -> list[HermitianForm]:
    """N(N+2) trace-free forms: off-diagonal pairs plus diagonal differences."""
    if N < 1:
        raise ValueError("N must be >= 1")
    m = N + 1
    zeros = lambda: [[0] * m for _ in range(m)]
    forms = []
    for j in range(m):
        for k in range(j + 1, m):
            re = zeros()
            re[j][k] = re[k][j] = 1
            forms.append(_form_from_int(re, zeros()))
            im = zeros()
            im[j][k], im[k][j] = 1, -1
            forms.append(_form_from_int(zeros(), im))
    for j in range(m - 1):
        re = zeros()
        re[j][j], re[j + 1][j + 1] = 1, -1
        forms.append(_form_from_int(re, zeros()))
    assert len(forms) == N * (N + 2)
    return forms


def special_phi(N: int) -> HermitianForm:
    """The distinguished unstable direction: all-ones off-diagonal 3x3 block.

    Encodes z_1 zbar_2 + zbar_1 z_2 + z_2 zbar_3 + zbar_2 z_3
    + z_3 zbar_1 + zbar_3 z_1 on C^{N+1}, zero-padded for N > 2.
    """
    if N < 2:
        raise ValueError("special_phi requires N >= 2")
    m = N + 1
    re = [[0] * m for _ in range(m)]
    for j in range(3):
        for k in range(3):
            if j != k:
                re[j][k] = 1
    im = [[0] * m for _ in range(m)]
    return _form_from_int(re, im)


# ---------------------------------------------------------------------------
# evaluation


def phi_jet_batch(form: HermitianForm, chart: int, w: np.ndarray) -> Jet:
    """Jet (value, gradient, Hessian) of phi_A over a batch of chart points.

    phi_A = num/den in the real chart coordinates X = (x, y).  The
    homogeneous coordinates z = e_chart + E X are linear in X, so
    num = z*Az has gradient 2 Re(z*A E) and the constant Hessian
    2 Re(E^H A E), and den = 1 + |X|^2 has gradient 2X and Hessian 2I.
    The jet quotient rule divides them.
    """
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    m = form.size
    if m != n + 1:
        raise ValueError("form size does not match chart dimension")
    a = form.matrix
    z_re = np.insert(w.real, chart, 1.0, axis=1)
    z_im = np.insert(w.imag, chart, 0.0, axis=1)
    # v = z*A, row by row of A: v_k = sum_i conj(z_i) A_ik
    v_re = np.zeros((b, m))
    v_im = np.zeros((b, m))
    for i in np.flatnonzero(a.any(axis=1)):
        v_re += z_re[:, i, None] * a[i].real + z_im[:, i, None] * a[i].imag
        v_im += z_re[:, i, None] * a[i].imag - z_im[:, i, None] * a[i].real
    num = np.sum(v_re * z_re - v_im * z_im, axis=1)
    chart_axes = [i for i in range(m) if i != chart]
    grad = 2.0 * np.concatenate([v_re[:, chart_axes], -v_im[:, chart_axes]],
                                axis=1)
    e_a_e = a[np.ix_(chart_axes, chart_axes)]
    hess = 2.0 * np.block([[e_a_e.real, -e_a_e.imag],
                           [e_a_e.imag, e_a_e.real]])
    x = np.concatenate([w.real, w.imag], axis=1)
    shape = (b, 2 * n, 2 * n)
    den = Jet(1.0 + np.sum(x * x, axis=1), 2.0 * x,
              np.broadcast_to(2.0 * np.eye(2 * n), shape))
    return Jet(num, grad, np.broadcast_to(hess, shape)) / den


def phi_value_at(form: HermitianForm, p: ChartPoint) -> float:
    """phi_A at one point through its sphere lift; the oracle for the batches."""
    z = p.lift()
    return float(np.real(np.vdot(z, form.matrix @ z)))


def phi_values_batch(form: HermitianForm, chart: int, w: np.ndarray) -> np.ndarray:
    """Values of phi_A over a batch of chart points; no derivative payload."""
    w = np.asarray(w, dtype=complex)
    b, n = w.shape
    z = np.empty((b, n + 1), dtype=complex)
    z[:, :chart] = w[:, :chart]
    z[:, chart] = 1.0
    z[:, chart + 1:] = w[:, chart:]
    # z* A z in two steps, (z* A) then its row-wise product with z
    num = np.einsum("bj,bj->b", np.conj(z) @ form.matrix, z)
    den = np.einsum("bi,bi->b", np.conj(z), z)
    return num.real / den.real


def verify_eigen(form: HermitianForm, tau: float, w: np.ndarray,
                 geom: GeometryJet) -> float:
    """Max |Delta phi + phi/tau| over a batch of chart-0 points ``w`` whose
    geometry is ``geom = curvature_batch(w)``."""
    jet = phi_jet_batch(form, 0, w)
    _, lap = hessian_and_laplacian(jet, geom)
    return float(np.max(np.abs(lap + jet.val / tau)))
