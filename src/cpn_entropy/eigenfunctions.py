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
from .geometry import Tau, curvature_batch, hessian_and_laplacian
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

    def is_trace_free(self, tol: float = 0.0) -> bool:
        return abs(self.trace) <= tol

    def operator_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    def scaled(self, c: float) -> "HermitianForm":
        exact = None
        if self.exact is not None and isinstance(c, (int, Fraction)):
            cf = Fraction(c)
            exact = tuple(tuple((re * cf, im * cf) for re, im in row)
                          for row in self.exact)
        return HermitianForm(self.matrix * c, exact)


def _exact_from_int_matrices(re_mat, im_mat):
    n = len(re_mat)
    return tuple(tuple((Fraction(re_mat[i][j]), Fraction(im_mat[i][j]))
                       for j in range(n)) for i in range(n))


def _form_from_int(re_mat, im_mat) -> HermitianForm:
    m = np.array(re_mat, dtype=float) + 1j * np.array(im_mat, dtype=float)
    return HermitianForm(m, _exact_from_int_matrices(re_mat, im_mat))


def identity_form(N: int) -> HermitianForm:
    """A = I, inducing the constant function 1 (plumbing, not an eigenfunction)."""
    m = N + 1
    re = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    im = [[0] * m for _ in range(m)]
    return _form_from_int(re, im)


def zero_form(N: int) -> HermitianForm:
    m = N + 1
    zeros = [[0] * m for _ in range(m)]
    return _form_from_int(zeros, zeros)


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


def _homogeneous_jets(chart: int, w: np.ndarray) -> list[Jet]:
    from .geometry import coordinate_jets

    wj = coordinate_jets(w)
    b = w.shape[0]
    n = w.shape[1]
    z = []
    for idx in range(n + 1):
        if idx == chart:
            z.append(Jet.constant(np.ones(b, dtype=complex), 2 * n))
        else:
            pos = idx if idx < chart else idx - 1
            z.append(wj[pos])
    return z


def phi_jet_batch(form: HermitianForm, chart: int, w: np.ndarray) -> Jet:
    """Jet (value, gradient, Hessian) of phi_A over a batch of chart points."""
    w = np.asarray(w, dtype=complex)
    z = _homogeneous_jets(chart, w)
    m = form.size
    if m != w.shape[1] + 1:
        raise ValueError("form size does not match chart dimension")
    a = form.matrix
    num = None
    den = None
    for i in range(m):
        zi_c = z[i].conj()
        den_term = zi_c * z[i]
        den = den_term if den is None else den + den_term
        for j in range(m):
            if a[i, j] == 0:
                continue
            term = (zi_c * z[j]) * a[i, j]
            num = term if num is None else num + term
    if num is None:
        b, d = w.shape[0], 2 * w.shape[1]
        return Jet(np.zeros(b), np.zeros((b, d)), np.zeros((b, d, d)))
    return (num / den).real


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
    num = np.einsum("bi,ij,bj->b", np.conj(z), form.matrix, z)
    den = np.einsum("bi,bi->b", np.conj(z), z)
    return num.real / den.real


class EigenFunction:
    """A first-eigenspace eigenfunction with batched jets."""

    def __init__(self, form: HermitianForm, N: int):
        if form.size != N + 1:
            raise ValueError("form size must be N+1")
        if not form.is_trace_free(1e-12):
            raise ValueError("eigenfunctions require a trace-free form")
        self.form = form
        self.N = N

    def jet_batch(self, chart: int, w: np.ndarray) -> Jet:
        return phi_jet_batch(self.form, chart, w)

    def max_abs_bound(self) -> float:
        """sup |phi_A| <= largest |eigenvalue| of A (attained on CP^N)."""
        return self.form.operator_norm()


def verify_eigen(form: HermitianForm, tau: Tau, points: np.ndarray) -> float:
    """Max |Delta phi + phi/tau| over a batch of chart-0 points."""
    w = np.asarray(points)
    geom = curvature_batch(w)
    jet = phi_jet_batch(form, 0, w)
    _, lap = hessian_and_laplacian(jet, geom)
    return float(np.max(np.abs(lap + jet.val / tau.tau)))
