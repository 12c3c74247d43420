"""First and second derivatives of geometry along g(s) = (1 + s phi) g_FS.

``closed_form_derivative`` evaluates the pointwise formulas for the
s-derivatives at s = 0 of the inverse metric, Christoffel symbols, Riemann
and Ricci tensors, scalar curvature, volume density, and the Laplacian on a
fixed test function.  ``fd_derivative`` recomputes each quantity from the
geometry of g(s) at stencil values of s with Richardson-extrapolated central
differences, giving an independent oracle.  A second oracle checks the
geometry of (1 + s phi) g_FS at fixed s against the classical conformal
change formulas for g~ = e^{2u} g.

Every formula coefficient is data (a Fraction) so single-coefficient
mutations can be injected and must be detected by the suite.

The two second-order formulas carry gradient cross terms:

    (Delta u)'' = 2 phi^2 Delta u - 2(n-2) phi <grad phi, grad u>
    Ric''       = (phi Delta phi - ((n-4)/2) |grad phi|^2) g
                  + (n-2) phi Hess phi + (3(n-2)/2) dphi o dphi

Both are forced by the Leibniz expansion in the (independently verified)
first-order pieces and are confirmed by both oracles; variants that drop the
gradient terms fail the suite (see ``gradient_free_second_order_coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charts import sample_w
from .eigenfunctions import EigenFunction, HermitianForm, phi_jet_batch, special_phi
from .geometry import (GeometryJet, Tau, curvature_batch, curvature_from_arrays,
                       einstein_tau, hessian_and_laplacian, metric_arrays)
from .jets import Jet

QUANTITIES = (
    ("inverse", 1), ("christoffel", 1), ("riemann", 1), ("scalar", 1),
    ("volume_density", 1), ("laplacian", 1),
    ("inverse", 2), ("christoffel", 2), ("laplacian", 2), ("ricci", 2),
)


class PositivityError(RuntimeError):
    """The stencil left the cone of positive-definite metrics."""


def default_coefficients(n: int) -> dict:
    """Formula coefficients, keyed by (quantity, order) then coefficient name."""
    f = Fraction
    return {
        ("inverse", 1): {"scale": f(-1)},
        ("christoffel", 1): {"sym": f(1, 2), "raise": f(-1, 2)},
        ("riemann", 1): {"coef": f(1, 2)},
        ("scalar", 1): {"lap": f(-(n - 1)), "phi": f(-n, 2)},
        ("volume_density", 1): {"coef": f(n, 2)},
        ("laplacian", 1): {"lap": f(-1), "grad": f(n - 2, 2)},
        ("inverse", 2): {"coef": f(2)},
        ("christoffel", 2): {"coef": f(-1)},
        ("laplacian", 2): {"lap": f(2), "grad": f(-2 * (n - 2))},
        ("ricci", 2): {"g_lap": f(1), "g_grad": f(-(n - 4), 2),
                       "hess": f(n - 2), "grad_grad": f(3 * (n - 2), 2)},
    }


def gradient_free_second_order_coefficients(n: int) -> dict:
    """The uncorrected variants of the two second-order formulas.

    Kept only so the suite can demonstrate that the finite-difference oracle
    rejects them: the true derivatives carry the extra gradient terms (see
    ``default_coefficients``), which these variants drop.
    """
    f = Fraction
    return {
        ("laplacian", 2): {"lap": f(2), "grad": f(0)},
        ("ricci", 2): {"g_lap": f(1), "g_grad": f(-(n - 2), 2),
                       "hess": f(n - 2), "grad_grad": f(n - 2)},
    }


@dataclass
class VariationPointData:
    """Everything the closed forms need at a batch of sample points."""

    n: int
    tau: float
    geom: GeometryJet
    phi: Jet
    phi_hess: np.ndarray      # covariant Hessian (B, D, D)
    phi_lap: np.ndarray       # (B,)
    u: Jet | None = None
    u_hess: np.ndarray | None = None
    u_lap: np.ndarray | None = None

    @property
    def grad_sq(self):
        return np.einsum("bij,bi,bj->b", self.geom.g_inv, self.phi.grad, self.phi.grad)


def prepare_point_data(N: int, w: np.ndarray, phi: EigenFunction,
                       u_form: HermitianForm | None = None,
                       tau: Tau | None = None) -> VariationPointData:
    geom = curvature_batch(w)
    pj = phi.jet_batch(0, w)
    p_hess, p_lap = hessian_and_laplacian(pj, geom)
    data = VariationPointData(
        n=2 * N,
        tau=(tau or einstein_tau(N)).tau,
        geom=geom, phi=pj, phi_hess=p_hess, phi_lap=p_lap)
    if u_form is not None:
        uj = phi_jet_batch(u_form, 0, w)
        data.u = uj
        data.u_hess, data.u_lap = hessian_and_laplacian(uj, geom)
    return data


def default_test_function(N: int) -> HermitianForm:
    """A fixed generic Hermitian form whose phi serves as the test function u."""
    m = N + 1
    mat = np.zeros((m, m), dtype=complex)
    for i in range(m):
        mat[i, i] = i + 1.0
    mat[0, 1] = 1.0 + 0.5j
    mat[1, 0] = 1.0 - 0.5j
    if m > 2:
        mat[0, 2] = -0.75j
        mat[2, 0] = 0.75j
    return HermitianForm(mat)


# ---------------------------------------------------------------------------
# closed forms


def closed_form_derivative(quantity: str, order: int, data: VariationPointData,
                           coeffs: dict | None = None) -> np.ndarray:
    """Evaluate the closed-form s-derivative at s = 0, batched over points."""
    c = (coeffs or default_coefficients(data.n))[(quantity, order)]
    geom = data.geom
    phi = data.phi
    d = geom.g.shape[-1]
    eye = np.eye(d)
    key = (quantity, order)
    if key == ("inverse", 1):
        return float(c["scale"]) * phi.val[:, None, None] * geom.g_inv
    if key == ("christoffel", 1):
        sym = (np.einsum("bi,jk->bkij", phi.grad, eye)
               + np.einsum("bj,ik->bkij", phi.grad, eye))
        grad_up = np.einsum("bkl,bl->bk", geom.g_inv, phi.grad)
        lower = np.einsum("bk,bij->bkij", grad_up, geom.g)
        return float(c["sym"]) * sym + float(c["raise"]) * lower
    if key == ("riemann", 1):
        hess = data.phi_hess
        hess_up = np.einsum("blm,bmj->blj", geom.g_inv, hess)
        t1 = np.einsum("bik,jl->blijk", hess, eye)
        t2 = np.einsum("bjk,il->blijk", hess, eye)
        t3 = np.einsum("blj,bik->blijk", hess_up, geom.g)
        t4 = np.einsum("bli,bjk->blijk", hess_up, geom.g)
        return float(c["coef"]) * (t1 - t2 + t3 - t4)
    if key == ("scalar", 1):
        return (float(c["lap"]) * data.phi_lap
                + float(c["phi"]) / data.tau * phi.val)
    if key == ("volume_density", 1):
        dens = np.sqrt(np.linalg.det(geom.g))
        return float(c["coef"]) * phi.val * dens
    if key == ("laplacian", 1):
        cross = np.einsum("bij,bi,bj->b", geom.g_inv, phi.grad, data.u.grad)
        return (float(c["lap"]) * phi.val * data.u_lap
                + float(c["grad"]) * cross)
    if key == ("inverse", 2):
        return float(c["coef"]) * (phi.val ** 2)[:, None, None] * geom.g_inv
    if key == ("christoffel", 2):
        sym = (np.einsum("bi,jk->bkij", phi.grad, eye)
               + np.einsum("bj,ik->bkij", phi.grad, eye))
        grad_up = np.einsum("bkl,bl->bk", geom.g_inv, phi.grad)
        lower = np.einsum("bk,bij->bkij", grad_up, geom.g)
        return float(c["coef"]) * phi.val[:, None, None, None] * (sym - lower)
    if key == ("laplacian", 2):
        cross = np.einsum("bij,bi,bj->b", geom.g_inv, phi.grad, data.u.grad)
        return (float(c["lap"]) * phi.val ** 2 * data.u_lap
                + float(c["grad"]) * phi.val * cross)
    if key == ("ricci", 2):
        scal_part = (float(c["g_lap"]) * phi.val * data.phi_lap
                     + float(c["g_grad"]) * data.grad_sq)
        outer = phi.grad[:, :, None] * phi.grad[:, None, :]
        return (scal_part[:, None, None] * geom.g
                + float(c["hess"]) * phi.val[:, None, None] * data.phi_hess
                + float(c["grad_grad"]) * outer)
    raise ValueError(f"unknown quantity {key}")


# ---------------------------------------------------------------------------
# the metric family and its finite-difference oracle


class VariationFamily:
    """The metric family (1 + s phi(x)) g_FS(x), with exact spatial jets."""

    def __init__(self, phi: EigenFunction, N: int):
        self.phi = phi
        self.N = N
        bound = phi.max_abs_bound()
        self.epsilon = 0.5 / bound if bound > 0 else float("inf")

    def metric_arrays_at(self, s: float, w: np.ndarray):
        g, dg, d2g = metric_arrays(w)
        pj = self.phi.jet_batch(0, w)
        c = 1.0 + s * pj.val
        cg = s * pj.grad
        ch = s * pj.hess
        gs = c[:, None, None] * g
        dgs = (c[:, None, None, None] * dg
               + np.einsum("bk,bij->bijk", cg, g))
        d2gs = (c[:, None, None, None, None] * d2g
                + np.einsum("bk,bijl->bijkl", cg, dg)
                + np.einsum("bl,bijk->bijkl", cg, dg)
                + np.einsum("bkl,bij->bijkl", ch, g))
        return gs, dgs, d2gs

    def geometry_at(self, s: float, w: np.ndarray) -> GeometryJet:
        gs, dgs, d2gs = self.metric_arrays_at(s, w)
        if np.min(np.linalg.eigvalsh(gs)) <= 0.0:
            raise PositivityError(f"metric not positive definite at s={s}")
        return curvature_from_arrays(gs, dgs, d2gs)


def _extractor(quantity: str, family: VariationFamily, w: np.ndarray,
               u_jet: Jet | None):
    def value(s: float):
        geom = family.geometry_at(s, w)
        if quantity == "inverse":
            return geom.g_inv
        if quantity == "christoffel":
            return geom.Gamma
        if quantity == "riemann":
            return geom.Riem
        if quantity == "scalar":
            return geom.R
        if quantity == "ricci":
            return geom.Ric
        if quantity == "volume_density":
            return np.sqrt(np.linalg.det(geom.g))
        if quantity == "laplacian":
            return hessian_and_laplacian(u_jet, geom)[1]
        raise ValueError(f"unknown quantity {quantity}")

    return value


def fd_derivative(quantity: str, order: int, family: VariationFamily,
                  w: np.ndarray, u_jet: Jet | None = None,
                  step: float = 1e-2) -> np.ndarray:
    """Richardson-extrapolated central s-derivative at s = 0; O(step^4)."""
    value = _extractor(quantity, family, w, u_jet)
    if order == 1:
        def d1(h):
            return (value(h) - value(-h)) / (2.0 * h)

        return (4.0 * d1(step / 2) - d1(step)) / 3.0
    if order == 2:
        center = value(0.0)

        def d2(h):
            return (value(h) - 2.0 * center + value(-h)) / h ** 2

        return (4.0 * d2(step / 2) - d2(step)) / 3.0
    raise ValueError("order must be 1 or 2")


# ---------------------------------------------------------------------------
# the verification suite


@dataclass
class VariationReport:
    quantity: str
    order: int
    point_index: int
    closed_norm: float
    fd_norm: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool


def _per_point_max(arr: np.ndarray) -> np.ndarray:
    return np.max(np.abs(arr.reshape(arr.shape[0], -1)), axis=1)


def verify_lemma_suite(N: int, points: int, seed: int,
                       step: float = 1e-2, rel_tol: float = 1e-5,
                       abs_floor: float = 1e-9,
                       mutations: dict | None = None) -> list[VariationReport]:
    """Closed forms vs finite differences for all ten variation formulas.

    ``mutations`` maps (quantity, order) to coefficient overrides; the suite
    must fail on mutated formulas (mutation-sensitivity check).
    """
    if N < 2:
        raise ValueError("the variation suite requires N >= 2")
    if points < 1:
        raise ValueError("points must be >= 1")
    w = sample_w(N, points, seed)
    tau = einstein_tau(N)
    phi = EigenFunction(special_phi(N), N)
    u_form = default_test_function(N)
    data = prepare_point_data(N, w, phi, u_form, tau)
    family = VariationFamily(phi, N)
    coeffs = default_coefficients(2 * N)
    if mutations:
        for key, overrides in mutations.items():
            coeffs[key] = {**coeffs[key], **overrides}
    reports = []
    for quantity, order in QUANTITIES:
        closed = closed_form_derivative(quantity, order, data, coeffs)
        fd = fd_derivative(quantity, order, family, w, data.u, step)
        closed = np.asarray(closed, dtype=float).reshape(points, -1)
        fd = np.asarray(fd, dtype=float).reshape(points, -1)
        resid = _per_point_max(closed - fd)
        closed_n = _per_point_max(closed)
        fd_n = _per_point_max(fd)
        scale = np.maximum(np.maximum(closed_n, fd_n), abs_floor / rel_tol)
        for i in range(points):
            tol = max(abs_floor, rel_tol * scale[i])
            reports.append(VariationReport(
                quantity=quantity, order=order, point_index=i,
                closed_norm=float(closed_n[i]), fd_norm=float(fd_n[i]),
                abs_residual=float(resid[i]),
                rel_residual=float(resid[i] / scale[i]),
                tolerance=tol, passed=bool(resid[i] < tol)))
    return reports


def suite_passed(reports: list[VariationReport]) -> bool:
    return all(r.passed for r in reports)


def failing_quantities(reports: list[VariationReport]) -> set:
    return {(r.quantity, r.order) for r in reports if not r.passed}


# ---------------------------------------------------------------------------
# second oracle: classical conformal-change formulas at fixed s


def conformal_change_mismatch(N: int, points: int, seed: int,
                              s_values=(-0.1, -0.05, 0.05, 0.1)) -> float:
    """Max mismatch between family geometry and e^{2u} conformal formulas.

    u = (1/2) log(1 + s phi); compares Christoffel symbols, Ricci, and scalar
    curvature.  Both sides are derived independently: the family geometry
    differentiates the metric product directly, the conformal formulas use
    only base-metric data and derivatives of u.
    """
    w = sample_w(N, points, seed)
    n = 2 * N
    phi = EigenFunction(special_phi(N), N)
    family = VariationFamily(phi, N)
    base = curvature_batch(w)
    pj = phi.jet_batch(0, w)
    worst = 0.0
    for s in s_values:
        u = ((pj * s) + 1.0).log() * 0.5
        u_hess, u_lap = hessian_and_laplacian(u, base)
        du_up = np.einsum("bkl,bl->bk", base.g_inv, u.grad)
        du_sq = np.einsum("bk,bk->b", du_up, u.grad)
        eye = np.eye(2 * N)
        gamma_conf = (base.Gamma
                      + np.einsum("bj,ik->bkij", u.grad, eye)
                      + np.einsum("bi,jk->bkij", u.grad, eye)
                      - np.einsum("bk,bij->bkij", du_up, base.g))
        outer = u.grad[:, :, None] * u.grad[:, None, :]
        ric_conf = (base.Ric - (n - 2) * (u_hess - outer)
                    - (u_lap + (n - 2) * du_sq)[:, None, None] * base.g)
        e2u = 1.0 + s * pj.val
        scal_conf = (base.R - 2 * (n - 1) * u_lap - (n - 1) * (n - 2) * du_sq) / e2u
        direct = family.geometry_at(s, w)
        worst = max(worst,
                    float(np.max(np.abs(direct.Gamma - gamma_conf))),
                    float(np.max(np.abs(direct.Ric - ric_conf))),
                    float(np.max(np.abs(direct.R - scal_conf))))
    return worst
