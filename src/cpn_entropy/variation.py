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
gradient terms fail the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charts import sample_w
from .eigenfunctions import HermitianForm, phi_jet_batch, special_phi
from .geometry import (GeometryJet, curvature_batch, curvature_from_arrays,
                       einstein_tau, hessian_and_laplacian, metric_arrays)
from .jets import Jet

QUANTITIES = (
    ("inverse", 1), ("christoffel", 1), ("riemann", 1), ("scalar", 1),
    ("volume_density", 1), ("laplacian", 1),
    ("inverse", 2), ("christoffel", 2), ("laplacian", 2), ("ricci", 2),
)

# A closed form passes at a point when its residual against finite differences
# is below LEMMA_REL_TOL times the larger norm, or _ABS_FLOOR if that is more.
LEMMA_REL_TOL = 1e-5
_ABS_FLOOR = 1e-9


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


@dataclass
class VariationPointData:
    """Everything the closed forms need at a batch of sample points."""

    tau: float
    geom: GeometryJet
    phi: Jet
    phi_hess: np.ndarray      # covariant Hessian (B, D, D)
    phi_lap: np.ndarray       # (B,)
    u: Jet                    # the test function of the Laplacian formulas
    u_lap: np.ndarray         # (B,)


def prepare_point_data(N: int, w: np.ndarray, form: HermitianForm,
                       u_form: HermitianForm) -> VariationPointData:
    geom = curvature_batch(w)
    pj = phi_jet_batch(form, 0, w)
    p_hess, p_lap = hessian_and_laplacian(pj, geom)
    uj = phi_jet_batch(u_form, 0, w)
    return VariationPointData(
        tau=einstein_tau(N), geom=geom, phi=pj, phi_hess=p_hess, phi_lap=p_lap,
        u=uj, u_lap=hessian_and_laplacian(uj, geom)[1])


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
                           coeffs: dict) -> np.ndarray:
    """Evaluate the closed-form s-derivative at s = 0, batched over points."""
    c = coeffs[(quantity, order)]
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
                     + float(c["g_grad"])
                     * np.einsum("bij,bi,bj->b", geom.g_inv, phi.grad, phi.grad))
        outer = phi.grad[:, :, None] * phi.grad[:, None, :]
        return (scal_part[:, None, None] * geom.g
                + float(c["hess"]) * phi.val[:, None, None] * data.phi_hess
                + float(c["grad_grad"]) * outer)
    raise ValueError(f"unknown quantity {key}")


# ---------------------------------------------------------------------------
# the metric family and its finite-difference oracle


def family_geometry(form: HermitianForm, s: float, w: np.ndarray) -> GeometryJet:
    """Geometry of (1 + s phi_A) g_FS at chart-0 points, from exact jets."""
    g, dg, d2g = metric_arrays(w)
    pj = phi_jet_batch(form, 0, w)
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
    if np.min(np.linalg.eigvalsh(gs)) <= 0.0:
        raise PositivityError(f"metric not positive definite at s={s}")
    return curvature_from_arrays(gs, dgs, d2gs)


def _extractor(quantity: str, form: HermitianForm, w: np.ndarray, u_jet: Jet):
    def value(s: float):
        geom = family_geometry(form, s, w)
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


def fd_derivative(quantity: str, order: int, form: HermitianForm,
                  w: np.ndarray, u_jet: Jet) -> np.ndarray:
    """Richardson-extrapolated central s-derivative at s = 0 along
    (1 + s phi_A) g_FS; O(step^4).  ``u_jet`` is the test function of the
    Laplacian derivatives; the other quantities ignore it."""
    step = 1e-2
    value = _extractor(quantity, form, w, u_jet)
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


def _per_point_max(arr: np.ndarray) -> np.ndarray:
    return np.max(np.abs(arr.reshape(arr.shape[0], -1)), axis=1)


def _suite_oracle(N: int, points: int, seed: int):
    """Point data and the ten finite-difference derivatives, keyed by
    (quantity, order), at ``points`` seeded sample points."""
    if N < 2:
        raise ValueError("the variation suite requires N >= 2")
    if points < 1:
        raise ValueError("points must be >= 1")
    w = sample_w(N, points, seed)
    form = special_phi(N)
    data = prepare_point_data(N, w, form, default_test_function(N))
    fds = {key: fd_derivative(*key, form, w, data.u) for key in QUANTITIES}
    return data, fds


def _compare(closed: np.ndarray, fd: np.ndarray) -> tuple[float, bool]:
    """A closed form against ``fd`` over all points: the worst residual
    relative to the larger norm, and whether every point passes."""
    points = fd.shape[0]
    closed = np.asarray(closed, dtype=float).reshape(points, -1)
    fd = np.asarray(fd, dtype=float).reshape(points, -1)
    resid = _per_point_max(closed - fd)
    scale = np.maximum(np.maximum(_per_point_max(closed), _per_point_max(fd)),
                       _ABS_FLOOR / LEMMA_REL_TOL)
    tol = np.maximum(_ABS_FLOOR, LEMMA_REL_TOL * scale)
    return float(np.max(resid / scale)), bool(np.all(resid < tol))


def verify_lemma_suite(N: int, points: int, seed: int,
                       mutations: dict | None) -> dict:
    """Closed forms vs finite differences for all ten variation formulas,
    as {(quantity, order): (worst relative residual, passed)} in
    ``QUANTITIES`` order.

    ``mutations`` maps (quantity, order) to coefficient overrides; the suite
    must fail on mutated formulas (mutation-sensitivity check).
    """
    data, fds = _suite_oracle(N, points, seed)
    coeffs = default_coefficients(2 * N)
    for key, overrides in (mutations or {}).items():
        coeffs[key] = {**coeffs[key], **overrides}
    return {key: _compare(closed_form_derivative(*key, data, coeffs), fds[key])
            for key in QUANTITIES}


def undetected_mutations(N: int, points: int, seed: int) -> list[str]:
    """Single-coefficient mutations (coefficient + 1/2) that the suite at
    ``points`` points passes, as ``QUANTITY:ORDER:NAME``.

    A closed form reads only its own coefficients, so each mutation is
    checked against its own formula, and the finite differences are
    computed once for all of them.
    """
    data, fds = _suite_oracle(N, points, seed)
    undetected = []
    for key, coefs in default_coefficients(2 * N).items():
        for name, value in coefs.items():
            mutated = {key: {**coefs, name: value + Fraction(1, 2)}}
            closed = closed_form_derivative(*key, data, mutated)
            if _compare(closed, fds[key])[1]:
                undetected.append(f"{key[0]}:{key[1]}:{name}")
    return undetected


# ---------------------------------------------------------------------------
# second oracle: classical conformal-change formulas at fixed s


def conformal_change_mismatch(N: int, points: int, seed: int) -> float:
    """Max mismatch between family geometry and e^{2u} conformal formulas.

    u = (1/2) log(1 + s phi) for s = -0.1, -0.05, 0.05, 0.1; compares
    Christoffel symbols, Ricci, and scalar curvature.  Both sides are
    derived independently: the family geometry differentiates the metric
    product directly, the conformal formulas use only base-metric data and
    derivatives of u.
    """
    w = sample_w(N, points, seed)
    n = 2 * N
    form = special_phi(N)
    base = curvature_batch(w)
    pj = phi_jet_batch(form, 0, w)
    worst = 0.0
    for s in (-0.1, -0.05, 0.05, 0.1):
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
        direct = family_geometry(form, s, w)
        worst = max(worst,
                    float(np.max(np.abs(direct.Gamma - gamma_conf))),
                    float(np.max(np.abs(direct.Ric - ric_conf))),
                    float(np.max(np.abs(direct.R - scal_conf))))
    return worst
