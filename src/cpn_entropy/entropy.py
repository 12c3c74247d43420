"""Stability operators and entropy variations at the Einstein point.

For a conformal perturbation h = psi * g_FS the module evaluates:

* the auxiliary potential v solving (Delta + 1/(2 tau)) v = div div h with
  zero mean, which equals 2 psi when psi is a first eigenfunction;
* the stability operator
      Ntilde(h) = (1/2) Delta h + Rm(h, *) + div* div h + (1/2) Hess v,
  assembled literally term by term in chart coordinates (it vanishes
  pointwise for h = phi g_FS), and N(h) = Ntilde(h) - (Hbar/(2 n tau)) g;
* first variations tau', V', Hbar' along g(s) = g_FS + s h;
* the second variation (tau/V) int <N(h), h> dV (zero for the eigen
  direction) and the third variation
      (n-2) (4 pi tau)^{-n/2} int phi^3 dV,
  with the integral supplied exactly by the moments engine and
  cross-checked by chart quadrature;
* ``certify``, which gates every stage against the one table
  ``CERTIFICATE_CHECKS`` and packages the records and the verdict into a
  machine-checkable instability certificate.

Documentation note: on trace-free divergence-free tensors the stability
operator satisfies 2 N = lap_L - 1/tau, where lap_L is the Lichnerowicz
Laplacian; nothing here uses that identity, since the conformal direction
is handled directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .charts import sample_w
from .eigenfunctions import (HermitianForm, phi_jet_batch, phi_values_batch,
                             special_phi, verify_eigen)
from .geometry import (GeometryJet, _curvature_rows, curvature_batch,
                       einstein_tau, hessian_and_laplacian, metric_arrays)
from .jets import Jet
from .moments import cpn_average, cpn_volume_closed_form
from .quadrature import adaptive_cpn_integral, chart_nodes, cpn_integral, level_orders
from .report import check, gate


class NotEigenError(RuntimeError):
    """psi fails the eigen-equation, so v = 2 psi is not valid."""


@dataclass
class ConformalPerturbation:
    """h = psi * g_FS with psi = phi_A for a Hermitian form A."""

    form: HermitianForm
    N: int

    def __post_init__(self):
        if self.form.size != self.N + 1:
            raise ValueError("form size must be N+1")

    @classmethod
    def special(cls, N: int) -> "ConformalPerturbation":
        return cls(special_phi(N), N)

    def psi_jet(self, w: np.ndarray):
        return phi_jet_batch(self.form, 0, w)

    def psi_values(self, w: np.ndarray) -> np.ndarray:
        return phi_values_batch(self.form, 0, w)

    def exact_average(self, q: int) -> Fraction:
        """Average of psi^q over CP^N, exact (q in {1, 2, 3})."""
        return cpn_average(q, self.form, self.N)

    def trace_mean_exact(self) -> Fraction:
        """Hbar = mean of tr_g h = n * avg(psi), exact."""
        return 2 * self.N * self.exact_average(1)

    def scaled(self, c) -> "ConformalPerturbation":
        return ConformalPerturbation(self.form.scaled(c), self.N)

    def eigen_residual(self, points: int = 50, seed: int = 7) -> float:
        return verify_eigen(self.form, einstein_tau(self.N),
                            sample_w(self.N, points, seed))


# ---------------------------------------------------------------------------
# v of h


def v_of(h: ConformalPerturbation, points: int = 50, seed: int = 7,
         tol: float = 1e-8) -> float:
    """Residual of v = 2 psi in (Delta + 1/(2 tau)) v = div div h, zero mean.

    For h = psi g_FS, div div h = Delta psi, and v = 2 psi satisfies the
    equation exactly when Delta psi = -psi/tau; the returned residual is the
    max over sample points of |(Delta + 1/(2 tau))(2 psi) - Delta psi|.
    """
    tau = einstein_tau(h.N)
    w = sample_w(h.N, points, seed)
    jet = h.psi_jet(w)
    _, lap = hessian_and_laplacian(jet, curvature_batch(w))
    resid = float(np.max(np.abs(2.0 * lap + jet.val / tau - lap)))
    if resid > tol:
        raise NotEigenError(
            f"eigen residual {resid:.3e} exceeds {tol:g}; v = 2 psi invalid")
    return resid


# ---------------------------------------------------------------------------
# the stability operators, assembled literally


def _n_tilde(psi, geom) -> np.ndarray:
    """Ntilde(psi g)_ij, all four terms explicit, from the jet of psi and the
    geometry at the same chart-0 points."""
    psi_hess, psi_lap = hessian_and_laplacian(psi, geom)
    g, g_inv = geom.g, geom.g_inv
    h_ij = psi.val[:, None, None] * g

    # (1/2)(Delta h)_ij: the rough Laplacian of psi g is (Delta psi) g.
    term_lap = 0.5 * psi_lap[:, None, None] * g
    # Rm(h,*)_ij = R_kij^l g^{km} h_{ml}
    term_rm = np.einsum("blkij,bkm,bml->bij", geom.Riem, g_inv, h_ij)
    # -(1/2) g^{kl} (grad_i grad_l h_kj + grad_j grad_l h_ki);
    # grad_i grad_l h_kj = (Hess psi)_il g_kj for conformal h.
    term_div = -0.5 * (np.einsum("bkl,bil,bkj->bij", g_inv, psi_hess, g)
                       + np.einsum("bkl,bjl,bki->bij", g_inv, psi_hess, g))
    # the last term is (1/2) Hess v with v = 2 psi
    return term_lap + term_rm + term_div + psi_hess


def n_tilde_batch(h: ConformalPerturbation, w: np.ndarray,
                  geom=None) -> np.ndarray:
    """Ntilde(h)_ij over a batch of chart-0 points."""
    w = np.asarray(w, dtype=complex)
    if geom is None:
        geom = curvature_batch(w)
    return _n_tilde(h.psi_jet(w), geom)


def _trace_shift(h: ConformalPerturbation) -> float:
    """Hbar / (2 n tau): N(h) = Ntilde(h) - _trace_shift(h) g."""
    n = 2 * h.N
    tau = einstein_tau(h.N)
    hbar = float(h.trace_mean_exact())
    return hbar / (2 * n * tau)


def n_operator_batch(h: ConformalPerturbation, w: np.ndarray,
                     geom=None) -> np.ndarray:
    """N(h) = Ntilde(h) - (Hbar / (2 n tau)) g."""
    w = np.asarray(w, dtype=complex)
    if geom is None:
        geom = curvature_batch(w)
    return n_tilde_batch(h, w, geom) - _trace_shift(h) * geom.g


def n_tilde_max(h: ConformalPerturbation, points: int = 100,
                seed: int = 7) -> float:
    w = sample_w(h.N, points, seed)
    return float(np.max(np.abs(n_tilde_batch(h, w))))


# ---------------------------------------------------------------------------
# quadrature passes

# Central-difference step of the Richardson-extrapolated Hbar' estimate.
_HBAR_FD_STEP = 1e-3


def _entropy_quad_levels(N: int) -> tuple[int, int]:
    """Fixed (simplex, torus) orders for geometry-heavy integrals.

    These integrals either verify quantities that vanish pointwise (the
    nu'' integrand) or are exactly integrated at low order (psi against the
    constant scalar curvature), so modest orders suffice; runtime scales as
    (n_u * n_theta)^N.
    """
    return {2: (8, 8), 3: (4, 5)}.get(N, (3, 4))


def _scalar_quad_levels(N: int) -> tuple[int, int]:
    """Orders that integrate the (1 + s psi)^N family exactly."""
    return {2: (5, 7), 3: (5, 6)}.get(N, (5, 6))


# Rows per slab of the geometry sweep.  The slab bounds depend only on the
# chunk size, never on the CPU count, so no result depends on the machine.
# 256 to 2048 rows run equally fast.  256 rows keep the per-slab einsum
# temporaries small (at N = 4 a (2N)^4 array is 8 MiB) and peak memory
# steady: with 512 rows the peak of `certify --N 4` moved by up to 35 MB
# from run to run with the timing of the pool's slabs.
_SLAB_ROWS = 256

# Most pool workers.  Each running slab holds its own curvature stack and
# einsum temporaries, so the cap bounds peak memory on machines with many
# CPUs.
_MAX_WORKERS = 4

_POOL = None


def _pool():
    """The sweep's thread pool: the usable CPUs, at most ``_MAX_WORKERS``."""
    global _POOL
    if _POOL is None:
        import os
        from concurrent.futures import ThreadPoolExecutor

        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        _POOL = ThreadPoolExecutor(max_workers=min(cpus or 1, _MAX_WORKERS),
                                   thread_name_prefix="cpn-sweep")
    return _POOL


def _slab_integrands(g, dg, d2g, psi: Jet, shift: float):
    """(<h, Ric>, R, <h, N(h)>) at one slab's rows from its metric arrays.

    Runs on a pool worker, so it calls only numpy and private helpers,
    never a function that may be wrapped for tracing.
    """
    geom = GeometryJet(g, *_curvature_rows(g, dg, d2g))
    h_ij = psi.val[:, None, None] * g
    h_up = np.einsum("bip,bjq,bpq->bij", geom.g_inv, geom.g_inv, h_ij)
    ric_h = np.einsum("bij,bij->b", h_up, geom.Ric)
    nh_h = np.einsum("bij,bij->b", h_up, _n_tilde(psi, geom) - shift * g)
    return ric_h, geom.R, nh_h


def _geometry_sweep(h: ConformalPerturbation, N: int,
                    n_u: int, n_theta: int) -> dict:
    """One pass over quadrature nodes collecting the curvature integrals.

    Each ``chart_nodes`` chunk is summed with one ``np.dot`` per integral,
    which fixes the bits.  The integrands are computed in slabs of
    ``_SLAB_ROWS`` rows, and every row's value is independent of its slab:
    the calling thread builds each slab's metric arrays and the pool turns
    them into integrands.  At most one slab more than the pool has workers
    is in flight, so peak memory holds that many slabs' curvature, not one
    chunk's.
    """
    acc = {"ric_h": 0.0, "scal": 0.0, "nh_h": 0.0, "volume": 0.0}
    shift = _trace_shift(h)
    pool = _pool()
    for w, weights in chart_nodes(N, n_u, n_theta):
        psi = h.psi_jet(w)
        parts, pending = [], []
        for start in range(0, len(weights), _SLAB_ROWS):
            # one slab waits while every worker runs one
            if len(pending) > pool._max_workers:
                parts.append(pending.pop(0).result())
            s = slice(start, start + _SLAB_ROWS)
            slab = Jet(psi.val[s], psi.grad[s], psi.hess[s])
            pending.append(pool.submit(_slab_integrands, *metric_arrays(w[s]),
                                       slab, shift))
        # reading every result re-raises a worker's exception here
        parts.extend(future.result() for future in pending)
        ric_h, scal, nh_h = (np.concatenate(column) for column in zip(*parts))
        acc["ric_h"] += float(np.dot(weights, ric_h))
        acc["scal"] += float(np.dot(weights, scal))
        acc["nh_h"] += float(np.dot(weights, nh_h))
        acc["volume"] += float(np.sum(weights))
    return acc


def first_variations(h: ConformalPerturbation,
                     sweep: dict | None = None) -> dict:
    """tau', V', Hbar' along g(s) = g_FS + s h.

    tau' and V' come from quadrature (both must vanish for eigen psi);
    Hbar' is computed from the closed form n(n-2)/(2V) ||psi||^2 and by
    finite differences of (int H dV)/V in s.  ``sweep`` is the fine
    ``_geometry_sweep`` of ``h`` when the caller has already computed it.
    """
    N = h.N
    n = 2 * N
    tau = einstein_tau(N)
    if sweep is None:
        sweep = _geometry_sweep(h, N, *_entropy_quad_levels(N))
    tau_prime = tau * sweep["ric_h"] / sweep["scal"]
    psi_avg_exact = h.exact_average(1)

    def v_prime_integrand(w):
        return (n / 2.0) * h.psi_values(w)

    # V' = 0 exactly, which no relative stopping rule can reach: one level
    volume_prime = cpn_integral(v_prime_integrand, N, *level_orders(3))
    hbar_prime_closed = float(n * (n - 2) * Fraction(1, 2) * h.exact_average(2))
    # psi at the nodes, shared by the four hbar_at calls
    psi_nodes = [(h.psi_values(w), weights)
                 for w, weights in chart_nodes(N, *_scalar_quad_levels(N))]

    def hbar_at(s: float) -> float:
        num = 0.0
        den = 0.0
        for psi, weights in psi_nodes:
            conf = 1.0 + s * psi
            num += float(np.dot(weights, n * psi * conf ** (N - 1)))
            den += float(np.dot(weights, conf ** N))
        return num / den

    def d1(step):
        return (hbar_at(step) - hbar_at(-step)) / (2 * step)

    hbar_prime_fd = (4.0 * d1(_HBAR_FD_STEP / 2) - d1(_HBAR_FD_STEP)) / 3.0
    return {
        "tau_prime": tau_prime,
        "volume_prime": volume_prime,
        "hbar_prime_closed": hbar_prime_closed,
        "hbar_prime_fd": hbar_prime_fd,
        "psi_mean_exact": psi_avg_exact,
    }


def second_variation(h: ConformalPerturbation,
                     sweep: dict | None = None) -> tuple[float, float]:
    """(tau/V) int <N(h), h> dV by quadrature; returns (value, error_estimate).

    The error estimate is the difference against one coarser level.
    ``sweep`` is the fine ``_geometry_sweep`` of ``h`` when the caller has
    already computed it.
    """
    N = h.N
    tau = einstein_tau(N)
    n_u, n_theta = _entropy_quad_levels(N)
    fine = sweep if sweep is not None else _geometry_sweep(h, N, n_u, n_theta)
    coarse = _geometry_sweep(h, N, max(n_u - 1, 2), max(n_theta - 1, 3))
    value = tau * fine["nh_h"] / fine["volume"]
    value_coarse = tau * coarse["nh_h"] / coarse["volume"]
    return value, abs(value - value_coarse)


# ---------------------------------------------------------------------------
# the third variation

# Relative tolerance of the adaptive quadrature cross-check of int phi^3.
_PHI3_QUAD_TOL = 1e-8


def _third_variation_rational(N: int, avg3: Fraction) -> Fraction:
    """(n-2)(4 pi tau)^{-n/2} int phi^3 dV from avg3 = avg(phi^3), exact.

    With tau = 1/(4(N+1)) one has (4 pi tau)^{-N} = ((N+1)/pi)^N and
    V = pi^N/N!, so the pi powers cancel and the third variation is the
    rational number (2N-2) (N+1)^N avg(phi^3) / N!.
    """
    return Fraction(2 * N - 2) * Fraction((N + 1) ** N, math.factorial(N)) * avg3


def third_variation_exact_rational(N: int) -> Fraction:
    """The third variation along the special phi, in closed form."""
    return _third_variation_rational(N, cpn_average(3, special_phi(N), N))


@dataclass
class ThirdVariation:
    N: int
    phi3_average: Fraction
    phi3_integral_exact: float      # avg * V (V = pi^N/N!)
    phi3_integral_quadrature: float
    quadrature_rel_diff: float
    exact_rational: Fraction | None
    value: float                    # measured-tau float path


def third_variation(N: int, form: HermitianForm | None = None) -> ThirdVariation:
    """Third variation along h = phi g_FS, exact and quadrature paths."""
    if N < 2:
        raise ValueError("third_variation requires N >= 2")
    form = form if form is not None else special_phi(N)
    n = 2 * N
    tau = einstein_tau(N)
    avg3 = cpn_average(3, form, N)
    vol = cpn_volume_closed_form(N)
    integral_exact = float(avg3) * vol
    pert = ConformalPerturbation(form, N)

    def phi3(w):
        return pert.psi_values(w) ** 3

    integral_quad, _ = adaptive_cpn_integral(phi3, N, tol=_PHI3_QUAD_TOL,
                                             max_level=4)
    rel = abs(integral_quad - integral_exact) / max(abs(integral_exact), 1e-30)
    value = (n - 2) * (4 * math.pi * tau) ** (-N) * integral_exact
    exact_rational = None
    if abs(tau - 1 / (4 * (N + 1))) < 1e-9:
        exact_rational = _third_variation_rational(N, avg3)
    return ThirdVariation(
        N=N, phi3_average=avg3, phi3_integral_exact=integral_exact,
        phi3_integral_quadrature=integral_quad, quadrature_rel_diff=rel,
        exact_rational=exact_rational, value=value)


def minimizer_identity_coefficient() -> Fraction:
    """Coefficient of phi in -2 f' + H with f' = ((n-2)/2) phi and H = n phi.

    Symbolic in n: -2 (n-2)/2 + n = 2, matching v = 2 phi; exact check used
    by the certificate.
    """
    from .rewrite import Coef

    minus_two_fprime = Coef.from_n_linear(Fraction(-1), Fraction(2))  # -(n-2)
    trace = Coef.from_n_linear(Fraction(1), Fraction(0))              # n
    total = minus_two_fprime + trace
    expected = Coef.constant(Fraction(2))
    if total != expected:
        raise ArithmeticError("minimizer identity failed symbolically")
    return Fraction(2)


# ---------------------------------------------------------------------------
# the certificate


class Gate(NamedTuple):
    """One record of the certificate: what it checks and how it is gated."""

    identity: str
    tolerance: float | None
    provenance: str


# Every record of the certificate, in report order: the one place where its
# thresholds are written.  A record passes when its residual is below the
# tolerance, except that hbar_prime's tolerance is relative (scaled by
# max(1, |Hbar'|)) and third_variation_nonzero's is a floor that |nu'''|
# must exceed.  The final verdict record is the conjunction of the others.
CERTIFICATE_CHECKS = {
    "eigen_residual": Gate("(lap + 1/tau) phi = 0", 1e-8, "pointwise"),
    "v_solution": Gate("v = 2 phi solves (lap + 1/(2 tau)) v = div div h",
                       1e-8, "pointwise"),
    "n_tilde_vanishes": Gate("Ntilde(phi g) = 0", 1e-7, "pointwise"),
    "tau_prime": Gate("tau' = 0", 1e-8, "quadrature"),
    "volume_prime": Gate("V' = 0", 1e-8, "quadrature"),
    "hbar_prime": Gate("Hbar' = n(n-2)/(2V) ||phi||^2", 1e-5, "both"),
    "second_variation": Gate("nu'' = 0 along h = phi g", 1e-7, "quadrature"),
    "third_variation_cross_check": Gate("exact and quadrature int phi^3 agree",
                                        1e-5, "both"),
    "third_variation_nonzero": Gate(
        "nu''' = (n-2)(4 pi tau)^(-n/2) int phi^3 dV > 0", 1e-3, "both"),
    "verdict": Gate("not a local maximum of the shrinker entropy", None, "both"),
}


@dataclass
class StabilityCertificate:
    N: int
    tau: float
    eigen_residual: float
    v_residual: float
    n_tilde_max: float
    first_variations: dict
    second_variation: float
    second_variation_error: float
    third_variation: ThirdVariation
    prefactor_ratio: float
    minimizer_identity: Fraction
    verdict: str
    failures: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    normalization: str = (
        "metric from the potential log(1+|w|^2) with identity chart-origin "
        "metric; phi is the unit-coefficient form restriction")


def _gate(name: str, residual: float, scale: float = 1.0) -> dict:
    """Record ``name``: passes iff residual < its tolerance times ``scale``."""
    spec = CERTIFICATE_CHECKS[name]
    return gate(name, spec.identity, residual, spec.tolerance * scale,
                spec.provenance)


def certify(N: int, points: int = 100, seed: int = 7) -> StabilityCertificate:
    """Run the full stability pipeline and decide the certificate.

    Builds one check record per entry of ``CERTIFICATE_CHECKS``, in its
    order.  The verdict is ``not_local_max`` iff every gated record passes;
    ``failures`` names the records that fail, and the last record restates
    the verdict.  The fine geometry sweep is computed once and shared by
    the first and second variations.
    """
    if N < 2:
        raise ValueError("requires N >= 2")
    n = 2 * N
    tau = einstein_tau(N)
    h = ConformalPerturbation.special(N)
    eigen_res = h.eigen_residual(points=points, seed=seed)
    # the v_solution record gates the residual, so v_of must not raise
    v_res = v_of(h, points=points, seed=seed, tol=math.inf)
    nt_max = n_tilde_max(h, points=points, seed=seed)
    sweep = _geometry_sweep(h, N, *_entropy_quad_levels(N))
    firsts = first_variations(h, sweep=sweep)
    nu2, nu2_err = second_variation(h, sweep=sweep)
    nu3 = third_variation(N)
    vol = cpn_volume_closed_form(N)
    prefactor_ratio = vol / (4 * math.pi * tau) ** (n / 2)
    ident = minimizer_identity_coefficient()

    hbar_closed = firsts["hbar_prime_closed"]
    floor = CERTIFICATE_CHECKS["third_variation_nonzero"]
    checks = [
        _gate("eigen_residual", eigen_res),
        _gate("v_solution", v_res),
        _gate("n_tilde_vanishes", nt_max),
        _gate("tau_prime", abs(firsts["tau_prime"])),
        _gate("volume_prime", abs(firsts["volume_prime"])),
        _gate("hbar_prime", abs(firsts["hbar_prime_fd"] - hbar_closed),
              scale=max(1.0, abs(hbar_closed))),
        _gate("second_variation", abs(nu2)),
        _gate("third_variation_cross_check", nu3.quadrature_rel_diff),
        check("third_variation_nonzero", floor.identity,
              abs(nu3.value) > floor.tolerance, provenance=floor.provenance,
              detail={"value": nu3.value,
                      "exact_rational": nu3.exact_rational}),
    ]
    failures = [rec["name"] for rec in checks if rec["status"] == "fail"]
    verdict = "inconclusive" if failures else "not_local_max"
    final = CERTIFICATE_CHECKS["verdict"]
    checks.append(check("verdict", final.identity, not failures,
                        provenance=final.provenance,
                        detail={"verdict": verdict}))
    return StabilityCertificate(
        N=N, tau=tau, eigen_residual=eigen_res, v_residual=v_res,
        n_tilde_max=nt_max, first_variations=firsts,
        second_variation=nu2, second_variation_error=nu2_err,
        third_variation=nu3, prefactor_ratio=prefactor_ratio,
        minimizer_identity=ident, verdict=verdict, failures=failures,
        thresholds={
            "eigen": CERTIFICATE_CHECKS["eigen_residual"].tolerance,
            "nu2": CERTIFICATE_CHECKS["second_variation"].tolerance,
            "nu3_floor": floor.tolerance,
        },
        checks=checks)
