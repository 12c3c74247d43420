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
  ``CERTIFICATE_CHECKS`` and returns the records with the report's
  certificate tree: a machine-checkable instability certificate.

Documentation note: on trace-free divergence-free tensors the stability
operator satisfies 2 N = lap_L - 1/tau, where lap_L is the Lichnerowicz
Laplacian; nothing here uses that identity, since the conformal direction
is handled directly.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
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
from .quadrature import (adaptive_cpn_integral, chart_nodes, cpn_integral,
                         exact_orders, level_orders)
from .report import check, gate


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

    def eigen_residual(self, tau: float, w: np.ndarray,
                       geom: GeometryJet) -> float:
        """Max |Delta psi + psi/tau| at chart-0 points ``w`` with geometry
        ``geom``."""
        return verify_eigen(self.form, tau, w, geom)


# ---------------------------------------------------------------------------
# v of h


def v_of(h: ConformalPerturbation, tau: float, w: np.ndarray,
         geom: GeometryJet) -> float:
    """Residual of v = 2 psi in (Delta + 1/(2 tau)) v = div div h, zero mean.

    For h = psi g_FS, div div h = Delta psi, and v = 2 psi satisfies the
    equation exactly when Delta psi = -psi/tau; the returned residual is the
    max over the chart-0 points ``w``, with geometry ``geom``, of
    |(Delta + 1/(2 tau))(2 psi) - Delta psi|.  The certificate's
    ``v_solution`` record gates it.
    """
    jet = h.psi_jet(w)
    _, lap = hessian_and_laplacian(jet, geom)
    return float(np.max(np.abs(2.0 * lap + jet.val / tau - lap)))


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
    # Rm(h,*)_ij = R_kij^l g^{km} h_{ml}, contracted over m, then over k, l
    term_rm = np.einsum("blkij,bkl->bij", geom.Riem,
                        np.einsum("bkm,bml->bkl", g_inv, h_ij))
    # -(1/2) g^{kl} (grad_i grad_l h_kj + grad_j grad_l h_ki);
    # grad_i grad_l h_kj = (Hess psi)_il g_kj for conformal h.  Each sum
    # contracts g^{kl} g_kj over k first, then over l.
    g_inv_g = np.einsum("bkl,bkj->blj", g_inv, g)
    term_div = -0.5 * (np.einsum("bil,blj->bij", psi_hess, g_inv_g)
                       + np.einsum("bjl,bli->bij", psi_hess, g_inv_g))
    # the last term is (1/2) Hess v with v = 2 psi
    return term_lap + term_rm + term_div + psi_hess


def n_tilde_batch(h: ConformalPerturbation, w: np.ndarray,
                  geom: GeometryJet) -> np.ndarray:
    """Ntilde(h)_ij over a batch of chart-0 points with geometry ``geom``."""
    return _n_tilde(h.psi_jet(w), geom)


def _trace_shift(h: ConformalPerturbation, tau: float) -> float:
    """Hbar / (2 n tau): N(h) = Ntilde(h) - _trace_shift(h, tau) g."""
    n = 2 * h.N
    hbar = float(h.trace_mean_exact())
    return hbar / (2 * n * tau)


def n_tilde_max(h: ConformalPerturbation, w: np.ndarray,
                geom: GeometryJet) -> float:
    """Max |Ntilde(h)_ij| at the chart-0 points ``w`` with geometry ``geom``."""
    return float(np.max(np.abs(n_tilde_batch(h, w, geom))))


# ---------------------------------------------------------------------------
# quadrature passes

# Central-difference step of the Richardson-extrapolated Hbar' estimate.
_HBAR_FD_STEP = 1e-3
# Degree in psi of the sweep's integrands <h, Ric>, R and <h, N(h)>, and of
# the V' integrand (n/2) psi.  The Hbar' family (1 + s psi)^N has degree N.
# Each runs on ``exact_orders`` of its degree, and again one degree higher
# as its witness.
_SWEEP_DEGREE = 2
_V_PRIME_DEGREE = 1


def _certify_quadratures(N: int) -> tuple:
    """(n_u, n_theta) of every quadrature ``certify`` runs at N whatever
    its integrands: the sweep, V' and the Hbar' family, each on its exact
    rule and its witness, and the first two levels of the adaptive
    int phi^3.  Each takes (n_u * n_theta)^N nodes."""
    return (*(exact_orders(d + extra)
              for d in (_SWEEP_DEGREE, _V_PRIME_DEGREE, N) for extra in (0, 1)),
            level_orders(1), level_orders(2))


# Bytes of one (2N)^4 float64 array of a geometry sweep slab, which sets
# the slab's rows: 1024, 202, 64, 26 and 12 at N = 2..6.  The rows depend
# only on N, so no result depends on the machine.  A slab peaks at about
# 4.6 such arrays, so peak memory does not grow with N.  The slabs
# allocate fresh arrays, like every other caller: ``certify --N 4`` in
# process takes about 13 300 minor page faults and 0.04 to 0.1 s of system
# time (3 runs, 2 vCPU).
_SLAB_BYTES = 2 * 2 ** 20


def _slab_rows(N: int) -> int:
    """Rows of a geometry sweep slab at N: its (2N)^4 float64 arrays take
    at most ``_SLAB_BYTES``."""
    return max(1, _SLAB_BYTES // ((2 * N) ** 4 * 8))


def _slab_integrands(g, dg, d2g, psi: Jet, shift: float):
    """(<h, Ric>, R, <h, N(h)>) at one slab's rows from its metric arrays."""
    geom = GeometryJet(g, *_curvature_rows(g, dg, d2g))
    h_ij = psi.val[:, None, None] * g
    h_up = np.einsum("biq,bjq->bij",
                     np.einsum("bip,bpq->biq", geom.g_inv, h_ij), geom.g_inv)
    ric_h = np.einsum("bij,bij->b", h_up, geom.Ric)
    nh_h = np.einsum("bij,bij->b", h_up, _n_tilde(psi, geom) - shift * g)
    return ric_h, geom.R, nh_h


def _geometry_sweep(h: ConformalPerturbation, tau: float,
                    n_u: int, n_theta: int) -> dict:
    """One pass over quadrature nodes collecting the curvature integrals.

    Each ``chart_nodes`` chunk is summed with one ``np.dot`` per integral,
    which fixes the bits.  The integrands are computed in slabs of
    ``_slab_rows(N)`` rows, and every row's value is independent of its
    slab, so peak memory holds one slab's arrays, not one chunk's
    curvature.
    """
    rows = _slab_rows(h.N)
    shift = _trace_shift(h, tau)
    acc = {"ric_h": 0.0, "scal": 0.0, "nh_h": 0.0, "volume": 0.0}
    for w, weights in chart_nodes(h.N, n_u, n_theta):
        slabs = (w[start:start + rows] for start in range(0, len(w), rows))
        parts = [_slab_integrands(*metric_arrays(slab), h.psi_jet(slab), shift)
                 for slab in slabs]
        ric_h, scal, nh_h = (np.concatenate(column) for column in zip(*parts))
        acc["ric_h"] += float(np.dot(weights, ric_h))
        acc["scal"] += float(np.dot(weights, scal))
        acc["nh_h"] += float(np.dot(weights, nh_h))
        acc["volume"] += float(np.sum(weights))
    return acc


def first_variations(h: ConformalPerturbation, tau: float,
                     sweeps: tuple) -> dict:
    """tau', V', Hbar' along g(s) = g_FS + s h.

    tau' and V' come from quadrature (both must vanish for eigen psi);
    Hbar' is computed from the closed form n(n-2)/(2V) ||psi||^2 and by
    finite differences of (int H dV)/V in s.  ``tau`` is the Einstein scale
    and ``sweeps`` the ``_geometry_sweep``s of ``h`` on the rule exact at
    ``_SWEEP_DEGREE`` and on its witness.  Each quadrature value is also
    computed on its witness rule, one degree higher, under ``witness``.
    """
    N = h.N
    n = 2 * N

    def v_prime_integrand(w):
        return (n / 2.0) * h.psi_values(w)

    def hbar_prime_fd(degree: int) -> float:
        """Richardson-extrapolated d/ds of Hbar(s) = num(s) / den(s) at 0,
        with num and den summed on one pass over the nodes."""
        steps = (_HBAR_FD_STEP, -_HBAR_FD_STEP,
                 _HBAR_FD_STEP / 2, -_HBAR_FD_STEP / 2)
        num = dict.fromkeys(steps, 0.0)
        den = dict.fromkeys(steps, 0.0)
        for w, weights in chart_nodes(N, *exact_orders(degree)):
            psi = h.psi_values(w)
            for s in steps:
                conf = 1.0 + s * psi
                num[s] += float(np.dot(weights, n * psi * conf ** (N - 1)))
                den[s] += float(np.dot(weights, conf ** N))

        def d1(step):
            return (num[step] / den[step]
                    - num[-step] / den[-step]) / (2 * step)

        return (4.0 * d1(_HBAR_FD_STEP / 2) - d1(_HBAR_FD_STEP)) / 3.0

    def on_rule(sweep, extra):
        return {
            "tau_prime": tau * sweep["ric_h"] / sweep["scal"],
            "volume_prime": cpn_integral(v_prime_integrand, N, *exact_orders(
                _V_PRIME_DEGREE + extra)),
            "hbar_prime_fd": hbar_prime_fd(N + extra),
        }

    return {
        **on_rule(sweeps[0], 0),
        "hbar_prime_closed": float(n * (n - 2) * Fraction(1, 2)
                                   * h.exact_average(2)),
        "witness": on_rule(sweeps[1], 1),
    }


def second_variation(h: ConformalPerturbation, tau: float,
                     sweeps: tuple) -> tuple[float, float]:
    """(tau/V) int <N(h), h> dV by quadrature; returns (value, error_estimate).

    ``sweeps`` are the ``_geometry_sweep``s of ``h`` on the rule exact at
    ``_SWEEP_DEGREE`` and on its witness, one degree higher.  The error
    estimate is the difference between the two.
    """
    value, witness = (tau * sweep["nh_h"] / sweep["volume"] for sweep in sweeps)
    return value, abs(value - witness)


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


def third_variation(N: int, form: HermitianForm, tau: float) -> dict:
    """Third variation along h = phi g_FS, exact and quadrature paths.

    Returns the exact ``phi3_average``; int phi^3 dV as the exact average
    times V = pi^N/N! (``exact_times_volume``) and by adaptive quadrature
    (``quadrature``), with their relative difference ``rel_diff``; and the
    third variation at the measured tau (``value``) and, when tau has its
    closed form, as an exact rational (``exact_rational``, else None).
    """
    if N < 2:
        raise ValueError("third_variation requires N >= 2")
    avg3 = cpn_average(3, form, N)
    integral_exact = float(avg3) * cpn_volume_closed_form(N)

    def phi3(w):
        return phi_values_batch(form, 0, w) ** 3

    integral_quad, _ = adaptive_cpn_integral(phi3, N, tol=_PHI3_QUAD_TOL,
                                             max_level=4)
    exact_rational = None
    if abs(tau - 1 / (4 * (N + 1))) < 1e-9:
        exact_rational = _third_variation_rational(N, avg3)
    return {
        "phi3_average": avg3,
        "exact_times_volume": integral_exact,
        "quadrature": integral_quad,
        "rel_diff": abs(integral_quad - integral_exact)
        / max(abs(integral_exact), 1e-30),
        "value": (2 * N - 2) * (4 * math.pi * tau) ** (-N) * integral_exact,
        "exact_rational": exact_rational,
    }


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
# tolerances are written.  A record passes when its residual is below the
# tolerance, except that hbar_prime's tolerance is relative (scaled by
# max(1, |Hbar'|)) and third_variation_nonzero's is a floor that |nu'''|
# must exceed.  quadrature_witness gates the largest absolute difference
# between a quadrature value and the same value on its witness rule: at
# most 3.2e-13 at N = 2..4 and 1.2e-11 at N = 5 (Hbar', whose finite
# differences scale rounding by about 1/step), while a term of degree
# d + 2 moves it by about 0.1.  The final verdict record is the
# conjunction of the others.
CERTIFICATE_CHECKS = {
    "eigen_residual": Gate("(lap + 1/tau) phi = 0", 1e-8, "pointwise"),
    "v_solution": Gate("v = 2 phi solves (lap + 1/(2 tau)) v = div div h",
                       1e-8, "pointwise"),
    "n_tilde_vanishes": Gate("Ntilde(phi g) = 0", 1e-7, "pointwise"),
    "tau_prime": Gate("tau' = 0", 1e-8, "quadrature"),
    "volume_prime": Gate("V' = 0", 1e-8, "quadrature"),
    "hbar_prime": Gate("Hbar' = n(n-2)/(2V) ||phi||^2", 1e-5, "both"),
    "second_variation": Gate("nu'' = 0 along h = phi g", 1e-7, "quadrature"),
    "quadrature_witness": Gate(
        "each quadrature value agrees with its rule one degree higher",
        1e-9, "quadrature"),
    "third_variation_cross_check": Gate("exact and quadrature int phi^3 agree",
                                        1e-5, "both"),
    "third_variation_nonzero": Gate(
        "nu''' = (n-2)(4 pi tau)^(-n/2) int phi^3 dV > 0", 1e-3, "both"),
    "verdict": Gate("not a local maximum of the shrinker entropy", None, "both"),
}


def _gate(name: str, residual: float, scale: float = 1.0) -> dict:
    """Record ``name``: passes iff residual < its tolerance times ``scale``."""
    spec = CERTIFICATE_CHECKS[name]
    return gate(name, spec.identity, residual, spec.tolerance * scale,
                spec.provenance)


def _witness_record(N: int, firsts: dict, nu2_err: float) -> dict:
    """The ``quadrature_witness`` record.  Its detail gives, per quadrature
    value, its rule's (n_u, n_theta), node count and exactness degree, and
    its difference from the witness rule; the residual is the largest
    difference."""
    witness = firsts["witness"]
    rules = {}
    for name, degree, difference in (
            ("tau_prime", _SWEEP_DEGREE,
             abs(firsts["tau_prime"] - witness["tau_prime"])),
            ("volume_prime", _V_PRIME_DEGREE,
             abs(firsts["volume_prime"] - witness["volume_prime"])),
            ("hbar_prime", N,
             abs(firsts["hbar_prime_fd"] - witness["hbar_prime_fd"])),
            ("second_variation", _SWEEP_DEGREE, nu2_err)):
        n_u, n_theta = exact_orders(degree)
        rules[name] = {"orders": [n_u, n_theta], "nodes": (n_u * n_theta) ** N,
                       "degree": degree, "witness_difference": difference}
    # np.max, unlike max, keeps a NaN difference
    largest = float(np.max([rule["witness_difference"]
                            for rule in rules.values()]))
    return _gate("quadrature_witness", largest) | {"detail": rules}


@contextmanager
def _stage(timings: dict, name: str):
    """Record the wall seconds of the ``with`` block in ``timings[name]``."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def certify(N: int, points: int, seed: int, *,
            timings: dict) -> tuple[list, dict]:
    """Run the full stability pipeline and decide the certificate.

    Returns ``(checks, certificate)``: one check record per entry of
    ``CERTIFICATE_CHECKS``, in its order, and the report's ordered
    certificate tree.  The records are the only carrier of every gated
    value; the tree holds what no record holds: N, the normalization, the
    verdict, tau and the exact rationals.  The verdict is ``not_local_max``
    iff every gated record passes, and the last record restates it.  Tau,
    the ``points`` sample points and their curvature batch are computed
    once and passed to every stage that needs them, and the geometry
    sweeps on the exact rule and on its witness are shared by the first
    and second variations.  The ``quadrature_witness`` record gates every
    quadrature value against its witness.  The wall seconds of each stage
    go into ``timings`` only, outside the byte contract.
    """
    if N < 2:
        raise ValueError("requires N >= 2")
    tau = einstein_tau(N)
    h = ConformalPerturbation.special(N)
    with _stage(timings, "eigen"):
        w = sample_w(N, points, seed)
        geom = curvature_batch(w)
        eigen_res = h.eigen_residual(tau, w, geom)
    with _stage(timings, "v"):
        v_res = v_of(h, tau, w, geom)
    with _stage(timings, "n_tilde"):
        nt_max = n_tilde_max(h, w, geom)
    with _stage(timings, "sweep"):
        sweeps = tuple(_geometry_sweep(h, tau, *exact_orders(degree))
                       for degree in (_SWEEP_DEGREE, _SWEEP_DEGREE + 1))
    with _stage(timings, "first"):
        firsts = first_variations(h, tau, sweeps)
    with _stage(timings, "second"):
        nu2, nu2_err = second_variation(h, tau, sweeps)
    with _stage(timings, "third"):
        nu3 = third_variation(N, h.form, tau)

    hbar_closed, hbar_fd = firsts["hbar_prime_closed"], firsts["hbar_prime_fd"]
    floor = CERTIFICATE_CHECKS["third_variation_nonzero"]
    checks = [
        _gate("eigen_residual", eigen_res),
        _gate("v_solution", v_res),
        _gate("n_tilde_vanishes", nt_max),
        _gate("tau_prime", abs(firsts["tau_prime"])),
        _gate("volume_prime", abs(firsts["volume_prime"])),
        _gate("hbar_prime", abs(hbar_fd - hbar_closed),
              scale=max(1.0, abs(hbar_closed)))
        | {"detail": {"closed": hbar_closed, "finite_difference": hbar_fd}},
        _gate("second_variation", abs(nu2)),
        _witness_record(N, firsts, nu2_err),
        _gate("third_variation_cross_check", nu3["rel_diff"])
        | {"detail": {"exact_times_volume": nu3["exact_times_volume"],
                      "quadrature": nu3["quadrature"]}},
        check("third_variation_nonzero", floor.identity,
              abs(nu3["value"]) > floor.tolerance, provenance=floor.provenance,
              detail={"value": nu3["value"]}),
    ]
    passed = all(rec["status"] == "pass" for rec in checks)
    final = CERTIFICATE_CHECKS["verdict"]
    checks.append(check("verdict", final.identity, passed,
                        provenance=final.provenance))
    certificate = {
        "N": N,
        "normalization": (
            "metric from the potential log(1+|w|^2) with identity "
            "chart-origin metric; phi is the unit-coefficient form "
            "restriction"),
        "verdict": "not_local_max" if passed else "inconclusive",
        "tau": {"value": tau, "closed_form": Fraction(1, 4 * (N + 1)),
                "provenance": "n/(2R) at seeded sample points"},
        "phi3_average": {"exact": nu3["phi3_average"], "provenance": "exact"},
        "third_variation": {"exact_rational": nu3["exact_rational"],
                            "provenance": "both"},
        "prefactor_ratio": {
            "value": cpn_volume_closed_form(N) / (4 * math.pi * tau) ** N,
            "identity": "V / (4 pi tau)^(n/2)",
            "provenance": "exact"},
        "minimizer_identity": {"coefficient": minimizer_identity_coefficient(),
                               "identity": "-2 f' + H = 2 phi = v",
                               "provenance": "exact"},
    }
    return checks, certificate
