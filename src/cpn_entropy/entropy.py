"""Stability operators and entropy variations at the Einstein point.

For a conformal perturbation h = psi * g_FS the module evaluates:

* the auxiliary potential v solving (Delta + 1/(2 tau)) v = div div h with
  zero mean, which equals 2 psi when psi is a first eigenfunction;
* the stability operator
      Ntilde(h) = (1/2) Delta h + Rm(h, *) + div* div h + (1/2) Hess v,
  assembled literally term by term in chart coordinates (it vanishes
  pointwise for h = phi g_FS), and N(h) = Ntilde(h) - (Hbar/(2 n tau)) g,
  which is Ntilde(h) for mean-zero psi, where Hbar = 0;
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
from .geometry import (GeometryJet, _ricci_rows, curvature_batch,
                       einstein_tau, hessian_and_laplacian, metric_arrays)
from .jets import Jet
from .moments import cpn_average, cpn_volume_closed_form
from .quadrature import (ADAPTIVE_ORDERS, adaptive_cpn_integral, chart_nodes,
                         exact_orders, lattice_generator, rule_size,
                         witness_nodes)
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

    def exact_average(self, q: int) -> Fraction:
        """Average of psi^q over CP^N, exact (q in {1, 2, 3})."""
        return cpn_average(q, self.form, self.N)

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


def _rm_term(psi_val, geom) -> np.ndarray:
    """Rm(h, *)_ij = R_kij^l g^{km} h_{ml} for h = psi g, contracted
    literally from the Riemann tensor: over m, then over k, l."""
    h_ij = psi_val[:, None, None] * geom.g
    return np.einsum("blkij,bkl->bij", geom.Riem,
                     np.einsum("bkm,bml->bkl", geom.g_inv, h_ij))


def _n_tilde(psi, geom, term_rm) -> np.ndarray:
    """Ntilde(psi g)_ij, all four terms explicit, from the jet of psi, the
    geometry at the same chart-0 points and the Rm(h, *) term ``term_rm``.
    Since g^{-1} h = psi I, that term is psi Ric; ``n_tilde_batch`` passes
    ``_rm_term``'s literal contraction and the sweep passes psi Ric."""
    psi_hess, psi_lap = hessian_and_laplacian(psi, geom)
    g, g_inv = geom.g, geom.g_inv

    # (1/2)(Delta h)_ij: the rough Laplacian of psi g is (Delta psi) g.
    term_lap = 0.5 * psi_lap[:, None, None] * g
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
    psi = h.psi_jet(w)
    return _n_tilde(psi, geom, _rm_term(psi.val, geom))


def n_tilde_max(h: ConformalPerturbation, w: np.ndarray,
                geom: GeometryJet) -> float:
    """Max |Ntilde(h)_ij| at the chart-0 points ``w`` with geometry ``geom``."""
    return float(np.max(np.abs(n_tilde_batch(h, w, geom))))


# ---------------------------------------------------------------------------
# quadrature passes

# Degree in psi of the sweep's integrands <h, Ric>, R, <h, N(h)>, psi and
# psi^2.  The sweep runs on ``exact_orders`` of it, and again on the same
# rule moved by an isometry (``witness_nodes``) as its witness.
_SWEEP_DEGREE = 2


def _certify_quadratures(N: int) -> tuple:
    """(n_u, torus) of every quadrature ``certify`` runs at N whatever its
    integrands: the sweep on its exact rule and on the moved rule, and the
    two rules of the int phi^3 ladder.  Each takes ``quadrature.rule_size``
    nodes, n_u^N M."""
    return (exact_orders(_SWEEP_DEGREE),) * 2 + ADAPTIVE_ORDERS


# Bytes of one (2N)^4 float64 array of a geometry sweep slab, which sets
# the slab's rows: 1024, 202, 64, 26 and 12 at N = 2..6.  The rows depend
# only on N, so no result depends on the machine.  ``metric_arrays`` forms
# d2g as its only such array, and a slab peaks at about 1.9 of them while
# the Ricci kernel holds d2g and its d^3-sized arrays.  So peak memory does
# not grow with N.  The slabs allocate fresh arrays, like every other
# caller: in process, the first ``certify --N 4`` takes about 5 100 minor
# page faults (about 0.01 s of system time or less) and a repeat call about
# 2 800 (getrusage, 2 vCPU).
_SLAB_BYTES = 2 * 2 ** 20


def _slab_rows(N: int) -> int:
    """Rows of a geometry sweep slab at N: its (2N)^4 float64 arrays take
    at most ``_SLAB_BYTES``."""
    return max(1, _SLAB_BYTES // ((2 * N) ** 4 * 8))


def _slab_integrands(g, dg, d2g, psi: Jet):
    """(<h, Ric>, R, <h, N(h)>, psi, psi^2) at one slab's rows from its
    metric arrays, for mean-zero psi, where N(h) = Ntilde(h).  The Ricci
    kernel forms no Riemann tensor: Ntilde's Rm(h, *) is psi Ric."""
    g_inv, gamma, ric, scal = _ricci_rows(g, dg, d2g)
    geom = GeometryJet(g, g_inv, gamma, Riem=None, Ric=ric, R=scal)
    h_ij = psi.val[:, None, None] * g
    h_up = np.einsum("biq,bjq->bij",
                     np.einsum("bip,bpq->biq", g_inv, h_ij), g_inv)
    ric_h = np.einsum("bij,bij->b", h_up, ric)
    n_h = _n_tilde(psi, geom, psi.val[:, None, None] * ric)
    nh_h = np.einsum("bij,bij->b", h_up, n_h)
    return ric_h, scal, nh_h, psi.val, psi.val ** 2


# The sweep's integrals, in the order of ``_slab_integrands``.
_SWEEP_INTEGRALS = ("ric_h", "scal", "nh_h", "psi", "psi2")


def _geometry_sweep(h: ConformalPerturbation, nodes) -> dict:
    """One pass over the (w, weights) chunks of ``nodes`` collecting the
    ``_SWEEP_INTEGRALS`` and the volume.

    Each chunk is summed with one ``np.dot`` per integral, which fixes the
    bits.  The integrands are computed in slabs of
    ``_slab_rows(N)`` rows, and every row's value is independent of its
    slab, so peak memory holds one slab's arrays, not one chunk's
    curvature.
    """
    rows = _slab_rows(h.N)
    acc = dict.fromkeys(_SWEEP_INTEGRALS + ("volume",), 0.0)
    for w, weights in nodes:
        slabs = (w[start:start + rows] for start in range(0, len(w), rows))
        parts = [_slab_integrands(*metric_arrays(slab), h.psi_jet(slab))
                 for slab in slabs]
        for name, column in zip(_SWEEP_INTEGRALS, zip(*parts)):
            acc[name] += float(np.dot(weights, np.concatenate(column)))
        acc["volume"] += float(np.sum(weights))
    return acc


def first_variations(h: ConformalPerturbation, tau: float,
                     sweeps: tuple) -> dict:
    """tau', V', Hbar' along g(s) = g_FS + s h, from the sweep integrals.

    ``tau`` is the Einstein scale and ``sweeps`` the ``_geometry_sweep``s
    of ``h`` on the rule exact at ``_SWEEP_DEGREE`` and on its witness.
    tau' and V' = (n/2) int psi dV must vanish for eigen psi.  Hbar' is the
    derivative at s = 0 of
        Hbar(s) = int n psi (1 + s psi)^(N-1) dV / int (1 + s psi)^N dV,
    which is n ((N-1) V int psi^2 - N (int psi)^2) / V^2 (``hbar_prime``),
    and also the closed form n(n-2)/(2V) ||psi||^2 from the exact moments
    (``hbar_prime_closed``).  The three quadrature values on the witness
    rule are under ``witness``.
    """
    N = h.N
    n = 2 * N

    def on_rule(sweep):
        volume, psi, psi2 = sweep["volume"], sweep["psi"], sweep["psi2"]
        return {
            "tau_prime": tau * sweep["ric_h"] / sweep["scal"],
            "volume_prime": (n / 2.0) * psi,
            "hbar_prime": n * ((N - 1) * volume * psi2 - N * psi ** 2)
            / volume ** 2,
        }

    return {
        **on_rule(sweeps[0]),
        "hbar_prime_closed": float(n * (n - 2) * Fraction(1, 2)
                                   * h.exact_average(2)),
        "witness": on_rule(sweeps[1]),
    }


def second_variation(h: ConformalPerturbation, tau: float,
                     sweeps: tuple) -> tuple[float, float]:
    """(tau/V) int <N(h), h> dV by quadrature; returns (value, error_estimate).

    psi must have mean zero, so that Hbar = 0 and N(h) = Ntilde(h), which
    is what the sweep integrates.  ``sweeps`` are the ``_geometry_sweep``s
    of ``h`` on the rule exact at ``_SWEEP_DEGREE`` and on its witness, the
    same rule moved by an isometry.  The error estimate is the difference
    between the two.
    """
    value, witness = (tau * sweep["nh_h"] / sweep["volume"] for sweep in sweeps)
    return value, abs(value - witness)


# ---------------------------------------------------------------------------
# the third variation

# Relative agreement asked of the int phi^3 ladder's two rules.
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
    times V = pi^N/N! (``exact_times_volume``) and by the quadrature
    ladder (``quadrature``, with the ladder's ``error_estimate``), with
    their relative difference ``rel_diff``; and the third variation at the
    measured tau (``value``) and, when tau has its closed form, as an
    exact rational (``exact_rational``, else None).
    """
    if N < 2:
        raise ValueError("third_variation requires N >= 2")
    avg3 = cpn_average(3, form, N)
    integral_exact = float(avg3) * cpn_volume_closed_form(N)

    def phi3(w):  # phi ** 3 would go through pow, ~30x slower
        phi = phi_values_batch(form, 0, w)
        return phi * phi * phi

    integral_quad, quad_err = adaptive_cpn_integral(phi3, N,
                                                    tol=_PHI3_QUAD_TOL)
    exact_rational = None
    if abs(tau - 1 / (4 * (N + 1))) < 1e-9:
        exact_rational = _third_variation_rational(N, avg3)
    return {
        "phi3_average": avg3,
        "exact_times_volume": integral_exact,
        "quadrature": integral_quad,
        "error_estimate": quad_err,
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
# between a quadrature value and the same value on its witness, the rule
# moved by an isometry: at most 2.7e-15 at N = 2..6 (2.69e-15 at N = 3,
# the second variation's), while content the rule gets wrong, such as
# t_1^4, moves it by 8.9e-4 or more.  third_variation_exact's relative
# residual is at most 4.6e-15 at N = 2..6.
# The final verdict record is the conjunction of the others.
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
        "each quadrature value agrees with its rule moved by an isometry",
        1e-9, "quadrature"),
    "third_variation_cross_check": Gate("exact and quadrature int phi^3 agree",
                                        1e-5, "both"),
    "third_variation_nonzero": Gate(
        "nu''' = (n-2)(4 pi tau)^(-n/2) int phi^3 dV > 0", 1e-3, "both"),
    "third_variation_exact": Gate(
        "nu''' = (2N-2) (N+1)^N avg(phi^3) / N! at tau = 1/(4(N+1))", 1e-12,
        "both"),
    "verdict": Gate("not a local maximum of the shrinker entropy", None, "both"),
}


def _gate(name: str, residual: float, scale: float = 1.0) -> dict:
    """Record ``name``: passes iff residual < its tolerance times ``scale``."""
    spec = CERTIFICATE_CHECKS[name]
    return gate(name, spec.identity, residual, spec.tolerance * scale,
                spec.provenance)


def _witness_record(N: int, firsts: dict, nu2_err: float) -> dict:
    """The ``quadrature_witness`` record.  Every quadrature value comes from
    the sweep, so its detail gives the sweep's rule once: its sticks n_u,
    its torus lattice as M points with generator z, its node count and
    exactness degree; then the witness rule as the isometry that moves
    the rule, and then each value's difference from the witness rule.
    The residual is the largest difference."""
    n_u, torus = exact_orders(_SWEEP_DEGREE)
    points, generator = lattice_generator(N, torus)
    rule = {"n_u": n_u, "torus": {"points": points,
                                  "generator": list(generator)},
            "nodes": int(rule_size(N, n_u, torus)), "degree": _SWEEP_DEGREE}
    witness = firsts["witness"]
    differences = {name: abs(firsts[name] - witness[name])
                   for name in witness} | {"second_variation": nu2_err}
    # np.max, unlike max, keeps a NaN difference
    largest = float(np.max(list(differences.values())))
    return _gate("quadrature_witness", largest) | {"detail": {
        "rule": rule, "witness_rule": {"move": (
            "[z_0 : z_1 : ... : z_N] -> [z_0 : c z_N : ... : c z_1], "
            "c = exp(i pi / M)")},
        "differences": differences}}


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
        orders = exact_orders(_SWEEP_DEGREE)
        sweeps = tuple(_geometry_sweep(h, nodes(N, *orders))
                       for nodes in (chart_nodes, witness_nodes))
    with _stage(timings, "first"):
        firsts = first_variations(h, tau, sweeps)
    with _stage(timings, "second"):
        nu2, nu2_err = second_variation(h, tau, sweeps)
    with _stage(timings, "third"):
        nu3 = third_variation(N, h.form, tau)

    hbar_closed, hbar_quad = firsts["hbar_prime_closed"], firsts["hbar_prime"]
    exact = nu3["exact_rational"]
    # with no exact rational (tau off its closed form) the record fails
    exact_rel = (abs(nu3["value"] - float(exact)) / abs(float(exact))
                 if exact else math.inf)
    floor = CERTIFICATE_CHECKS["third_variation_nonzero"]
    checks = [
        _gate("eigen_residual", eigen_res),
        _gate("v_solution", v_res),
        _gate("n_tilde_vanishes", nt_max),
        _gate("tau_prime", abs(firsts["tau_prime"])),
        _gate("volume_prime", abs(firsts["volume_prime"])),
        _gate("hbar_prime", abs(hbar_quad - hbar_closed),
              scale=max(1.0, abs(hbar_closed)))
        | {"detail": {"closed": hbar_closed, "quadrature": hbar_quad}},
        _gate("second_variation", abs(nu2)),
        _witness_record(N, firsts, nu2_err),
        _gate("third_variation_cross_check", nu3["rel_diff"])
        | {"detail": {"exact_times_volume": nu3["exact_times_volume"],
                      "quadrature": nu3["quadrature"],
                      "error_estimate": nu3["error_estimate"]}},
        check("third_variation_nonzero", floor.identity,
              abs(nu3["value"]) > floor.tolerance, provenance=floor.provenance,
              detail={"value": nu3["value"]}),
        _gate("third_variation_exact", exact_rel),
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
