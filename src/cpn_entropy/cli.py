"""Command-line front end: verification suites and the instability certificate.

Verbs: geometry | eigen | moments | variation | algebra | certify.
Common flags: --N, --points, --seed, --mc-samples, --tol, --out, --config.
Flags override a plain-text key=value config file.  Exit codes: 0 pass,
1 verification failure, 2 usage/config error.  Reports are deterministic
for a fixed config (timings are segregated into a field the determinism
contract excludes).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .charts import ChartPoint, sample_w, transition_map
from .eigenfunctions import basis_first_eigenspace, phi_values_batch, verify_eigen
from .entropy import (CERTIFICATE_CHECKS, _certify_quadratures, _slab_rows,
                      certify)
from .geometry import (NormalizationError, curvature_batch, curvature_from_arrays,
                       einstein_tau, fd_metric_arrays, metric_arrays,
                       potential_metric_arrays, pullback_mismatch)
from .moments import (MC_SHARD_ROWS, cpn_volume, cpn_volume_closed_form,
                      monomial_average, monte_carlo_average, polynomial_average,
                      symmetry_vanishing)
from .polynomials import (BihomogeneousPolynomial, full_harmonic_expansion,
                          special_cubic_polynomial)
from .quadrature import ADAPTIVE_ORDERS, chart_nodes, exact_orders, rule_size
from .report import build_report, check, gate, report_bytes
from .rewrite import (IntegralExpr, PHI3, confluence_check, reduce_third_variation,
                      ricci_second_variation_coefficients,
                      second_variation_symbolic_zero, solve_f_second_integrals)
from .variation import (LEMMA_REL_TOL, conformal_change_mismatch,
                        default_coefficients, undetected_mutations,
                        verify_lemma_suite)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Bytes one curvature batch may take, whatever the machine.  A batch has the
# larger of --points and the sweep's slab rows at N (``entropy._slab_rows``).
# Per row it peaks at about 11 arrays of (2N)^4 floats in the variation
# suite, which holds its five stencil geometries at once (10.4 to 11.5), and
# 4.6 in a sweep slab, its metric arrays included (4.4 to 4.8; tracemalloc,
# N = 3..5), so the estimate counts 12.  At N = 2 the suite reads 13.3, as
# its (2N)^3 and smaller arrays weigh more there.
_BATCH_BYTES_LIMIT = 2 ** 30
_BATCH_PEAK_ARRAYS = 12
_CURVATURE_VERBS = ("geometry", "eigen", "variation", "certify")
# (n_u, torus) of eigen's Gram quadrature: phi_A phi_B has degree 2, so
# the rule is exact.  Its node matrix, phi of every basis form at every
# node (``quadrature.rule_size``: 2^N M, 336 at N = 4), is held once (each
# chunk's columns are written in place) and counts against the same byte
# limit.
_GRAM_ORDERS = exact_orders(2)
# Nodes the fixed quadratures of a run may take, each counted by
# ``quadrature.rule_size``.  The volume quadrature of moments runs the
# ladder ``quadrature.ADAPTIVE_ORDERS``, 8^N + 15^N nodes: 5.5e4 at N = 4,
# 1.2e7 at N = 6, 2.6e9 at N = 8.  Certify adds the sweep's two lattice
# rules (2 x 2^N M: 1984 at N = 5, 6144 at N = 6) to the same ladder for
# int phi^3: 1.2e7 nodes at N = 6, 1.7e8 at N = 7 and 2.6e9 at N = 8.
# The Monte Carlo samples of moments count against the same limit.
_VOLUME_NODES_LIMIT = 10 ** 9
# Bytes per cell of geometry's nested-dual oracle (potential_metric_arrays),
# which holds (2N)^4 fourth-order cells at one point whatever --points:
# about 700 (peak RSS at N = 10 and 12, 152 and 273 MB), counted as 1024.
_DUAL_CELL_BYTES = 1024

SPHERE_NOTE = ("sphere averages are taken over the unit sphere S^(2N+1) of "
               "C^(N+1), the total space of the circle bundle over CP^N")


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """The settings of a run.  The fields are the config-file keys, in the
    order the report echoes them; a value parses as its default's type, and
    as a string where the default is None."""

    N: int = 2
    points: int = 100
    seed: int = 7
    mc_samples: int = 1_000_000
    tol: float = 1e-6
    out: str | None = None
    n: str = "symbolic"
    orders: int = 100
    mutate: str | None = None


def _load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise UsageError(f"config file {path} is not UTF-8")
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


_CONFIG_TYPES = {f.name: str if f.default is None else type(f.default)
                 for f in fields(RunConfig)}


def make_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, text in raw.items():
            if key not in _CONFIG_TYPES:
                raise UsageError(f"unknown config key {key!r}")
            try:
                file_values[key] = _CONFIG_TYPES[key](text)
            except ValueError:
                raise UsageError(f"bad value {text!r} for config key {key!r}")
    values = {}
    for key in _CONFIG_TYPES:
        flag_value = getattr(args, key, None)
        value = flag_value if flag_value is not None else file_values.get(key)
        if value is not None:
            values[key] = value
    cfg = RunConfig(**values)
    if cfg.points < 1:
        raise UsageError("points must be >= 1")
    if cfg.seed < 0:
        raise UsageError("seed must be >= 0")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise UsageError("tol must be positive and finite")
    if cfg.orders < 1:
        raise UsageError("orders must be >= 1")
    if cfg.n != "symbolic":
        try:
            n = int(cfg.n)
        except ValueError:
            n = 0
        if n <= 0 or n % 2:
            raise UsageError("--n must be 'symbolic' or a positive even integer")
    return cfg


# ---------------------------------------------------------------------------
# command implementations


def cmd_geometry(cfg: RunConfig, timings: dict) -> tuple[list[dict], None]:
    if cfg.N < 1:
        raise UsageError("geometry requires N >= 1")
    N, n = cfg.N, 2 * cfg.N
    w = sample_w(N, cfg.points, cfg.seed)
    geo = curvature_batch(w)
    checks = []
    gg = np.einsum("bij,bjk->bik", geo.g, geo.g_inv) - np.eye(n)
    checks.append(gate("metric_inverse", "g g^(-1) = I",
                       float(np.max(np.abs(gg))), 1e-12, "pointwise"))
    min_eig = float(np.min(np.linalg.eigvalsh(geo.g)))
    checks.append(check("metric_positive_definite", "g > 0", min_eig > 0.0,
                        provenance="pointwise", detail={"min_eigenvalue": min_eig}))
    try:
        tau = einstein_tau(N, seed=cfg.seed)
        ein = float(np.max(np.abs(geo.Ric - geo.g / (2 * tau))))
        checks.append(gate("einstein", "ric = g/(2 tau)", ein, 1e-9,
                           "pointwise", detail={"tau": tau}))
        tau_dev = abs(tau - 1 / (4 * (N + 1)))
        checks.append(gate("tau_closed_form", "tau = 1/(4(N+1))", tau_dev,
                           1e-9, "pointwise",
                           detail={"closed_form": Fraction(1, 4 * (N + 1))}))
    except NormalizationError as exc:
        checks.append(check("einstein", "ric = g/(2 tau)", False,
                            provenance="pointwise", detail={"error": str(exc)}))
    spread = float(np.max(geo.R) - np.min(geo.R))
    checks.append(gate("scalar_constant", "R = n/(2 tau) constant", spread,
                       1e-9, "pointwise", detail={"R": float(np.mean(geo.R))}))
    antisym = float(np.max(np.abs(geo.Riem + geo.Riem.transpose(0, 1, 3, 2, 4))))
    checks.append(gate("riemann_antisymmetry", "R_ijk^l = -R_jik^l",
                       antisym, 1e-12, "pointwise"))
    w_few = w[: min(cfg.points, 4)]
    g_ex, dg_ex, d2g_ex = metric_arrays(w_few)
    dg_fd, d2g_fd = fd_metric_arrays(w_few)
    geo_fd = curvature_from_arrays(g_ex, dg_fd, d2g_fd)
    geo_ex = curvature_from_arrays(g_ex, dg_ex, d2g_ex)
    fd_dev = float(np.max(np.abs(geo_fd.Riem - geo_ex.Riem)))
    checks.append(gate("curvature_fd_oracle",
                       "exact-jet curvature = finite-difference curvature",
                       fd_dev, 1e-6, "finite differences"))
    gp, dgp, d2gp = potential_metric_arrays(w[0])
    dual_dev = max(float(np.max(np.abs(gp - g_ex[:1]))),
                   float(np.max(np.abs(dgp - dg_ex[:1]))),
                   float(np.max(np.abs(d2gp - d2g_ex[:1]))))
    checks.append(gate("metric_dual_oracle",
                       "jet metric derivatives = nested-dual potential derivatives",
                       dual_dev, 1e-12, "nested duals"))
    shifted = w[: min(cfg.points, 10)] + 0.1
    pull = max(pullback_mismatch(shifted, 0, target) for target in range(1, N + 1))
    checks.append(gate("transition_isometry", "chart transitions are isometries",
                       pull, 1e-10, "pointwise"))
    p = ChartPoint(0, shifted[0])
    q = transition_map(transition_map(p, 1), 0)
    rt = float(np.max(np.abs(q.w - p.w)))
    checks.append(gate("transition_roundtrip", "chart 0 -> 1 -> 0 = identity",
                       rt, 1e-14, "pointwise"))
    return checks, None


def cmd_eigen(cfg: RunConfig, timings: dict) -> tuple[list[dict], None]:
    if cfg.N < 1:
        raise UsageError("eigen requires N >= 1")
    N = cfg.N
    basis = basis_first_eigenspace(N)
    tau = einstein_tau(N, seed=cfg.seed)
    w = sample_w(N, cfg.points, cfg.seed)
    checks = []
    dim = N * (N + 2)
    checks.append(check("eigenspace_dimension", "dim = (N+1)^2 - 1 = N(N+2)",
                        len(basis) == dim, provenance="exact",
                        detail={"count": len(basis), "expected": dim}))
    traces = max(abs(f.trace) for f in basis)
    checks.append(check("trace_free", "tr A = 0", traces == 0.0,
                        float(traces), 1e-300, "exact"))
    geom = curvature_batch(w)
    resid = max(verify_eigen(f, tau, w, geom) for f in basis)
    del geom  # the Gram quadrature below sets the peak: free it first
    spec = CERTIFICATE_CHECKS["eigen_residual"]
    checks.append(gate("eigen_residual", spec.identity, resid, spec.tolerance,
                       spec.provenance, detail={"eigenvalue": 1.0 / tau}))
    nodes = int(rule_size(N, *_GRAM_ORDERS))
    v = np.empty((nodes, dim))
    wts = np.empty(nodes)
    start = 0
    for wq, chunk_wts in chart_nodes(N, *_GRAM_ORDERS):
        s = slice(start, start + len(wq))
        for k, f in enumerate(basis):
            v[s, k] = phi_values_batch(f, 0, wq)
        wts[s] = chunk_wts
        start = s.stop
    gram = np.einsum("bi,b,bj->ij", v, wts, v) / np.sum(wts)
    min_gram = float(np.min(np.linalg.eigvalsh(gram)))
    checks.append(check("gram_rank", "quadrature Gram matrix has full rank",
                        min_gram > 1e-8, provenance="quadrature",
                        detail={"min_eigenvalue": min_gram, "rank_required": dim}))
    zero_mean = max(abs(polynomial_average(
        N + 1, BihomogeneousPolynomial.from_form(f))) for f in basis)
    checks.append(check("zero_mean", "int phi dV = 0", zero_mean == 0,
                        float(zero_mean), 1e-300, "exact"))
    p = ChartPoint(0, w[0] + 0.1)
    inv_dev = 0.0
    for f in basis:
        base = phi_values_batch(f, 0, p.w[None, :])[0]
        for target in range(1, N + 1):
            q = transition_map(p, target)
            inv_dev = max(inv_dev, abs(
                phi_values_batch(f, q.chart, q.w[None, :])[0] - base))
    checks.append(gate("chart_invariance", "phi([z]) independent of chart",
                       inv_dev, 1e-12, "pointwise"))
    return checks, None


def cmd_moments(cfg: RunConfig, timings: dict) -> tuple[list[dict], None]:
    if cfg.N < 2:
        raise UsageError("moments requires N >= 2")
    if cfg.mc_samples < 10_000:
        raise UsageError("mc_samples must be >= 10^4")
    N, m = cfg.N, cfg.N + 1
    f = special_cubic_polynomial(N)
    f3 = f.power(3)
    checks = []
    avg3 = polynomial_average(m, f3)
    expected3 = Fraction(12, (N + 1) * (N + 2) * (N + 3))
    checks.append(check("cubic_average", "avg f^3 = 12/((N+1)(N+2)(N+3))",
                        avg3 == expected3 and avg3 > 0, provenance="exact",
                        detail={"value": avg3, "expected": expected3}))
    third = monomial_average(3, (1, 1, 1), (1, 1, 1))
    checks.append(check("monomial_example", "avg |z1 z2 z3|^2 = 1/60 on S^5",
                        third == Fraction(1, 60), provenance="exact",
                        detail={"value": third}))
    # f itself, cubed per sample: the oracle shares no expansion with avg3
    mean, se = monte_carlo_average(f, m, cfg.mc_samples, cfg.seed, q=3)
    z_score = abs(mean - float(avg3)) / se if se > 0 else 0.0
    checks.append(gate("monte_carlo_oracle", "MC average within 3 sigma of exact",
                       z_score, 3.0, "monte_carlo",
                       detail={"mean": mean, "stderr": se,
                               "samples": cfg.mc_samples,
                               "shards": -(-cfg.mc_samples // MC_SHARD_ROWS),
                               "shard_size": MC_SHARD_ROWS,
                               "estimator": "(Re f(g)/|g|^2)^3 over "
                                            "Gaussian g"}))
    zm = polynomial_average(m, f)
    checks.append(check("zero_mean", "avg f = 0", zm == 0, float(zm),
                        1e-300, "exact"))
    f1 = BihomogeneousPolynomial(m, {
        (tuple([1] + [0] * N), tuple([0, 1] + [0] * (N - 1))): 1,
        (tuple([0, 1] + [0] * (N - 1)), tuple([1] + [0] * N)): 1})
    checks.append(check("negation_symmetry", "f1 odd under z_1 -> -z_1",
                        symmetry_vanishing(f1, ("negate", 0)), provenance="exact"))
    ezz = [0] * m
    ezz[1] = 2
    e3 = [0] * m
    e3[2] = 2
    e1 = [0] * m
    e1[0] = 1
    cross = BihomogeneousPolynomial.monomial(m, ezz, e3, 1) \
        * BihomogeneousPolynomial.monomial(m, e1, e1, 1)
    checks.append(check("rotation_symmetry",
                        "z_2^2 zbar_3^2 |z_1|^2 odd under z_2 -> i z_2",
                        symmetry_vanishing(cross, ("rotate", 1)),
                        provenance="exact"))
    avg2 = polynomial_average(m, f.power(2))
    expected2 = Fraction(6, (N + 1) * (N + 2))
    checks.append(check("square_average", "avg f^2 = 6/((N+1)(N+2))",
                        avg2 == expected2, provenance="exact",
                        detail={"value": avg2, "expected": expected2}))
    vol, vol_err = cpn_volume(N)
    vol_closed = cpn_volume_closed_form(N)
    vol_rel = abs(vol - vol_closed) / vol_closed
    checks.append(gate("volume_quadrature", "Vol(CP^N) = pi^N/N!",
                       vol_rel, max(cfg.tol, 1e-6), "quadrature",
                       detail={"quadrature": vol, "closed_form": vol_closed,
                               "error_estimate": vol_err}))
    constant_part = full_harmonic_expansion(f3, 3)[-1]
    const_coef = constant_part.terms.get((tuple([0] * m), tuple([0] * m)))
    ok = const_coef is not None and const_coef.im == 0 \
        and const_coef.re == avg3
    checks.append(check("harmonic_constant_component",
                        "flat-harmonic expansion of f^3 has constant part"
                        " avg f^3 > 0",
                        ok, provenance="exact",
                        detail={"constant": const_coef.re if const_coef else 0}))
    return checks, None


def _parse_mutation(text: str, n: int) -> dict:
    """QUANTITY:ORDER:NAME as {(quantity, order): {name: default + 1/2}}."""
    try:
        quantity, order, name = text.split(":")
        key = (quantity, int(order))
    except ValueError:
        raise UsageError("--mutate expects QUANTITY:ORDER:COEFFICIENT")
    defaults = default_coefficients(n)
    if key not in defaults:
        raise UsageError(f"unknown formula {key}")
    if name not in defaults[key]:
        raise UsageError(f"unknown coefficient {name!r} of {key}")
    return {key: {name: defaults[key][name] + Fraction(1, 2)}}


def cmd_variation(cfg: RunConfig, timings: dict) -> tuple[list[dict], None]:
    if cfg.N < 2:
        raise UsageError("variation requires N >= 2")
    N = cfg.N
    mutations = _parse_mutation(cfg.mutate, 2 * N) if cfg.mutate else None
    results = verify_lemma_suite(N, cfg.points, cfg.seed, mutations=mutations)
    checks = []
    for (quantity, order), (worst, passed) in results.items():
        checks.append(check(f"{quantity}_order{order}",
                            f"closed-form d^{order}/ds^{order} {quantity} "
                            "matches finite differences",
                            passed, worst, LEMMA_REL_TOL, "finite differences"))
    if not cfg.mutate:
        undetected = undetected_mutations(N, min(cfg.points, 4), cfg.seed)
        checks.append(check("mutation_sensitivity",
                            "every single-coefficient mutation is detected",
                            not undetected, provenance="finite differences",
                            detail={"undetected": undetected}))
        conf = conformal_change_mismatch(N, min(cfg.points, 10), cfg.seed)
        checks.append(gate("conformal_change_oracle",
                           "family geometry matches e^(2u) conformal formulas",
                           conf, 1e-8, "pointwise"))
    return checks, None


def cmd_algebra(cfg: RunConfig, timings: dict) -> tuple[list[dict], None]:
    n_mode = "symbolic" if cfg.n == "symbolic" else int(cfg.n)
    checks = []
    result = reduce_third_variation(n_mode, "classical")
    checks.append(check("checkpoint",
                        "integrand reduces to 2(n-1) I[phi^2 lap] + I[phi lapf2]"
                        " after zero-mean",
                        result.checkpoint_matches, provenance="exact"))
    checks.append(check("final_coefficient",
                        "third variation = (n-2) (4 pi tau)^(-n/2) int phi^3 dV",
                        result.matches_expected and result.phi2_coefficient_zero
                        and result.tau2_absent,
                        provenance="exact",
                        detail={"normal_form": result.normal_form_text,
                                "expected": result.expected_normal_form.canonical(),
                                "final": result.final_text,
                                "phi2_zero": result.phi2_coefficient_zero,
                                "tau2_absent": result.tau2_absent}))
    corrected = reduce_third_variation(n_mode, "corrected")
    checks.append(check("corrected_route",
                        "corrected second-variation tensors reduce to the same"
                        " normal form",
                        corrected.normal_form_text == result.normal_form_text
                        and corrected.matches_expected, provenance="exact"))
    conf = confluence_check(n_mode, "classical", orders=cfg.orders, seed=cfg.seed)
    checks.append(check("confluence",
                        f"{cfg.orders} random rule orders reach one normal form",
                        conf, provenance="exact"))
    pf2, plf2 = solve_f_second_integrals("classical")
    from .rewrite import Coef
    ok_f2 = pf2 == IntegralExpr.single(PHI3, -Coef.n_var())
    ok_lf2 = plf2 == IntegralExpr.single(PHI3, Coef.n_var().mul_monomial(0, 1, 1))
    checks.append(check("f_second_elimination",
                        "int phi f'' = -n int phi^3; "
                        "int phi lap f'' = (n/tau) int phi^3",
                        ok_f2 and ok_lf2, provenance="exact"))
    checks.append(check("nu2_symbolic", "<h, Ntilde(h)> reduces to 0",
                        second_variation_symbolic_zero(), provenance="exact"))
    mutated = reduce_third_variation(
        n_mode, "classical",
        ric_overrides={"g_grad": ricci_second_variation_coefficients(
            "classical")["g_grad"] + Coef.constant(Fraction(1, 2))})
    checks.append(check("mutation_flagged",
                        "perturbing a tensor coefficient breaks the normal form",
                        not mutated.matches_expected
                        and not mutated.deviation.is_zero(),
                        provenance="exact",
                        detail={"deviation": mutated.deviation.canonical()}))
    return checks, None


def cmd_certify(cfg: RunConfig,
                timings: dict) -> tuple[list[dict], dict | None]:
    """``certify``'s records and certificate tree; it decides the verdict
    and records its stage seconds in ``timings``."""
    try:
        return certify(cfg.N, points=cfg.points, seed=cfg.seed,
                       timings=timings)
    except (ValueError, NormalizationError) as exc:
        return [check("certify", "instability certificate", False,
                      provenance="pipeline", detail={"reason": str(exc)})], None


# ---------------------------------------------------------------------------
# driver


class Verb(NamedTuple):
    """A subcommand: help line, suite, own flags and report notes.

    ``run`` takes the config and the report's ``timings`` dict, where it
    may record the wall seconds of its stages, and returns the check
    records and the certificate (None except for certify); ``flags`` holds
    (flag, type, help) of the flags only this verb takes."""

    help: str
    run: Callable[[RunConfig, dict], tuple[list[dict], dict | None]]
    flags: tuple = ()
    notes: tuple = ()


VERBS = {
    "geometry": Verb("Einstein and curvature suite", cmd_geometry),
    "eigen": Verb("eigenspace dimension and residual suite", cmd_eigen),
    "moments": Verb("exact vs Monte Carlo sphere moments", cmd_moments, notes=(
        SPHERE_NOTE, "all sphere integrals are reported as averages; integrals "
                     "multiply by the CP^N volume explicitly")),
    "variation": Verb("first/second variation formula suite", cmd_variation, flags=(
        ("--mutate", str, "QUANTITY:ORDER:COEFFICIENT to perturb by 1/2 "
                          "(the suite must then fail)"),)),
    "algebra": Verb("symbolic third-variation reduction", cmd_algebra, flags=(
        ("--n", str, "'symbolic' or a positive even integer dimension"),
        ("--orders", int, "random rule orders for the confluence check"))),
    "certify": Verb("emit the instability certificate", cmd_certify),
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--N", type=int, default=None,
                        help="complex dimension of CP^N")
    parser.add_argument("--points", type=int, default=None,
                        help="number of seeded sample points")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--mc-samples", dest="mc_samples", type=int, default=None,
                        help="Monte Carlo sample count (>= 10^4)")
    parser.add_argument("--tol", type=float, default=None,
                        help="relative tolerance of the volume quadrature "
                             "check (read by moments only)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file (flags take precedence)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpn-entropy",
        description="verification suites for the conformal entropy "
                    "instability of the Fubini-Study metric")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        _add_common(p)
        for flag, kind, help_text in verb.flags:
            p.add_argument(flag, type=kind, default=None, help=help_text)
    return parser


def run_command(command: str, cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    verb = VERBS[command]
    stages: dict = {}
    checks, certificate = verb.run(cfg, stages)
    timings = {"total_seconds": time.perf_counter() - t0, **stages}
    report = build_report(command, asdict(cfg), checks,
                          certificate=certificate, notes=list(verb.notes),
                          timings=timings)
    code = EXIT_PASS if report["status"] == "pass" else EXIT_FAIL
    return report, code


def _check_bytes(what: str, N: int, need: int) -> None:
    if need > _BATCH_BYTES_LIMIT:
        raise UsageError(
            f"{what} at N = {N} needs about {need / 2 ** 30:.3g} GiB, more "
            f"than the {_BATCH_BYTES_LIMIT / 2 ** 30:.3g} GiB limit")


def _check_nodes(what: str, N: int, orders) -> None:
    """Refuse chart quadratures at ``orders``, (n_u, torus) pairs, whose
    nodes at N (``quadrature.rule_size``) exceed the node limit."""
    try:
        nodes = sum(rule_size(N, *pair) for pair in orders)
    except OverflowError:
        nodes = math.inf
    if nodes > _VOLUME_NODES_LIMIT:
        raise UsageError(
            f"{what} at N = {N} needs {nodes:.3g} nodes, more than the "
            f"{_VOLUME_NODES_LIMIT:.3g} node limit")


def _check_size(command: str, cfg: RunConfig) -> None:
    """Refuse a run whose largest array or quadrature cannot fit its limit."""
    N = max(cfg.N, 0)
    if command in _CURVATURE_VERBS and N:  # the verb itself refuses N < 1
        rows = max(cfg.points, _slab_rows(N))
        _check_bytes(f"a curvature batch of {rows} rows", cfg.N,
                     rows * (2 * N) ** 4 * 8 * _BATCH_PEAK_ARRAYS)
    if command == "geometry":
        _check_bytes("the nested-dual metric oracle", cfg.N,
                     (2 * N) ** 4 * _DUAL_CELL_BYTES)
    if command == "eigen":  # N <= 30 here: the curvature batch refuses more
        _check_bytes("the Gram node matrix", cfg.N,
                     rule_size(N, *_GRAM_ORDERS) * N * (N + 2) * 8)
    if command == "moments":
        _check_nodes("the volume quadrature", N, ADAPTIVE_ORDERS)
        if cfg.mc_samples > _VOLUME_NODES_LIMIT:
            raise UsageError(
                f"mc_samples must be <= {_VOLUME_NODES_LIMIT:.3g}")
    if command == "certify":
        _check_nodes("the fixed quadrature of certify", N,
                     _certify_quadratures(N))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        if cfg.out and (os.path.isdir(cfg.out) or not os.path.isdir(
                os.path.dirname(os.path.abspath(cfg.out)))):
            raise UsageError(f"cannot write the report to {cfg.out}")
        _check_size(args.command, cfg)
        report, code = run_command(args.command, cfg)
        payload = report_bytes(report)
        if cfg.out:
            with open(cfg.out, "wb") as fh:
                fh.write(payload)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(payload.decode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
