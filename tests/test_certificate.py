"""The certificate's gates: one table, one verdict, in the API and the CLI.

One real ``certify(2)`` run records every stage's return value.  The gate
tests replay those values with one stage pushed just past its tolerance,
so each case costs no recomputation.
"""

import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from cpn_entropy import entropy, geometry
from cpn_entropy.cli import RunConfig, cmd_geometry, main
from cpn_entropy.eigenfunctions import phi_values_batch, special_phi
from cpn_entropy.entropy import CERTIFICATE_CHECKS, ConformalPerturbation
from cpn_entropy.quadrature import (chart_nodes, cpn_integral, exact_orders,
                                    witness_nodes)
from cpn_entropy.report import build_report, dumps, parse_report, reverify

STAGES = ("v_of", "n_tilde_max", "_geometry_sweep", "first_variations",
          "second_variation", "third_variation")


def certify_n2(**config):
    """certify(2) at the CLI defaults of ``RunConfig``, unless overridden."""
    cfg = RunConfig(N=2, **config)
    return entropy.certify(cfg.N, cfg.points, cfg.seed, timings={})


def _owner(stage):
    return ConformalPerturbation if stage == "eigen_residual" else entropy


@pytest.fixture(scope="module")
def recorded():
    """certify(2) at the CLI defaults, with each stage's outputs in call order."""
    outputs = {}

    def recorder(stage, fn):
        def wrapped(*args, **kwargs):
            value = fn(*args, **kwargs)
            outputs.setdefault(stage, []).append(value)
            return value
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for stage in STAGES + ("eigen_residual",):
            mp.setattr(_owner(stage), stage,
                       recorder(stage, getattr(_owner(stage), stage)))
        checks, cert = certify_n2()
    return checks, cert, outputs


def _past(name, scale=1.0):
    return 1.01 * CERTIFICATE_CHECKS[name].tolerance * scale


def _on_both_rules(fv, key, value):
    """``first_variations``' values with ``key`` set to ``value`` on its
    rule and on its witness, so only ``key``'s own gate can see it."""
    return {**fv, key: value, "witness": {**fv["witness"], key: value}}


def _hbar_off(fv):
    closed = fv["hbar_prime_closed"]
    return _on_both_rules(fv, "hbar_prime", closed + _past(
        "hbar_prime", max(1.0, abs(closed))))


def _on_the_sweep_rules(func):
    """int func dV at N = 2 on the sweep's degree-2 rule and on its witness,
    the same rule moved by an isometry."""
    orders = exact_orders(entropy._SWEEP_DEGREE)
    return tuple(sum(float(np.dot(weights, func(w)))
                     for w, weights in nodes(2, *orders))
                 for nodes in (chart_nodes, witness_nodes))


def _sigma(w):
    return 1.0 + np.sum(np.abs(w) ** 2, axis=1)


# Content of zero integral and degree above 2, with t_j = |w_j|^2 / sigma.
def _radial(w):
    """t_1^4 - t_2^4: the rule's sticks break the simplex unevenly."""
    return (np.abs(w[:, 0]) ** 8 - np.abs(w[:, 1]) ** 8) / _sigma(w) ** 4


def _mode_3(w):
    """Re(conj(w_1) conj(w_2)^2) / sigma^3: its character -e_1 - 2 e_2 meets
    the rule's lattice generator (1, 3) in -7 = 0 mod 7, so the rule aliases
    it (0.103), while the moved rule's (3, 1) gives -5 and integrates it
    exactly."""
    return (np.conj(w[:, 0]) * np.conj(w[:, 1]) ** 2).real / _sigma(w) ** 3


def _mode_4(w):
    """Re(w_1^4) / sigma^4: 4 z_1 = 4, not 0 mod 7, so the rule integrates
    it exactly, and so does the moved rule."""
    return (w[:, 0] ** 4).real / _sigma(w) ** 4


def _mode_4_on_z_2(w):
    """Re(w_2^4) / sigma^4, which the rule and the moved rule integrate
    exactly too."""
    return (w[:, 1] ** 4).real / _sigma(w) ** 4


def _with_content(content):
    """``first_variations``' values with ``content`` added to V''s integrand
    (n/2) phi on the rule and on its witness, scaled down, where the rule
    gets it wrong, until V' on the rule sits at half its gate."""
    def push(fv):
        form = special_phi(2)
        tolerance = CERTIFICATE_CHECKS["volume_prime"].tolerance
        rule_error = abs(_on_the_sweep_rules(content)[0])
        scale = min(1.0, 0.5 * tolerance / rule_error)

        def integrand(w):
            return 2.0 * phi_values_batch(form, 0, w) + scale * content(w)

        value, witness = _on_the_sweep_rules(integrand)
        assert abs(value) < tolerance
        return {**fv, "volume_prime": value,
                "witness": {**fv["witness"], "volume_prime": witness}}
    return push


def _nu3_below_the_floor(tv):
    """nu''' just below the floor, with an exact rational to match."""
    value = 0.99 * CERTIFICATE_CHECKS["third_variation_nonzero"].tolerance
    return {**tv, "value": value, "exact_rational": Fraction(value)}


# gated record -> (stage, the recorded stage value pushed past tolerance)
GATE_CASES = {
    "eigen_residual": ("eigen_residual", lambda _: _past("eigen_residual")),
    "v_solution": ("v_of", lambda _: _past("v_solution")),
    "n_tilde_vanishes": ("n_tilde_max", lambda _: _past("n_tilde_vanishes")),
    "tau_prime": ("first_variations", lambda fv: _on_both_rules(
        fv, "tau_prime", _past("tau_prime"))),
    "volume_prime": ("first_variations", lambda fv: _on_both_rules(
        fv, "volume_prime", -_past("volume_prime"))),
    "hbar_prime": ("first_variations", _hbar_off),
    "second_variation": ("second_variation",
                         lambda nu2: (-_past("second_variation"), nu2[1])),
    "quadrature_witness": ("first_variations", _with_content(_radial)),
    "third_variation_cross_check": (
        "third_variation",
        lambda tv: {**tv, "rel_diff": _past("third_variation_cross_check")}),
    "third_variation_nonzero": ("third_variation", _nu3_below_the_floor),
    "third_variation_exact": ("third_variation", lambda tv: {
        **tv, "value": tv["value"] * (1 + _past("third_variation_exact"))}),
}


def _replay(monkeypatch, outputs, case=None):
    """Every stage returns its recorded first output; ``case``, a (stage,
    push) pair, pushes that stage's output."""
    values = {stage: outs[0] for stage, outs in outputs.items()}
    if case is not None:
        stage, push = case
        values[stage] = push(values[stage])
    for stage, value in values.items():
        monkeypatch.setattr(_owner(stage), stage,
                            lambda *args, _value=value, **kwargs: _value)


def test_gate_cases_cover_every_gated_record():
    assert list(GATE_CASES) == list(CERTIFICATE_CHECKS)[:-1]


def test_certify_shares_the_fine_sweep(recorded):
    checks, cert, outputs = recorded
    # the exact rule and its witness, each shared by tau' and nu''
    assert len(outputs["_geometry_sweep"]) == 2
    assert all(len(outputs[stage]) == 1 for stage in STAGES
               if stage != "_geometry_sweep")
    assert cert["verdict"] == "not_local_max"
    assert [rec["name"] for rec in checks] == list(CERTIFICATE_CHECKS)
    assert all(rec["status"] == "pass" for rec in checks)
    tolerances = {rec["name"]: rec["tolerance"] for rec in checks}
    assert (tolerances["eigen_residual"], tolerances["second_variation"],
            CERTIFICATE_CHECKS["third_variation_nonzero"].tolerance) == (
        1e-8, 1e-7, 1e-3)


@pytest.mark.parametrize("N", [2, 3])
def test_certify_builds_each_curvature_batch_and_tau_once(N, monkeypatch):
    calls = {"curvature_batch": [], "einstein_tau": []}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name].append(args[0].tobytes() if name == "curvature_batch"
                               else args)
            return fn(*args, **kwargs)
        return wrapped

    package = [module for key, module in list(sys.modules.items())
               if key.startswith("cpn_entropy.")]
    for name in calls:
        original = getattr(geometry, name)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy(name, original))
    entropy.certify(N, 100, 7, timings={})
    # the 100 sample points; tau reads R from the Ricci kernel
    assert len(calls["curvature_batch"]) == 1
    assert len(calls["einstein_tau"]) == 1


# The report's certificate tree, every nested key in print order: only what
# no record holds.
CERTIFICATE_KEY_PATHS = [
    "N", "normalization", "verdict",
    "tau", "tau.value", "tau.closed_form", "tau.provenance",
    "phi3_average", "phi3_average.exact", "phi3_average.provenance",
    "third_variation", "third_variation.exact_rational",
    "third_variation.provenance",
    "prefactor_ratio", "prefactor_ratio.value", "prefactor_ratio.identity",
    "prefactor_ratio.provenance",
    "minimizer_identity", "minimizer_identity.coefficient",
    "minimizer_identity.identity", "minimizer_identity.provenance",
]


def _key_paths(tree, prefix=""):
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


def test_certificate_key_order():
    # the report prints keys in insertion order; this holds on every build,
    # where the byte digests of tests/test_pinned_digests.py skip
    assert list(_key_paths(certify_n2(points=5)[1])) \
        == CERTIFICATE_KEY_PATHS


def test_replayed_stages_reproduce_the_certificate(recorded, monkeypatch,
                                                   capsys):
    checks, cert, outputs = recorded
    _replay(monkeypatch, outputs)
    assert certify_n2() == (checks, cert)
    assert main(["certify", "--N", "2"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert dumps(report["checks"]) == dumps(checks)
    assert dumps(report["certificate"]) == dumps(cert)
    assert reverify(report)


def _failing(checks):
    return [rec["name"] for rec in checks if rec["status"] == "fail"]


@pytest.mark.parametrize("record", list(GATE_CASES))
def test_each_gate_flips_the_verdict(record, recorded, monkeypatch, capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs, GATE_CASES[record])
    checks, cert = certify_n2()
    assert cert["verdict"] == "inconclusive"
    assert _failing(checks) == [record, "verdict"]
    assert main(["certify", "--N", "2"]) == 1
    report = parse_report(capsys.readouterr().out)
    assert _failing(report["checks"]) == [record, "verdict"]
    assert report["certificate"]["verdict"] == "inconclusive"
    assert reverify(report)


# The radial content t_1^4 - t_2^4 is the quadrature_witness gate case.
@pytest.mark.parametrize("content,failing", [
    (_mode_3, ["quadrature_witness", "verdict"]),
    (_mode_4, [])], ids=["mode_3", "mode_4"])
def test_the_moved_witness_sees_what_the_rule_misses(content, failing,
                                                     recorded, monkeypatch):
    *_, outputs = recorded
    _replay(monkeypatch, outputs, ("first_variations", _with_content(content)))
    checks, cert = certify_n2()
    assert _failing(checks) == failing


def test_the_witness_one_degree_higher_saw_less():
    # the rule on exact_orders(3) reuses every simplex node of the sweep's
    # rule, so radial content moves it by rounding only
    rule, moved = _on_the_sweep_rules(_radial)
    higher = cpn_integral(_radial, 2, *exact_orders(3))
    assert abs(higher - rule) < 1e-15 and abs(moved - rule) > 1e-3
    # and its 16-point lattice, generator (1, 4), aliases 4 e_2 (4 z_2 = 16),
    # which the rule and the moved rule integrate exactly: a difference of
    # 0.045 there would be its own error
    rule, moved = _on_the_sweep_rules(_mode_4_on_z_2)
    higher = cpn_integral(_mode_4_on_z_2, 2, *exact_orders(3))
    assert abs(rule) < 1e-16 and abs(moved - rule) < 1e-16
    assert abs(higher - rule) > 0.04


def _mutant_third_variation(monkeypatch, third, mutant):
    """The real ``third_variation`` stage with one of two prefactor mutants:
    the exact rational doubled, or 2N-1 for 2N-2 in the float value."""
    if mutant == "doubled_rational":
        rational = entropy._third_variation_rational
        monkeypatch.setattr(entropy, "_third_variation_rational",
                            lambda N, avg3: 2 * rational(N, avg3))
        monkeypatch.setattr(entropy, "third_variation", third)
    else:
        def mutated(N, form, tau):
            tv = third(N, form, tau)
            return {**tv, "value": tv["value"] * (2 * N - 1) / (2 * N - 2)}
        monkeypatch.setattr(entropy, "third_variation", mutated)


@pytest.mark.parametrize("mutant", ["doubled_rational", "prefactor_2N-1"])
def test_third_variation_exact_kills_the_prefactor_mutants(mutant, recorded,
                                                           monkeypatch):
    # every other record passes: only third_variation_exact sees them
    *_, outputs = recorded
    third = entropy.third_variation
    _replay(monkeypatch, outputs)
    _mutant_third_variation(monkeypatch, third, mutant)
    checks, cert = certify_n2()
    assert _failing(checks) == ["third_variation_exact", "verdict"]
    assert cert["verdict"] == "inconclusive"


def test_no_exact_rational_fails_third_variation_exact(recorded, monkeypatch,
                                                       capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs, ("third_variation", lambda tv: {
        **tv, "exact_rational": None}))
    checks, cert = certify_n2()
    assert _failing(checks) == ["third_variation_exact", "verdict"]
    assert cert["verdict"] == "inconclusive"
    # its report, with a null residual, is consistent
    assert main(["certify", "--N", "2"]) == 1
    report = parse_report(capsys.readouterr().out)
    assert _record(report, "third_variation_exact")["residual"] is None
    assert reverify(report)


@pytest.mark.parametrize("N", [2, 3])
def test_doubled_sweep_volume_fails_hbar_prime(N, monkeypatch):
    # V enters Hbar' as well as nu'', whose target 0 cannot see it
    sweep = entropy._geometry_sweep

    def doubled(*args):
        sums = sweep(*args)
        return {**sums, "volume": 2 * sums["volume"]}

    monkeypatch.setattr(entropy, "_geometry_sweep", doubled)
    cfg = RunConfig(N=N)
    checks, cert = entropy.certify(cfg.N, cfg.points, cfg.seed, timings={})
    assert _failing(checks) == ["hbar_prime", "verdict"]
    assert cert["verdict"] == "inconclusive"


def _scaled_sweep_ricci(monkeypatch, factor):
    """The sweep's Ricci kernel with its Ric times ``factor``."""
    kernel = geometry._ricci_rows

    def scaled(g, dg, d2g):
        g_inv, gamma, ric, scal = kernel(g, dg, d2g)
        return g_inv, gamma, factor * ric, scal

    monkeypatch.setattr(entropy, "_ricci_rows", scaled)


# Ntilde's Rm(h, *) is psi Ric in the sweep, so at N = 2 a Ric off by a
# factor 1 + e moves nu'' by e (n/2) avg(phi^2) = e.  e = 1e-7 lands on
# second_variation's tolerance itself, and the rounding of the unmutated
# nu'' (-3.2e-16) decides: 1 + 1e-7 gives 9.99999997e-8 and passes,
# 1 - 1e-7 gives 1.00000000027e-7 and fails.  So the cases are the sign
# flip and e = +-1.01e-7, just past the tolerance.
@pytest.mark.parametrize("factor", [-1.0, 1 + 1.01e-7, 1 - 1.01e-7])
def test_wrong_sweep_ricci_fails_second_variation(factor, monkeypatch):
    _scaled_sweep_ricci(monkeypatch, factor)
    checks, cert = certify_n2()
    assert _failing(checks) == ["second_variation", "verdict"]
    assert cert["verdict"] == "inconclusive"
    assert abs(_record({"checks": checks}, "second_variation")["residual"]
               - abs(factor - 1)) < 1e-13


def _second_derivative_terms(n):
    """The delta and the J terms of the constant d_k d_l P_ij of
    ``geometry.metric_arrays``, as (2N)^4 arrays: d_ik d_jl + d_il d_jk and
    J_ik J_jl + J_il J_jk, for J X = (-y, x)."""
    d = 2 * n
    delta = np.eye(d)
    jmat = np.zeros((d, d))
    jmat[n:, :n] = np.eye(n)
    jmat[:n, n:] = -np.eye(n)
    return [np.einsum("ik,jl->ijkl", a, a) + np.einsum("il,jk->ijkl", a, a)
            for a in (delta, jmat)]


# What each mutant adds to d2g, whose constant term is -s^2 (delta + J
# terms): the J terms with their sign flipped, and the whole term times
# 1 + 1e-6.
METRIC_MUTANTS = {
    "flip-j-terms": lambda delta, j: 2.0 * j,
    "scale-constant-term": lambda delta, j: -1e-6 * (delta + j),
}


def _mutated_metric_arrays(kind):
    kernel = geometry.metric_arrays

    def mutated(w):
        g, dg, d2g = kernel(w)
        s2 = (1.0 / (1.0 + np.sum(np.abs(w) ** 2, axis=1))) ** 2
        change = METRIC_MUTANTS[kind](*_second_derivative_terms(w.shape[1]))
        return g, dg, d2g + s2[:, None, None, None, None] * change

    return mutated


# The mutant in every module that binds metric_arrays: the geometry verb's
# derivative cross-checks fail with its Einstein records, and certify stops
# in einstein_tau's spread guard (R spreads by 2.7e2 and 6.2e-5 at N = 2)
# before any record.
def _mutate_every_metric_arrays(monkeypatch, kind):
    original = geometry.metric_arrays
    mutated = _mutated_metric_arrays(kind)
    for module in [m for key, m in list(sys.modules.items())
                   if key.startswith("cpn_entropy.")]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, mutated)


@pytest.mark.parametrize("kind", list(METRIC_MUTANTS))
def test_wrong_metric_second_derivatives_fail_geometry(kind, monkeypatch):
    _mutate_every_metric_arrays(monkeypatch, kind)
    checks, _ = cmd_geometry(RunConfig(N=2), {})
    assert _failing(checks) == ["einstein", "scalar_constant",
                                "curvature_fd_oracle", "metric_dual_oracle"]
    with pytest.raises(geometry.NormalizationError):
        certify_n2()


# The CLI turns the spread guard's error into a failing record and a report.
def test_wrong_metric_fails_the_certify_report(monkeypatch, capsys):
    _mutate_every_metric_arrays(monkeypatch, "scale-constant-term")
    assert main(["certify", "--N", "2"]) == 1
    report = parse_report(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert _failing(report["checks"]) == ["certify"]
    assert "scalar curvature varies" in _record(report, "certify")[
        "detail"]["reason"]


# The mutant in the sweep alone: tau and the pointwise records are right,
# and the verdict flips on the second variation.
@pytest.mark.parametrize("kind", list(METRIC_MUTANTS))
def test_wrong_sweep_metric_flips_the_verdict(kind, monkeypatch):
    monkeypatch.setattr(entropy, "metric_arrays", _mutated_metric_arrays(kind))
    checks, cert = certify_n2()
    assert _failing(checks) == ["second_variation", "verdict"]
    assert cert["verdict"] == "inconclusive"


def test_nonfinite_stage_value_is_a_failing_record(recorded, monkeypatch,
                                                  capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs)
    monkeypatch.setattr(entropy, "n_tilde_max",
                        lambda *args, **kwargs: float("nan"))
    checks, cert = certify_n2()
    assert cert["verdict"] == "inconclusive"
    assert _failing(checks) == ["n_tilde_vanishes", "verdict"]
    assert main(["certify", "--N", "2"]) == 1
    text = capsys.readouterr().out
    assert "NaN" not in text and "Infinity" not in text
    report = parse_report(text)
    record = next(rec for rec in report["checks"]
                  if rec["name"] == "n_tilde_vanishes")
    assert record["residual"] is None and record["status"] == "fail"
    assert report["certificate"]["verdict"] == "inconclusive"
    assert reverify(report)
    # the same report, made consistent except that the null residual
    # claims a pass, is rejected
    record["status"] = "pass"
    report["checks"][-1]["status"] = "pass"
    report["certificate"]["verdict"] = "not_local_max"
    report["status"] = "pass"
    assert not reverify(report)


def test_reverify_rejects_a_verdict_the_records_contradict(recorded,
                                                          monkeypatch, capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs)
    assert main(["certify", "--N", "2"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert reverify(report)
    # a failing record under an unchanged not_local_max verdict
    for rec in report["checks"]:
        if rec["name"] == "n_tilde_vanishes":
            rec["residual"], rec["status"] = 1.0, "fail"
    report["status"] = "fail"
    assert not reverify(report)


def test_reverify_rechecks_the_third_variation_floor(recorded, monkeypatch,
                                                     capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs)
    assert main(["certify", "--N", "2"]) == 0
    report = parse_report(capsys.readouterr().out)
    record = _record(report, "third_variation_nonzero")
    value = record["detail"]["value"]
    floor = CERTIFICATE_CHECKS["third_variation_nonzero"]
    # nu''' = 0 in the record, still claiming a pass
    record["detail"]["value"] = 0.0
    assert not reverify(report)
    # ... and just below the floor
    record["detail"]["value"] = 0.99 * floor.tolerance
    assert not reverify(report)
    record["detail"]["value"] = value
    assert reverify(report)
    # the floor comes from the table, not from the report
    monkeypatch.setitem(CERTIFICATE_CHECKS, "third_variation_nonzero",
                        floor._replace(tolerance=2 * abs(value)))
    assert not reverify(report)


@pytest.fixture
def certificate_report(recorded):
    """The recorded certify(2) run as a parsed report."""
    checks, cert, _ = recorded
    report = build_report("certify", asdict(RunConfig(N=2)), checks, cert,
                          notes=[], timings={})
    return parse_report(dumps(report))


def _record(report, name):
    return next(rec for rec in report["checks"] if rec["name"] == name)


def _loosen(report):
    rec = _record(report, "eigen_residual")
    rec["tolerance"], rec["residual"] = 1.0, 0.5


def _null_tolerance(report):
    rec = _record(report, "n_tilde_vanishes")
    rec["tolerance"], rec["residual"] = None, 5.0


def _drop(report):
    report["checks"].remove(_record(report, "second_variation"))


def _verdict_only(report):
    report["checks"] = [_record(report, "verdict")]


def _swap(report):
    checks = report["checks"]
    checks[3], checks[4] = checks[4], checks[3]


def _reword(report):
    _record(report, "tau_prime")["identity"] = "tau' is small"


def _forge_closed(report):
    """|Hbar'| set to 10^6, which scales hbar_prime's tolerance to 10, and
    the tolerance set to match; the residual is left as it was."""
    rec = _record(report, "hbar_prime")
    rec["detail"]["closed"] = 1e6
    rec["tolerance"] = CERTIFICATE_CHECKS["hbar_prime"].tolerance * 1e6


def _double_nu3(report):
    """nu3 doubled in the floor record, which it still clears; the
    third_variation_exact record is left as it was."""
    _record(report, "third_variation_nonzero")["detail"]["value"] *= 2


def _null_exact_rational(report):
    report["certificate"]["third_variation"]["exact_rational"] = None


# Each tampered report keeps every record's status consistent with its own
# residual and tolerance, and the verdict with the statuses.
TAMPERINGS = {"loosened_tolerance": _loosen, "null_tolerance": _null_tolerance,
              "dropped_record": _drop, "verdict_only": _verdict_only,
              "swapped_records": _swap, "changed_identity": _reword,
              "forged_hbar_closed": _forge_closed,
              "doubled_nu3_value": _double_nu3,
              "null_exact_rational": _null_exact_rational}


@pytest.mark.parametrize("tamper", list(TAMPERINGS))
def test_reverify_checks_the_records_against_the_table(tamper,
                                                      certificate_report):
    assert reverify(certificate_report)
    TAMPERINGS[tamper](certificate_report)
    assert not reverify(certificate_report)


def _null_eigen_tolerance(report):
    rec = _record(report, "eigen_residual")
    rec["tolerance"], rec["residual"] = None, 5.0


# An eigen report has no certificate, but its eigen_residual record is the
# table's, so it must state the table's tolerance too.
@pytest.mark.parametrize("tamper", [_loosen, _null_eigen_tolerance],
                         ids=["loosened_tolerance", "null_tolerance"])
def test_reverify_checks_eigen_records_against_the_table(tamper, capsys):
    assert main(["eigen", "--N", "2", "--points", "5"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert reverify(report)
    tamper(report)
    assert not reverify(report)


def _number_leaves(tree):
    """Every float of a parsed report tree, as its absolute value, and every
    {num, den} rational, tagged so that 2/1 is not the float 2.0."""
    if isinstance(tree, float):
        yield abs(tree)
    elif isinstance(tree, dict) and set(tree) == {"num", "den"}:
        yield "rational", Fraction(int(tree["num"]), int(tree["den"]))
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _number_leaves(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _number_leaves(value)


def test_certificate_tree_repeats_no_record_value(certificate_report):
    # a signed copy counts: tau' in the tree against |tau'| in its record
    records = set(_number_leaves([[rec["residual"], rec.get("detail")]
                                  for rec in certificate_report["checks"]]))
    tree = list(_number_leaves(certificate_report["certificate"]))
    assert tree and not records.intersection(tree)
