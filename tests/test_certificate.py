"""The certificate's gates: one table, one verdict, in the API and the CLI.

One real ``certify(2)`` run records every stage's return value.  The gate
tests replay those values with one stage pushed just past its tolerance,
so each case costs no recomputation.
"""

import sys

import numpy as np
import pytest

from cpn_entropy import entropy, geometry
from cpn_entropy.cli import RunConfig, main
from cpn_entropy.eigenfunctions import _phi_values, special_phi
from cpn_entropy.entropy import CERTIFICATE_CHECKS, ConformalPerturbation
from cpn_entropy.quadrature import cpn_integral, exact_orders
from cpn_entropy.report import dumps, parse_report, reverify

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
    return _on_both_rules(fv, "hbar_prime_fd", closed + _past(
        "hbar_prime", max(1.0, abs(closed))))


def _degree_d_plus_2(fv):
    """V' with a term of degree d + 2 = 3 added to its degree-1 integrand
    (n/2) phi: Re(w_1^3) / (1 + |w|^2)^3, of zero integral.  The degree-1
    rule's two phases of theta_1 cancel e^(3 i theta_1), so V' stays 0; the
    witness's three alias it."""
    form = special_phi(2)

    def integrand(w):
        return 2.0 * _phi_values(form, 0, w) + (w[:, 0] ** 3).real / (
            1.0 + np.sum(np.abs(w) ** 2, axis=1)) ** 3

    value, witness = (cpn_integral(integrand, 2, *exact_orders(degree))
                      for degree in (1, 2))
    assert abs(value) < CERTIFICATE_CHECKS["volume_prime"].tolerance
    return {**fv, "volume_prime": value,
            "witness": {**fv["witness"], "volume_prime": witness}}


def _entry_off(entries, key, **values):
    """``third_variation``'s entries with ``values`` set in entry ``key``."""
    return {**entries, key: {**entries[key], **values}}


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
    "quadrature_witness": ("first_variations", _degree_d_plus_2),
    "third_variation_cross_check": (
        "third_variation",
        lambda tv: _entry_off(tv, "phi3_integral", rel_diff=_past(
            "third_variation_cross_check"))),
    "third_variation_nonzero": (
        "third_variation",
        lambda tv: _entry_off(tv, "third_variation", value=0.99 * (
            CERTIFICATE_CHECKS["third_variation_nonzero"].tolerance))),
}


def _replay(monkeypatch, outputs, record=None):
    """Every stage returns its recorded first output; ``record``'s stage is
    pushed past its tolerance."""
    values = {stage: outs[0] for stage, outs in outputs.items()}
    if record is not None:
        stage, push = GATE_CASES[record]
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
    assert cert["verdict"] == "not_local_max" and cert["failures"] == []
    assert [rec["name"] for rec in checks] == list(CERTIFICATE_CHECKS)
    assert all(rec["status"] == "pass" for rec in checks)
    assert cert["thresholds"] == {"eigen": 1e-8, "nu2": 1e-7, "nu3_floor": 1e-3}


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
    # the 100 sample points, and tau's 20 points
    assert len(calls["curvature_batch"]) == 2
    assert len(set(calls["curvature_batch"])) == 2
    assert len(calls["einstein_tau"]) == 1


# The report's certificate tree, every nested key in print order.
CERTIFICATE_KEY_PATHS = [
    "N", "n", "normalization", "verdict",
    "tau", "tau.value", "tau.closed_form", "tau.provenance",
    "eigen_residual", "eigen_residual.value", "eigen_residual.identity",
    "eigen_residual.provenance",
    "v_residual", "v_residual.value", "v_residual.identity",
    "v_residual.provenance",
    "n_tilde_max", "n_tilde_max.value", "n_tilde_max.identity",
    "n_tilde_max.provenance",
    "first_variations",
    "first_variations.tau_prime", "first_variations.tau_prime.value",
    "first_variations.tau_prime.identity",
    "first_variations.tau_prime.provenance",
    "first_variations.volume_prime", "first_variations.volume_prime.value",
    "first_variations.volume_prime.identity",
    "first_variations.volume_prime.provenance",
    "first_variations.hbar_prime_closed",
    "first_variations.hbar_prime_closed.value",
    "first_variations.hbar_prime_closed.identity",
    "first_variations.hbar_prime_closed.provenance",
    "first_variations.hbar_prime_fd", "first_variations.hbar_prime_fd.value",
    "first_variations.hbar_prime_fd.provenance",
    "second_variation", "second_variation.value",
    "second_variation.error_estimate", "second_variation.identity",
    "second_variation.provenance",
    "phi3_average", "phi3_average.exact", "phi3_average.float",
    "phi3_average.provenance",
    "phi3_integral", "phi3_integral.exact_times_volume",
    "phi3_integral.quadrature", "phi3_integral.rel_diff",
    "phi3_integral.provenance",
    "third_variation", "third_variation.value",
    "third_variation.exact_rational", "third_variation.identity",
    "third_variation.provenance",
    "prefactor_ratio", "prefactor_ratio.value", "prefactor_ratio.identity",
    "prefactor_ratio.provenance",
    "minimizer_identity", "minimizer_identity.coefficient",
    "minimizer_identity.identity", "minimizer_identity.provenance",
    "thresholds", "thresholds.eigen", "thresholds.nu2", "thresholds.nu3_floor",
    "failures",
]


def _key_paths(tree, prefix=""):
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


def test_certificate_key_order():
    # the report prints keys in insertion order; this holds on every build,
    # where the byte digests of tests/test_report_bytes.py skip
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


@pytest.mark.parametrize("record", list(GATE_CASES))
def test_each_gate_flips_the_verdict(record, recorded, monkeypatch, capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs, record)
    _, cert = certify_n2()
    assert cert["verdict"] == "inconclusive"
    assert cert["failures"] == [record]
    assert main(["certify", "--N", "2"]) == 1
    report = parse_report(capsys.readouterr().out)
    failing = [rec["name"] for rec in report["checks"]
               if rec["status"] == "fail"]
    assert failing == [record, "verdict"]
    assert report["certificate"]["verdict"] == "inconclusive"
    assert report["certificate"]["failures"] == [record]
    assert reverify(report)


def test_nonfinite_stage_value_is_a_failing_record(recorded, monkeypatch,
                                                  capsys):
    *_, outputs = recorded
    _replay(monkeypatch, outputs)
    monkeypatch.setattr(entropy, "n_tilde_max",
                        lambda *args, **kwargs: float("nan"))
    _, cert = certify_n2()
    assert cert["verdict"] == "inconclusive"
    assert cert["failures"] == ["n_tilde_vanishes"]
    assert main(["certify", "--N", "2"]) == 1
    text = capsys.readouterr().out
    assert "NaN" not in text and "Infinity" not in text
    report = parse_report(text)
    record = next(rec for rec in report["checks"]
                  if rec["name"] == "n_tilde_vanishes")
    assert record["residual"] is None and record["status"] == "fail"
    assert report["certificate"]["n_tilde_max"]["value"] is None
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
    record = next(rec for rec in report["checks"]
                  if rec["name"] == "third_variation_nonzero")
    value = record["detail"]["value"]
    thresholds = report["certificate"]["thresholds"]
    floor = thresholds["nu3_floor"]
    # nu''' = 0 in the record and the certificate, still claiming a pass
    record["detail"]["value"] = 0.0
    report["certificate"]["third_variation"]["value"] = 0.0
    assert not reverify(report)
    # ... also with the stated floor lowered below zero
    thresholds["nu3_floor"] = -1.0
    assert not reverify(report)
    # the record alone disagreeing with the certificate's value
    thresholds["nu3_floor"] = floor
    report["certificate"]["third_variation"]["value"] = value
    assert not reverify(report)
    record["detail"]["value"] = value
    assert reverify(report)
    # a stated floor other than the certificate table's
    thresholds["nu3_floor"] = 2 * floor
    assert not reverify(report)
