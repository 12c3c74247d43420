"""The certificate's gates: one table, one verdict, in the API and the CLI.

One real ``certify(2)`` run records every stage's return value.  The gate
tests replay those values with one stage pushed just past its tolerance,
so each case costs no recomputation.
"""

from dataclasses import replace

import pytest

from cpn_entropy import entropy
from cpn_entropy.cli import main
from cpn_entropy.entropy import CERTIFICATE_CHECKS, ConformalPerturbation
from cpn_entropy.report import dumps, parse_report, reverify

STAGES = ("v_of", "n_tilde_max", "_geometry_sweep", "first_variations",
          "second_variation", "third_variation")


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
        cert = entropy.certify(2)
    return cert, outputs


def _past(name, scale=1.0):
    return 1.01 * CERTIFICATE_CHECKS[name].tolerance * scale


def _hbar_off(fv):
    closed = fv["hbar_prime_closed"]
    return {**fv, "hbar_prime_fd": closed + _past("hbar_prime",
                                                  max(1.0, abs(closed)))}


# gated record -> (stage, the recorded stage value pushed past tolerance)
GATE_CASES = {
    "eigen_residual": ("eigen_residual", lambda _: _past("eigen_residual")),
    "v_solution": ("v_of", lambda v: replace(v, residual=_past("v_solution"))),
    "n_tilde_vanishes": ("n_tilde_max", lambda _: _past("n_tilde_vanishes")),
    "tau_prime": ("first_variations",
                  lambda fv: {**fv, "tau_prime": _past("tau_prime")}),
    "volume_prime": ("first_variations",
                     lambda fv: {**fv, "volume_prime": -_past("volume_prime")}),
    "hbar_prime": ("first_variations", _hbar_off),
    "second_variation": ("second_variation",
                         lambda nu2: (-_past("second_variation"), nu2[1])),
    "third_variation_cross_check": (
        "third_variation",
        lambda tv: replace(tv, quadrature_rel_diff=_past(
            "third_variation_cross_check"))),
    "third_variation_nonzero": (
        "third_variation",
        lambda tv: replace(tv, value=0.99 * CERTIFICATE_CHECKS[
            "third_variation_nonzero"].tolerance)),
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
    cert, outputs = recorded
    # fine (shared by tau' and nu'') and coarse (nu'' error estimate)
    assert len(outputs["_geometry_sweep"]) == 2
    assert all(len(outputs[stage]) == 1 for stage in STAGES
               if stage != "_geometry_sweep")
    assert cert.verdict == "not_local_max" and cert.failures == []
    assert [rec["name"] for rec in cert.checks] == list(CERTIFICATE_CHECKS)
    assert all(rec["status"] == "pass" for rec in cert.checks)
    assert cert.thresholds == {"eigen": 1e-8, "nu2": 1e-7, "nu3_floor": 1e-3}


def test_replayed_stages_reproduce_the_certificate(recorded, monkeypatch,
                                                   capsys):
    cert, outputs = recorded
    _replay(monkeypatch, outputs)
    assert entropy.certify(2).checks == cert.checks
    assert main(["certify", "--N", "2"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert dumps(report["checks"]) == dumps(cert.checks)
    assert reverify(report)


@pytest.mark.parametrize("record", list(GATE_CASES))
def test_each_gate_flips_the_verdict(record, recorded, monkeypatch, capsys):
    _, outputs = recorded
    _replay(monkeypatch, outputs, record)
    cert = entropy.certify(2)
    assert cert.verdict == "inconclusive"
    assert cert.failures == [record]
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
    _, outputs = recorded
    _replay(monkeypatch, outputs)
    monkeypatch.setattr(entropy, "n_tilde_max",
                        lambda *args, **kwargs: float("nan"))
    cert = entropy.certify(2)
    assert cert.verdict == "inconclusive"
    assert cert.failures == ["n_tilde_vanishes"]
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
    _, outputs = recorded
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
