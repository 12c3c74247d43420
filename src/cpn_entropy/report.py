"""Deterministic machine-readable reports and the certificate round trip.

Reports are single JSON documents with a stable field order.  Serialization
is handled by a small writer rather than ``json.dumps`` so that the byte
output is fully pinned: floats are decimal with 17 significant digits
(``null`` when not finite, which JSON cannot represent), rationals are
{"num": "...", "den": "..."} string pairs, and key order is insertion
order.  Wall-clock timings live in a dedicated ``timings`` field
that determinism comparisons exclude.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import __version__


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    # '#' keeps trailing zeros: exactly 17 significant digits, round-trip safe
    return format(float(x), "#.17g")


def dumps(obj) -> str:
    """Deterministic JSON text for the report object tree."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, Fraction):
        _write({"num": str(obj.numerator), "den": str(obj.denominator)}, out)
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _write(val, out)
        out.append("]")
    else:
        raise TypeError(f"unsupported report value type {type(obj)!r}")


def check(name: str, identity: str, passed: bool, residual=None,
          tolerance=None, provenance: str = "", detail: dict | None = None) -> dict:
    """One verification record; ``identity`` is the formula being checked."""
    rec = {
        "name": name,
        "identity": identity,
        "status": "pass" if passed else "fail",
        "residual": residual,
        "tolerance": tolerance,
        "provenance": provenance,
    }
    if detail is not None:
        rec["detail"] = detail
    return rec


def gate(name: str, identity: str, residual: float, tol: float,
         provenance: str, detail: dict | None = None) -> dict:
    """A record that passes iff ``residual < tol``.

    A non-finite residual fails; it is written as ``null``.
    """
    passed = math.isfinite(residual) and residual < tol
    return check(name, identity, passed, residual, tol, provenance, detail)


def build_report(command: str, config: dict, checks: list,
                 certificate: dict | None = None,
                 notes: list | None = None,
                 timings: dict | None = None) -> dict:
    report = {
        "version": __version__,
        "command": command,
        "config": config,
        "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
        "checks": checks,
    }
    if notes:
        report["notes"] = notes
    if certificate is not None:
        report["certificate"] = certificate
    report["timings"] = timings or {}
    return report


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def report_bytes(report: dict, with_timings: bool = True) -> bytes:
    obj = report if with_timings else strip_timings(report)
    return (dumps(obj) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# round trip


def parse_report(text: str) -> dict:
    return json.loads(text)


def reverify(report: dict) -> bool:
    """Re-check recorded residuals against tolerances without recomputation.

    Returns True iff every record with a tolerance is consistent with its
    recorded status (a null residual, written for a non-finite value, must
    fail), the overall status equals the conjunction of the records, and,
    for a certificate, its verdict is ``not_local_max`` exactly when every
    record other than the final ``verdict`` record passes, which that
    record restates.
    """
    checks = report.get("checks", [])
    ok = True
    for rec in checks:
        residual = rec.get("residual")
        tolerance = rec.get("tolerance")
        if tolerance is None:
            continue
        within = residual is not None and abs(float(residual)) < float(tolerance)
        if within != (rec["status"] == "pass"):
            ok = False
    all_pass = all(rec["status"] == "pass" for rec in checks)
    if (report.get("status") == "pass") != all_pass:
        ok = False
    cert = report.get("certificate")
    if cert is not None:
        certified = cert.get("verdict") == "not_local_max"
        gated = all(rec["status"] == "pass" for rec in checks
                    if rec["name"] != "verdict")
        stated = [rec["status"] == "pass" for rec in checks
                  if rec["name"] == "verdict"]
        if certified != gated or stated != [certified]:
            ok = False
    return ok


# ---------------------------------------------------------------------------
# certificate serialization


def _rational(fr: Fraction | None):
    return None if fr is None else Fraction(fr)


def certificate_to_dict(cert) -> dict:
    """StabilityCertificate -> ordered report tree with provenance tags."""
    tv = cert.third_variation
    return {
        "N": cert.N,
        "n": 2 * cert.N,
        "normalization": cert.normalization,
        "verdict": cert.verdict,
        "tau": {"value": cert.tau,
                "closed_form": Fraction(1, 4 * (cert.N + 1)),
                "provenance": "n/(2R) at seeded sample points"},
        "eigen_residual": {"value": cert.eigen_residual,
                           "identity": "(lap + 1/tau) phi = 0",
                           "provenance": "pointwise"},
        "v_residual": {"value": cert.v_residual,
                       "identity": "(lap + 1/(2 tau)) v = div div h, v = 2 phi",
                       "provenance": "pointwise"},
        "n_tilde_max": {"value": cert.n_tilde_max,
                        "identity": "Ntilde(phi g) = 0",
                        "provenance": "pointwise"},
        "first_variations": {
            "tau_prime": {"value": cert.first_variations["tau_prime"],
                          "identity": "tau' = 0",
                          "provenance": "quadrature"},
            "volume_prime": {"value": cert.first_variations["volume_prime"],
                             "identity": "V' = 0",
                             "provenance": "quadrature"},
            "hbar_prime_closed": {
                "value": cert.first_variations["hbar_prime_closed"],
                "identity": "Hbar' = n(n-2)/(2V) ||phi||^2",
                "provenance": "exact"},
            "hbar_prime_fd": {"value": cert.first_variations["hbar_prime_fd"],
                              "provenance": "quadrature finite differences"},
        },
        "second_variation": {"value": cert.second_variation,
                             "error_estimate": cert.second_variation_error,
                             "identity": "(tau/V) int <N(h), h> dV = 0",
                             "provenance": "quadrature"},
        "phi3_average": {"exact": _rational(tv.phi3_average),
                         "float": float(tv.phi3_average),
                         "provenance": "exact"},
        "phi3_integral": {"exact_times_volume": tv.phi3_integral_exact,
                          "quadrature": tv.phi3_integral_quadrature,
                          "rel_diff": tv.quadrature_rel_diff,
                          "provenance": "both"},
        "third_variation": {"value": tv.value,
                            "exact_rational": _rational(tv.exact_rational),
                            "identity":
                                "nu''' = (n-2) (4 pi tau)^(-n/2) int phi^3 dV",
                            "provenance": "both"},
        "prefactor_ratio": {"value": cert.prefactor_ratio,
                            "identity": "V / (4 pi tau)^(n/2)",
                            "provenance": "exact"},
        "minimizer_identity": {"coefficient": _rational(cert.minimizer_identity),
                               "identity": "-2 f' + H = 2 phi = v",
                               "provenance": "exact"},
        "thresholds": cert.thresholds,
        "failures": list(cert.failures),
    }
