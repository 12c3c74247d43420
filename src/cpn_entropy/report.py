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
                 certificate: dict | None, notes: list,
                 timings: dict) -> dict:
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
    report["timings"] = timings
    return report


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def report_bytes(report: dict) -> bytes:
    return (dumps(report) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# round trip


def parse_report(text: str) -> dict:
    return json.loads(text)


def reverify(report: dict) -> bool:
    """Re-check recorded residuals against tolerances without recomputation.

    Returns True iff every record with a tolerance is consistent with its
    recorded status (a null residual, written for a non-finite value, must
    fail), every record named in ``entropy.CERTIFICATE_CHECKS`` states that
    entry (``_states_the_table``), and the overall status equals the
    conjunction of the records.  A report with a certificate must also hold
    ``_certificate_holds``.
    """
    from .entropy import CERTIFICATE_CHECKS

    checks = report.get("checks", [])
    ok = all(_states_the_table(rec, CERTIFICATE_CHECKS) for rec in checks)
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
    return ok and (cert is None or _certificate_holds(checks, cert,
                                                      CERTIFICATE_CHECKS))


def _states_the_table(rec: dict, table: dict) -> bool:
    """Whether a record states the identity, tolerance and provenance of
    its ``table`` entry; a record named in no entry does.

    The ``third_variation_nonzero`` floor states no tolerance, since it is
    checked against its value, and ``hbar_prime``'s relative tolerance is
    left to ``_certificate_holds``.
    """
    spec = table.get(rec.get("name"))
    if spec is None:
        return True
    tolerance = {"third_variation_nonzero": None,
                 "hbar_prime": rec.get("tolerance")}.get(rec["name"],
                                                         spec.tolerance)
    return ((rec.get("identity"), rec.get("tolerance"), rec.get("provenance"))
            == (spec.identity, tolerance, spec.provenance))


def _certificate_holds(checks: list, cert: dict, table: dict) -> bool:
    """The records of a certificate against the ``table`` of its checks.

    The record names are the table's, in its order.  ``hbar_prime``'s
    tolerance is the table's scaled by max(1, |detail.closed|), so its
    residual must be |detail.quadrature - detail.closed|.
    ``third_variation_exact``'s residual must be |nu3 - exact| / |exact|,
    from the ``third_variation_nonzero`` record's detail.value and the
    tree's ``third_variation.exact_rational``; a null exact rational gives
    a null residual, so a failing record.  The two records with no
    tolerance are the ``third_variation_nonzero`` floor, which passes
    exactly when |detail.value| exceeds the table's floor, and the final
    ``verdict``, which passes exactly when every other record passes, as
    the certificate's verdict states.
    """
    if [rec.get("name") for rec in checks] != list(table):
        return False
    by_name = {rec["name"]: rec for rec in checks}
    hbar = by_name["hbar_prime"].get("detail", {})
    closed, quad = hbar.get("closed"), hbar.get("quadrature")
    # the closed form is exact, so never null; a null quadrature value has
    # a null residual
    if closed is None or by_name["hbar_prime"]["residual"] != (
            None if quad is None else abs(quad - closed)):
        return False
    if by_name["hbar_prime"]["tolerance"] != (
            table["hbar_prime"].tolerance * max(1.0, abs(closed))):
        return False
    floor = table["third_variation_nonzero"].tolerance
    nu3 = by_name["third_variation_nonzero"]
    value = nu3.get("detail", {}).get("value")
    above = value is not None and abs(float(value)) > floor
    exact = _leaf(cert.get("third_variation", {}).get("exact_rational"))
    if by_name["third_variation_exact"]["residual"] != (
            abs(value - float(exact)) / abs(float(exact))
            if exact and value is not None else None):
        return False
    gated = all(rec["status"] == "pass" for rec in checks[:-1])
    return (above == (nu3["status"] == "pass")
            and (checks[-1]["status"] == "pass") == gated
            and cert.get("verdict") == ("not_local_max" if gated
                                        else "inconclusive"))


# ---------------------------------------------------------------------------
# value diff

_ABSENT = object()    # a key present on the other side only


def diff(old: dict, new: dict) -> list[str]:
    """The values two parsed reports disagree on, timings excluded.

    One line per changed leaf, in key order: its path, the old and the new
    value, and for two numbers the relative change (new - old) / |old|.  A
    record in a list of records is named by its ``name``, so a record whose
    ``status`` changed reads ``checks[name].status: "pass" -> "fail"``.
    A rational, written as {"num", "den"}, is one leaf, and a key present
    on one side only is one line with the value ``absent`` on the other.
    """
    lines: list[str] = []
    _diff(strip_timings(old), strip_timings(new), "", lines)
    return lines


def _leaf(value):
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return Fraction(int(value["num"]), int(value["den"]))
    return value


def _children(value) -> dict:
    """Path suffix -> child of a dict or a list; records go by name."""
    if isinstance(value, dict):
        return {f".{key}": child for key, child in value.items()}
    if value and all(isinstance(v, dict) and "name" in v for v in value):
        return {f"[{v['name']}]": v for v in value}
    return {f"[{i}]": child for i, child in enumerate(value)}


def _text(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return "absent" if value is _ABSENT else dumps(value)


def _diff(old, new, path: str, lines: list) -> None:
    old, new = _leaf(old), _leaf(new)
    if type(old) is type(new) and isinstance(old, (dict, list)):
        a, b = _children(old), _children(new)
        for key in [*a, *(k for k in b if k not in a)]:
            _diff(a.get(key, _ABSENT), b.get(key, _ABSENT), path + key, lines)
        return
    if type(old) is type(new) and old == new:
        return
    line = f"{path.lstrip('.')}: {_text(old)} -> {_text(new)}"
    numbers = all(isinstance(v, (int, float, Fraction))
                  and not isinstance(v, bool) for v in (old, new))
    if numbers and old:
        line += f" (relative {float((new - old) / abs(old)):+.3g})"
    lines.append(line)
