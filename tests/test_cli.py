import pytest

import cpn_entropy.cli as cli
from cpn_entropy.cli import main
from cpn_entropy.report import dumps, parse_report, reverify, strip_timings


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (parse_report(out) if out.strip() else None)


def test_geometry_passes_and_records_scalar_curvature(capsys):
    code, report = run(capsys, "geometry", "--N", "2", "--points", "40",
                       "--seed", "7")
    assert code == 0
    assert report["status"] == "pass"
    by_name = {c["name"]: c for c in report["checks"]}
    assert abs(by_name["scalar_constant"]["detail"]["R"] - 24.0) < 1e-9
    assert by_name["einstein"]["identity"] == "ric = g/(2 tau)"


def test_geometry_n1_scalar_curvature(capsys):
    code, report = run(capsys, "geometry", "--N", "1", "--points", "30")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert abs(by_name["scalar_constant"]["detail"]["R"] - 8.0) < 1e-9


def test_geometry_rejects_n0(capsys):
    assert main(["geometry", "--N", "0"]) == 2


def test_eigen_counts_basis(capsys):
    for N, count in ((2, 8), (3, 15)):
        code, report = run(capsys, "eigen", "--N", str(N), "--points", "30")
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["eigenspace_dimension"]["detail"]["count"] == count


def test_eigen_reports_are_deterministic(capsys):
    _, a = run(capsys, "eigen", "--N", "2", "--seed", "7", "--points", "20")
    _, b = run(capsys, "eigen", "--N", "2", "--seed", "7", "--points", "20")
    assert dumps(strip_timings(a)) == dumps(strip_timings(b))


def test_moments_exact_and_mc(capsys):
    code, report = run(capsys, "moments", "--N", "2", "--mc-samples", "100000")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cubic_average"]["detail"]["value"] == {
        "num": "1", "den": "5"}
    assert any("S^(2N+1)" in note for note in report["notes"])


def test_moments_n3_value(capsys):
    code, report = run(capsys, "moments", "--N", "3", "--mc-samples", "50000")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["cubic_average"]["detail"]["value"] == {
        "num": "1", "den": "10"}


def test_moments_rejects_small_mc(capsys):
    assert main(["moments", "--N", "2", "--mc-samples", "100"]) == 2


def test_variation_suite_cli(capsys):
    code, report = run(capsys, "variation", "--N", "2", "--points", "10",
                       "--seed", "7")
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert "ricci_order2" in names and "mutation_sensitivity" in names


def test_variation_mutation_flag_fails_named_formula(capsys):
    code, report = run(capsys, "variation", "--N", "2", "--points", "5",
                       "--mutate", "laplacian:1:grad")
    assert code == 1
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failing == ["laplacian_order1"]


@pytest.mark.parametrize("spec,message", [
    ("foo:1:x", "error: unknown formula ('foo', 1)"),
    ("laplacian:1:nope", "error: unknown coefficient 'nope' of ('laplacian', 1)"),
    ("laplacian:one:grad", "error: --mutate expects QUANTITY:ORDER:COEFFICIENT"),
])
def test_variation_bad_mutation_is_usage_error(spec, message, capsys):
    assert main(["variation", "--N", "2", "--points", "2", "--mutate", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_algebra_symbolic_and_numeric(capsys):
    code, report = run(capsys, "algebra", "--orders", "25")
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["normal_form"]["detail"]["final"] == \
        "(1*n + -2) * (4*pi*tau)^(-n/2) * I[phi^3]"
    code4, report4 = run(capsys, "algebra", "--n", "4", "--orders", "10")
    assert code4 == 0
    by_name4 = {c["name"]: c for c in report4["checks"]}
    assert by_name4["normal_form"]["detail"]["final"] == \
        "(2) * (4*pi*tau)^(-2) * I[phi^3]"


def test_certify_n2_certificate(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, report = run(capsys, "certify", "--N", "2", "--points", "60",
                       "--seed", "7", "--out", str(out))
    assert code == 0
    cert = report["certificate"]
    assert cert["verdict"] == "not_local_max"
    nu3 = cert["third_variation"]["value"]
    assert abs(nu3 - 1.8) < 1e-5 * 1.8
    assert cert["third_variation"]["exact_rational"] == {"num": "9", "den": "5"}
    # the written file carries the same payload
    on_disk = parse_report(out.read_text())
    assert dumps(strip_timings(on_disk)) == dumps(strip_timings(report))


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_is_usage_error(where, capsys, tmp_path):
    out = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    assert main(["eigen", "--N", "2", "--points", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(out) in captured.err


def test_unwritable_out_is_found_before_the_verb_runs(monkeypatch, capsys,
                                                     tmp_path):
    calls = []

    def spy(cfg):
        calls.append(cfg)
        return [], None

    monkeypatch.setitem(cli.VERBS, "certify",
                        cli.VERBS["certify"]._replace(run=spy))
    out = tmp_path / "missing" / "x.json"
    assert main(["certify", "--N", "4", "--out", str(out)]) == 2
    assert calls == []
    assert str(out) in capsys.readouterr().err


def test_failed_run_leaves_an_existing_out_file_unchanged(capsys, tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"earlier report\n")
    assert main(["moments", "--mc-samples", "5", "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier report\n"
    assert capsys.readouterr().out == ""


def test_certify_n1_fails_with_reason(capsys):
    code, report = run(capsys, "certify", "--N", "1")
    assert code == 1
    assert report["status"] == "fail"
    assert "requires N >= 2" in report["checks"][0]["detail"]["reason"]


def test_certificate_roundtrip_reverification(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, _ = run(capsys, "certify", "--N", "2", "--points", "40",
                  "--seed", "7", "--out", str(out))
    assert code == 0
    report = parse_report(out.read_text())
    assert reverify(report)
    # tampering with a recorded residual breaks the round trip
    for check in report["checks"]:
        if check["name"] == "second_variation":
            check["residual"] = 1.0
    assert not reverify(report)


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=3\npoints=15\nseed=11\n")
    code, report = run(capsys, "eigen", "--config", str(cfg))
    assert code == 0
    assert report["config"]["N"] == 3
    assert report["config"]["points"] == 15
    code2, report2 = run(capsys, "eigen", "--config", str(cfg), "--N", "2")
    assert report2["config"]["N"] == 2
    assert report2["config"]["points"] == 15


def test_every_config_key_is_read_typed_and_overridden_by_its_flag(
        capsys, tmp_path):
    out = tmp_path / "report.json"
    expected = {"N": 2, "points": 5, "seed": 3, "mc_samples": 20000,
                "tol": 1e-7, "out": str(out), "n": "4", "orders": 5,
                "mutate": "laplacian:1:grad"}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in expected.items()))
    code, report = run(capsys, "eigen", "--config", str(cfg))
    assert code == 0
    assert report["config"] == expected
    for key, value in expected.items():
        assert type(report["config"][key]) is type(value), key
    assert parse_report(out.read_text())["config"] == expected
    code, report = run(capsys, "eigen", "--config", str(cfg), "--N", "3",
                       "--tol", "1e-5")
    assert code == 0
    assert report["config"] == {**expected, "N": 3, "tol": 1e-5}
    code, report = run(capsys, "algebra", "--config", str(cfg), "--n", "6",
                       "--orders", "2")
    assert code == 0
    assert (report["config"]["n"], report["config"]["orders"]) == ("6", 2)


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=3\n")
    assert main(["eigen", "--config", str(cfg)]) == 2


def test_malformed_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tol=abc\n")
    assert main(["eigen", "--config", str(cfg)]) == 2
    assert "error: bad value 'abc' for config key 'tol'" in capsys.readouterr().err


def test_missing_config_file_is_usage_error():
    assert main(["eigen", "--config", "/nonexistent/path.cfg"]) == 2


def test_floats_serialized_with_17_significant_digits():
    text = dumps({"x": 1.8})
    assert text == '{"x":1.8000000000000000}'


def test_nonfinite_floats_serialized_as_null():
    nonfinite = [float("nan"), float("inf"), float("-inf")]
    assert dumps({"x": nonfinite}) == '{"x":[null,null,null]}'


def test_gate_fails_a_nonfinite_residual():
    from cpn_entropy.report import gate

    assert gate("a", "a = 0", 0.5, 1.0, "pointwise")["status"] == "pass"
    assert gate("a", "a = 0", 1.0, 1.0, "pointwise")["status"] == "fail"
    for value in (float("nan"), float("inf"), float("-inf")):
        assert gate("a", "a = 0", value, 1.0, "pointwise")["status"] == "fail"


def test_nonfinite_eigen_residual_is_a_failing_record(capsys, monkeypatch):
    import cpn_entropy.cli as cli

    monkeypatch.setattr(cli, "verify_eigen", lambda *args: float("nan"))
    assert main(["eigen", "--N", "2", "--points", "5"]) == 1
    text = capsys.readouterr().out
    assert "NaN" not in text and "Infinity" not in text
    report = parse_report(text)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["eigen_residual"]["residual"] is None
    assert by_name["eigen_residual"]["status"] == "fail"
    assert report["status"] == "fail"
    assert reverify(report)
    # a null residual under a tolerance can never pass
    by_name["eigen_residual"]["status"] = "pass"
    report["status"] = "pass"
    assert not reverify(report)


def test_eigen_residual_gate_reads_the_certificate_table(capsys, monkeypatch):
    from cpn_entropy.entropy import CERTIFICATE_CHECKS, Gate

    monkeypatch.setitem(CERTIFICATE_CHECKS, "eigen_residual",
                        Gate("phi = 0", 1e-300, "table"))
    code, report = run(capsys, "eigen", "--N", "2", "--points", "5")
    record = {c["name"]: c for c in report["checks"]}["eigen_residual"]
    assert code == 1 and record["status"] == "fail"
    assert (record["identity"], record["tolerance"], record["provenance"]) == (
        "phi = 0", 1e-300, "table")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_tol_is_usage_error(value, capsys, tmp_path):
    assert main(["moments", "--N", "2", "--mc-samples", "10000",
                 "--tol", value]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol={value}\n")
    assert main(["eigen", "--N", "2", "--points", "5",
                 "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: tol must be positive and finite") == 2


@pytest.mark.parametrize("verb", ["geometry", "eigen", "moments", "variation",
                                  "algebra", "certify"])
def test_negative_seed_is_usage_error(verb, capsys):
    assert main([verb, "--N", "2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: seed must be >= 0" in captured.err


@pytest.mark.parametrize("value", ["3", "0", "-4", "four"])
def test_n_other_than_symbolic_or_positive_even_is_usage_error(value, capsys):
    assert main(["algebra", "--n", value, "--orders", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: --n must be 'symbolic' or a positive even integer"
            in captured.err)
