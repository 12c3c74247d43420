import sys
from pathlib import Path

import pytest

import cpn_entropy.cli as cli
from cpn_entropy.cli import main
from cpn_entropy.report import (diff, dumps, parse_report, reverify,
                                strip_timings)


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
    assert by_name["final_coefficient"]["detail"]["final"] == \
        "(1*n + -2) * (4*pi*tau)^(-n/2) * I[phi^3]"
    code4, report4 = run(capsys, "algebra", "--n", "4", "--orders", "10")
    assert code4 == 0
    by_name4 = {c["name"]: c for c in report4["checks"]}
    assert by_name4["final_coefficient"]["detail"]["final"] == \
        "(2) * (4*pi*tau)^(-2) * I[phi^3]"


def test_certify_n2_certificate(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, report = run(capsys, "certify", "--N", "2", "--points", "60",
                       "--seed", "7", "--out", str(out))
    assert code == 0
    cert = report["certificate"]
    assert cert["verdict"] == "not_local_max"
    nu3 = {c["name"]: c for c in report["checks"]}[
        "third_variation_nonzero"]["detail"]["value"]
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

    def spy(cfg, timings):
        calls.append(cfg)
        return [], None

    monkeypatch.setitem(cli.VERBS, "certify",
                        cli.VERBS["certify"]._replace(run=spy))
    out = tmp_path / "missing" / "x.json"
    assert main(["certify", "--N", "4", "--out", str(out)]) == 2
    assert calls == []
    assert str(out) in capsys.readouterr().err


def _verb_spy(monkeypatch, verb):
    """Replace ``verb``'s suite by a spy that records its configs."""
    calls = []

    def spy(cfg, timings):
        calls.append(cfg)
        return [], None

    monkeypatch.setitem(cli.VERBS, verb, cli.VERBS[verb]._replace(run=spy))
    return calls


@pytest.mark.parametrize("verb", ["geometry", "eigen", "variation", "certify"])
def test_oversized_batch_is_found_before_the_verb_runs(verb, monkeypatch,
                                                       capsys):
    calls = _verb_spy(monkeypatch, verb)
    # one N = 4 batch of the default rows just fits; one more row does not
    rows = max(cli.RunConfig().points, cli._slab_rows(4))
    fits = rows * 8 ** 4 * 8 * cli._BATCH_PEAK_ARRAYS
    monkeypatch.setattr(cli, "_BATCH_BYTES_LIMIT", fits)
    assert main([verb, "--N", "4"]) == 0
    assert len(calls) == 1
    assert main([verb, "--N", "4", "--points", str(rows + 1)]) == 2
    assert main([verb, "--N", "5"]) == 2
    assert len(calls) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: a curvature batch of {rows + 1} rows")
    assert "GiB limit" in captured.err.splitlines()[-1]


@pytest.mark.parametrize("N,points,rows", [(2, 100, 1024), (4, 100, 100),
                                            (6, 1, 12)])
def test_curvature_estimate_reads_the_sweep_slab_rows(N, points, rows,
                                                      monkeypatch, capsys):
    # the larger of --points and the entropy sweep's slab rows at N
    calls = _verb_spy(monkeypatch, "certify")
    monkeypatch.setattr(cli, "_BATCH_BYTES_LIMIT", 0)
    assert main(["certify", "--N", str(N), "--points", str(points)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(
        f"error: a curvature batch of {rows} rows at N = {N}")


# argv -> the start of its error line
CANNOT_FIT = {
    ("certify", "--N", "50"): "a curvature batch of ",
    ("geometry", "--N", "4", "--points", "1000000"): "a curvature batch of ",
    # one point fits the curvature batch; the oracle's 40^4 cells do not
    ("geometry", "--N", "20", "--points", "1"):
        "the nested-dual metric oracle at N = 20 needs about 2.44 GiB",
    # nearly all of it the int phi^3 ladder's degree-4 rule
    ("certify", "--N", "8"):
        "the fixed quadrature of certify at N = 8 needs 2.58e+09 nodes",
    ("moments", "--N", "8"):
        "the volume quadrature at N = 8 needs 2.58e+09 nodes",
    # the Monte Carlo samples count against the node limit
    ("moments", "--N", "2", "--mc-samples", "10000000000"):
        "mc_samples must be <= 1e+09",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in CANNOT_FIT])
def test_runs_that_cannot_fit_exit_2(argv, monkeypatch, capsys):
    calls = _verb_spy(monkeypatch, argv[0])
    assert main(argv) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + CANNOT_FIT[tuple(argv)])


def test_certify_quadratures_at_n5_fit(monkeypatch):
    # 7.9e5 nodes, under the limit
    calls = _verb_spy(monkeypatch, "certify")
    assert main(["certify", "--N", "5"]) == 0
    assert len(calls) == 1
    # the same limit refuses them once it is one node lower: the sweep on
    # its 2^5 x 31-node lattice rule and on the moved rule, and the int
    # phi^3 ladder's 8^5- and 15^5-node rules
    monkeypatch.setattr(cli, "_VOLUME_NODES_LIMIT",
                        2 * 2 ** 5 * 31 + 8 ** 5 + 15 ** 5 - 1)
    assert main(["certify", "--N", "5"]) == 2
    assert len(calls) == 1


def test_certify_n8_is_refused_by_the_int_phi3_ladder(monkeypatch, capsys):
    calls = _verb_spy(monkeypatch, "certify")
    assert main(["certify", "--N", "8"]) == 2
    assert calls == []
    # the count it names is the int phi^3 ladder, 8^8 + 15^8 nodes, plus
    # the sweep's two digit-lattice rules of 2^8 x 3^8 nodes each
    sweep, ladder = 2 * 6 ** 8, 8 ** 8 + 15 ** 8
    assert capsys.readouterr().err == (
        f"error: the fixed quadrature of certify at N = 8 needs "
        f"{sweep + ladder:.3g} nodes, more than the 1e+09 node limit\n")
    assert sweep + ladder == sum(cli.rule_size(8, *orders)
                                 for orders in cli._certify_quadratures(8))
    # without the ladder the sweep's rules fit
    rules = cli._certify_quadratures(8)
    assert rules[:2] == (cli.exact_orders(2),) * 2
    monkeypatch.setattr(cli, "_certify_quadratures", lambda N: rules[:2])
    cli._check_size("certify", cli.RunConfig(N=8))
    # and at N = 6 and 7 the whole of it fits
    for N in (6, 7):
        cli._check_size("certify", cli.RunConfig(N=N))


@pytest.mark.parametrize("N", ["2", "3"])
def test_certify_node_limit_counts_the_rules_that_run(N, monkeypatch,
                                                      capsys):
    # every chart rule certify runs, through any module that binds
    # chart_nodes, is counted by the node limit, and nothing else is
    from cpn_entropy import quadrature

    rules = []
    original = quadrature.chart_nodes

    def spy(N, n_u, torus, *args, **kwargs):
        rules.append((n_u, torus))
        return original(N, n_u, torus, *args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.startswith("cpn_entropy."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, spy)
    assert main(["certify", "--N", N]) == 0
    capsys.readouterr()
    assert sorted(rules) == sorted(cli._certify_quadratures(int(N)))


def test_eigen_gram_matrix_that_cannot_fit_exits_2(monkeypatch, capsys):
    # no B_2 set is tabled at N = 8, so the exact degree-2 rule takes the
    # digit lattice, 2^8 x 3^8 = 6^8 nodes: the Gram node matrix outgrows
    # the curvature batch
    calls = _verb_spy(monkeypatch, "eigen")
    assert main(["eigen", "--N", "8"]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(
        "error: the Gram node matrix at N = 8 needs about 1 GiB")
    # phi of the 80 basis forms at 6^8 nodes, held once, just fits
    monkeypatch.setattr(cli, "_BATCH_BYTES_LIMIT", 6 ** 8 * 80 * 8)
    assert main(["eigen", "--N", "8"]) == 0
    monkeypatch.setattr(cli, "_GRAM_ORDERS", (2, 4))
    assert main(["eigen", "--N", "8"]) == 2
    assert len(calls) == 1


def test_moments_volume_quadrature_that_cannot_fit_exits_2(monkeypatch,
                                                          capsys):
    calls = _verb_spy(monkeypatch, "moments")
    assert main(["moments", "--N", "50", "--mc-samples", "10000"]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(
        "error: the volume quadrature at N = 50 needs 6.38e+58 nodes")
    # the ladder at N = 4: 2^4 4^4 + 3^4 5^4 nodes just fit, with fewer
    # Monte Carlo samples than that
    monkeypatch.setattr(cli, "_VOLUME_NODES_LIMIT", 8 ** 4 + 15 ** 4)
    assert main(["moments", "--N", "4", "--mc-samples", "10000"]) == 0
    assert main(["moments", "--N", "5", "--mc-samples", "10000"]) == 2
    assert len(calls) == 1


def test_moments_tol_sets_only_the_volume_gate(monkeypatch, capsys):
    # the volume quadrature runs the two rules the node limit counts,
    # whatever --tol asks
    from cpn_entropy import quadrature

    levels = []
    original = quadrature.cpn_integral

    def spy(func, N, n_u, torus):
        levels.append((n_u, torus))
        return original(func, N, n_u, torus)

    monkeypatch.setattr(quadrature, "cpn_integral", spy)
    code, report = run(capsys, "moments", "--N", "4", "--mc-samples", "10000",
                       "--tol", "1e-300")
    assert code == 0
    assert levels == list(quadrature.ADAPTIVE_ORDERS)
    volume = next(rec for rec in report["checks"]
                  if rec["name"] == "volume_quadrature")
    assert volume["status"] == "pass" and volume["tolerance"] == 1e-6


def test_suites_without_curvature_have_no_batch_limit(monkeypatch):
    calls = _verb_spy(monkeypatch, "moments")
    monkeypatch.setattr(cli, "_BATCH_BYTES_LIMIT", 0)
    assert main(["moments", "--N", "4"]) == 0
    assert len(calls) == 1


STAGES = ["eigen", "v", "n_tilde", "sweep", "first", "second", "third"]


def test_certify_times_each_stage_outside_the_digest():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import worker

    argv = ["certify", "--N", "2", "--seed", "1"]
    call = worker.run_call(cli, argv)
    problems, digest = worker.check_call(call, reverify)
    assert problems == []
    timings = parse_report(call["text"])["timings"]
    assert list(timings) == ["total_seconds"] + STAGES
    assert all(seconds >= 0 for seconds in timings.values())
    assert sum(timings[name] for name in STAGES) <= timings["total_seconds"]
    # the report up to ``timings`` is the pinned one, byte for byte
    from test_pinned_digests import SEED1_DIGESTS, _skip_unless_baseline_build

    _skip_unless_baseline_build()
    assert digest == SEED1_DIGESTS[tuple(argv)]


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


def test_report_diff_lists_changed_values_and_statuses(capsys):
    _, report = run(capsys, "certify", "--N", "2", "--points", "5")
    _, again = run(capsys, "certify", "--N", "2", "--points", "5")
    # the timings differ, and they are outside the diff
    assert diff(report, again) == []
    mutated = parse_report(dumps(report))
    for check in mutated["checks"]:
        if check["name"] == "tau_prime":
            residual = check["residual"]
            check["residual"] = 4 * residual
        if check["name"] == "hbar_prime":
            check["status"] = "fail"
    assert diff(report, mutated) == [
        f"checks[tau_prime].residual: {dumps(residual)} -> "
        f"{dumps(4 * residual)} (relative +3)",
        'checks[hbar_prime].status: "pass" -> "fail"']


def test_report_diff_reads_rationals_and_absent_keys():
    old = {"a": {"num": "9", "den": "5"}, "b": [1, 2], "c": None}
    new = {"a": {"num": "18", "den": "5"}, "b": [1], "d": "x"}
    assert diff(old, new) == [
        "a: 9/5 -> 18/5 (relative +1)", "b[1]: 2 -> absent",
        "c: null -> absent", 'd: absent -> "x"']


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


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"N=2\n\xff\xfe=3\n")
    assert main(["geometry", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config file {cfg} is not UTF-8\n"


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
