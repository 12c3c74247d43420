"""Checks of the benchmark itself: its spec, the tracer and the exact counts.

    python3 -m pytest perfbench/tests -q

The traced workload checks run certify-small and suites twice each.
certify-n4 makes the same calls with N = 4 and takes minutes, so its case
runs only with PERFBENCH_N4=1 in the environment.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import cpn_entropy.cli as cli
import worker
from conftest import BENCH
from tracer import TARGETS, Tracer

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

CERTIFY_SPANS = [
    "cli.main", "report.report_bytes", "charts.sample_w", "jets.Jet.mul",
    "geometry.metric_arrays", "geometry.curvature_from_arrays",
    "geometry.curvature_batch", "geometry.einstein_tau",
    "eigenfunctions.phi_jet_batch", "eigenfunctions.phi_values_batch",
    "quadrature.chart_nodes", "quadrature.cpn_integral", "quadrature.adaptive",
    "entropy.eigen_residual", "entropy.v_of", "entropy.n_tilde_max",
    "entropy.n_tilde_batch", "entropy.first_variations",
    "entropy.second_variation", "entropy.third_variation", "entropy.certify",
]
SWEEP_SPANS = ["entropy.first_variations", "entropy.second_variation",
               "entropy.third_variation", "entropy.n_tilde_batch", "entropy.certify"]
# Which spans each workload must fire, and which it must not.
FIRES = {
    "certify-n4": (CERTIFY_SPANS, []),
    "certify-small": (CERTIFY_SPANS, []),
    "suites": ([
        "cli.main", "report.report_bytes", "charts.sample_w", "jets.Jet.mul",
        "geometry.metric_arrays", "geometry.curvature_from_arrays",
        "geometry.curvature_batch", "geometry.einstein_tau",
        "eigenfunctions.phi_jet_batch", "eigenfunctions.phi_values_batch",
        "quadrature.adaptive", "polynomials.evaluate", "polynomials.power",
        "polynomials.full_harmonic_expansion", "moments.polynomial_average",
        "moments.monte_carlo_average", "moments.cpn_volume",
        "variation.verify_lemma_suite", "variation.conformal_change_mismatch",
        "rewrite.reduce_third_variation", "rewrite.confluence_check",
    ], SWEEP_SPANS),
}
# Values that must repeat exactly between two traced runs of one seed.
EXACT = ("quadrature.nodes", "quadrature.max_batch", "quadrature.adaptive.nodes",
         "quadrature.adaptive.converged_share",
         "quadrature.adaptive.final_level_node_share",
         "geometry.curvature_bytes_per_batch", "trace.spans")


def test_spec_names_every_workload_and_metric_once():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert sorted(FIRES) == sorted(worker.WORKLOADS)


def test_tracer_patches_every_module_that_binds_the_name():
    from cpn_entropy import geometry, quadrature

    original = geometry.curvature_batch
    with Tracer() as tracer:
        assert geometry.curvature_batch is not original
        bound = tracer.patched
    assert geometry.curvature_batch is original
    for module in ("cli", "entropy", "variation", "eigenfunctions", "geometry"):
        assert f"cpn_entropy.{module}.curvature_batch" in bound["geometry.curvature_batch"]
    for module in ("entropy", "variation", "eigenfunctions"):
        assert f"cpn_entropy.{module}.phi_jet_batch" in bound["eigenfunctions.phi_jet_batch"]
    for module in ("cli", "entropy", "quadrature"):
        assert f"cpn_entropy.{module}.chart_nodes" in bound["quadrature.chart_nodes"]
    for module in ("entropy", "quadrature"):
        assert (f"cpn_entropy.{module}.adaptive_cpn_integral"
                in bound["quadrature.adaptive"])
    assert set(bound["jets.Jet.mul"]) == {"Jet.__mul__", "Jet.__rmul__"}
    assert quadrature.chart_nodes.__name__ == "chart_nodes"
    assert all(bound[name] for name, *_ in TARGETS)


def test_chart_nodes_times_only_its_own_next():
    from cpn_entropy import quadrature

    with Tracer() as tracer:
        batches = list(quadrature.chart_nodes(2, 4, 6, max_chunk=8))
        for _ in quadrature.chart_nodes(2, 4, 6, max_chunk=8):
            time.sleep(0.01)
    total = sum(len(weights) for _, weights in batches)
    row = tracer.summary()["quadrature.chart_nodes"]
    assert tracer.counts["quadrature.nodes"] == 2 * total == 2 * 16 * 36
    assert row["self_s"] < 0.01 * len(batches)


def traced_counts(workload: str, seed: int = 3) -> dict:
    calls = [argv + ["--seed", str(seed)] for argv in worker.WORKLOADS[workload]]
    with Tracer() as tracer:
        one_pass = worker.run_pass(cli, calls)
    for record in worker.check_passes([one_pass]):
        assert not record["problems"], record
    values = worker.layer_values(tracer, 0.0, 0.0, 0.0, {})
    return {key: value for key, value in values.items()
            if key.endswith((".calls", ".points")) or key in EXACT}


@pytest.mark.parametrize("workload", [
    pytest.param("certify-n4", marks=pytest.mark.skipif(
        not os.environ.get("PERFBENCH_N4"), reason="set PERFBENCH_N4=1")),
    "certify-small", "suites"])
def test_named_spans_fire_and_exact_counts_repeat(workload):
    first = traced_counts(workload)
    fires, silent = FIRES[workload]
    assert [name for name in fires if not first[f"{name}.calls"]] == []
    assert [name for name in silent if first[f"{name}.calls"]] == []
    assert traced_counts(workload) == first
