"""Fixed-batch layer probes: one layer call on a fixed input, timed alone.

Every probe runs at least ``REPEATS`` times and for at least
``MIN_SECONDS``, and reports the median seconds of one call.  Inputs
come from the run's seed; sizes are fixed so that numbers from different
commits compare the same work.
"""

from __future__ import annotations

import statistics
import time

BATCH = 4096
REPEATS = 3
MIN_SECONDS = 0.2


def _median_seconds(fn, *args, **kwargs):
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_probes(seed: int) -> dict[str, float]:
    from cpn_entropy.charts import sample_w
    from cpn_entropy.eigenfunctions import phi_jet_batch, special_phi
    from cpn_entropy.entropy import ConformalPerturbation, n_tilde_batch
    from cpn_entropy.geometry import curvature_from_arrays, metric_arrays
    from cpn_entropy.moments import polynomial_average
    from cpn_entropy.polynomials import BihomogeneousPolynomial
    from cpn_entropy.rewrite import confluence_check, reduce_third_variation

    out = {}
    for N in (2, 4):
        tag = f"N{N}.B{BATCH}"
        w = sample_w(N, BATCH, seed)
        out[f"probe.metric_arrays.{tag}.s"], arrays = _median_seconds(
            metric_arrays, w)
        out[f"probe.curvature_from_arrays.{tag}.s"], geom = _median_seconds(
            curvature_from_arrays, *arrays)
        del arrays
        out[f"probe.phi_jet_batch.{tag}.s"], _ = _median_seconds(
            phi_jet_batch, special_phi(N), 0, w)
        out[f"probe.n_tilde_batch.{tag}.s"], _ = _median_seconds(
            n_tilde_batch, ConformalPerturbation.special(N), w, geom)
        del geom
    phi3 = BihomogeneousPolynomial.from_form(special_phi(6)).power(3)
    out["probe.polynomial_average_phi3.N6.s"], _ = _median_seconds(
        polynomial_average, 7, phi3)
    out["probe.reduce_third_variation.symbolic.s"], _ = _median_seconds(
        reduce_third_variation, "symbolic")
    out["probe.confluence_check.orders100.s"], _ = _median_seconds(
        confluence_check, "symbolic", orders=100, seed=seed)
    return out
