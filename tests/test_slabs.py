"""Row slabs of the entropy sweep: no bit depends on the slab.

The geometry kernels are plain batch functions: each row must come out bit
for bit as if computed alone, and within a few ulp of the reference kernels
below.  The entropy sweep builds each ``entropy._slab_rows(N)``-row slab's
metric arrays and psi jet and turns them into the slab's integrands, and
sums each ``chart_nodes`` chunk with one ``np.dot``.  No sum may depend on
the slab size, the package starts no thread, and the sweep's memory holds
one slab, not a chunk.
"""

import functools
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cpn_entropy
from cpn_entropy import eigenfunctions, entropy, geometry, quadrature
from cpn_entropy.charts import sample_w
from cpn_entropy.jets import Jet
from cpn_entropy.quadrature import exact_orders

SLAB = entropy._slab_rows(3)
# three slabs, the last of them a single row
ROWS = 2 * SLAB + 1
PROBE_ROWS = (0, SLAB - 1, SLAB, 2 * SLAB - 1, 2 * SLAB)
CURVATURE_FIELDS = ("g", "g_inv", "Gamma", "Riem", "Ric", "R")
RICCI_FIELDS = ("g_inv", "Gamma", "Ric", "R")
# Bound on the tracemalloc peak of the N = 4 sweep on its exact rule (6
# slabs of at most 64 rows in one 336-row chunk), measured at 3.94 MiB in
# each of 5 runs (4.72 MiB while ``metric_arrays`` wrote d2g from a
# complex Hessian, 7.24 MiB with the full Riemann kernel): one slab's
# arrays at their peak, about 1.9 of its 2 MiB (2N)^4 arrays while the
# Ricci kernel holds d2g and its d^3-sized arrays, and the chunk.  The
# chunk's curvature at once would take about 50 MiB.  The bound was 8 MiB
# over the full Riemann kernel's peak and 6 MiB over the complex Hessian's.
PEAK_BOUND = 5 * 2 ** 20


def _slab_outputs(w):
    h = entropy.ConformalPerturbation.special(w.shape[1])
    geom = geometry.curvature_batch(w)
    out = dict(zip(("metric_g", "metric_dg", "metric_d2g"),
                   geometry.metric_arrays(w)))
    out.update({name: getattr(geom, name) for name in CURVATURE_FIELDS})
    ricci = geometry._ricci_rows(*geometry.metric_arrays(w))
    out.update({"ricci_" + name: value
                for name, value in zip(RICCI_FIELDS, ricci)})
    out["n_tilde"] = entropy.n_tilde_batch(h, w, geom)
    psi = h.psi_jet(w)
    out.update(psi_val=psi.val, psi_grad=psi.grad, psi_hess=psi.hess)
    out["psi_values"] = eigenfunctions.phi_values_batch(h.form, 0, w)
    return out


@pytest.fixture(scope="module")
def batch():
    w = sample_w(3, ROWS, seed=11)
    return w, _slab_outputs(w)


def test_each_row_equals_the_row_computed_alone(batch):
    w, full = batch
    for row in PROBE_ROWS:
        alone = _slab_outputs(w[row:row + 1])
        for name, values in full.items():
            assert np.array_equal(values[row], alone[name][0]), (name, row)


def _sweep_nodes(N, witness):
    """The node chunks of the entropy sweep at N: its exact rule, or the
    witness, the same rule moved by an isometry."""
    nodes = quadrature.witness_nodes if witness else quadrature.chart_nodes
    return nodes(N, *exact_orders(entropy._SWEEP_DEGREE))


def _sweep(N, witness):
    """The entropy sweep sums of the special phi at N."""
    h = entropy.ConformalPerturbation.special(N)
    return entropy._geometry_sweep(h, _sweep_nodes(N, witness))


@functools.lru_cache(maxsize=None)
def _default_sweep(N, witness):
    """The sweep sums with the default slab."""
    return _sweep(N, witness)


CERTIFY_THREADS = """
import contextlib, io, sys, threading
from cpn_entropy.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["certify", "--N", "2"])
print(code, threading.active_count(), "concurrent.futures" in sys.modules)
"""


def test_certify_starts_no_thread_and_imports_no_pool():
    src = os.path.dirname(os.path.dirname(cpn_entropy.__file__))
    done = subprocess.run([sys.executable, "-c", CERTIFY_THREADS],
                          capture_output=True, text=True, check=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["0", "1", "False"]


@pytest.mark.parametrize("N,witness", [(2, True), (2, False), (3, True),
                                        (3, False), (4, False)])
def test_sweep_sums_do_not_depend_on_the_block(N, witness, monkeypatch):
    default = _default_sweep(N, witness)
    # 7-row slabs, and one slab per chart_nodes chunk
    chunk = max(len(weights) for _, weights in _sweep_nodes(N, witness))
    for rows in (7, chunk):
        monkeypatch.setattr(entropy, "_SLAB_BYTES", rows * (2 * N) ** 4 * 8)
        assert entropy._slab_rows(N) == rows
        assert _sweep(N, witness) == default, rows


def _slab_spy(monkeypatch):
    """Record the points of every slab whose metric arrays the sweep
    builds."""
    points = []

    def spied(w):
        points.append(w)
        return geometry.metric_arrays(w)

    monkeypatch.setattr(entropy, "metric_arrays", spied)
    return points


def test_sweep_builds_curvature_one_block_at_a_time(monkeypatch):
    points = _slab_spy(monkeypatch)
    chunks = [w for w, _ in _sweep_nodes(3, True)]
    _sweep(3, True)
    assert max(len(w) for w in chunks) == 2 ** 3 * 13
    # full slabs, then what is left of each chunk
    expected = [min(SLAB, len(w) - start) for w in chunks
                for start in range(0, len(w), SLAB)]
    assert [len(w) for w in points] == expected
    assert np.array_equal(np.concatenate(points), np.concatenate(chunks))


@pytest.mark.parametrize("N", range(2, 9))
def test_slab_rows_fill_the_byte_budget_and_depend_only_on_n(N):
    rows = entropy._slab_rows(N)
    array_bytes = (2 * N) ** 4 * 8
    assert rows * array_bytes <= entropy._SLAB_BYTES < (rows + 1) * array_bytes
    assert rows == {2: 1024, 3: 202, 4: 64, 5: 26, 6: 12, 7: 6, 8: 4}[N]


@pytest.mark.parametrize("workers", [1, 4])
def test_slabs_do_not_depend_on_the_workers(workers, monkeypatch):
    # the sweep is a plain loop with no shared state: called from several
    # threads at once, each call sees the slabs and sums of a lone call
    slabs = []

    def spied(w):
        slabs.append((threading.get_ident(), len(w)))
        return geometry.metric_arrays(w)

    monkeypatch.setattr(entropy, "metric_arrays", spied)
    start = threading.Barrier(workers)
    sums = {}

    def call():
        start.wait()
        sums[threading.get_ident()] = _sweep(4, False)

    callers = [threading.Thread(target=call) for _ in range(workers)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    rows = entropy._slab_rows(4)
    chunks = [len(w) for w, _ in _sweep_nodes(4, False)]
    expected = [min(rows, size - start) for size in chunks
                for start in range(0, size, rows)]
    assert len(sums) == workers
    for ident, result in sums.items():
        assert [n for i, n in slabs if i == ident] == expected
        assert result == _default_sweep(4, False)


def test_sweep_peak_memory_holds_one_block():
    _sweep(4, False)
    tracemalloc.start()
    try:
        _sweep(4, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND


# ---------------------------------------------------------------------------
# the kernels against reference implementations


def _oracle_metric_arrays(w):
    """``geometry.metric_arrays`` from N^2 scalar jets of
    H_ab = delta_ab/sigma - wbar_a w_b/sigma^2, written plainly."""
    b, n = w.shape
    wj = []
    for a in range(n):
        direction = np.zeros(2 * n, dtype=complex)
        direction[a], direction[n + a] = 1.0, 1.0j
        wj.append(Jet.variable(w[:, a], direction, 2 * n))
    sigma = wj[0].conj() * wj[0]
    for a in range(1, n):
        sigma = sigma + wj[a].conj() * wj[a]
    inv_s = (sigma + 1.0).reciprocal()
    inv_s2 = inv_s * inv_s
    h = [[-(wj[a].conj() * wj[b]) * inv_s2 + (inv_s if a == b else 0.0)
          for b in range(n)] for a in range(n)]
    hval, hgrad, hhess = [
        np.moveaxis(np.array([[getattr(jet, part) for jet in row]
                              for row in h]), 2, 0)
        for part in ("val", "grad", "hess")]
    d = 2 * n
    g = np.empty((b, d, d))
    dg = np.empty((b, d, d, d))
    d2g = np.empty((b, d, d, d, d))
    for arr, src in ((g, hval), (dg, hgrad), (d2g, hhess)):
        geometry._write_real_blocks(arr, src)
    return g, dg, d2g


def _oracle_curvature_rows(g, dg, d2g):
    """``geometry._curvature_rows`` as expressions, with no in-place step."""
    g_inv = np.linalg.inv(g)
    t = (dg.transpose(0, 2, 3, 1) + dg.transpose(0, 2, 1, 3)
         - dg.transpose(0, 3, 1, 2))
    gamma = 0.5 * np.einsum("bkl,blij->bkij", g_inv, t)
    dginv = -np.einsum("bkcm,bcl->bklm",
                       np.einsum("bka,bacm->bkcm", g_inv, dg), g_inv)
    dt = (d2g.transpose(0, 2, 3, 1, 4) + d2g.transpose(0, 2, 1, 3, 4)
          - d2g.transpose(0, 3, 1, 2, 4))
    dgamma = (0.5 * np.einsum("bklm,blij->bmkij", dginv, t)
              + 0.5 * np.einsum("bkl,blijm->bmkij", g_inv, dt))
    del dt
    a1 = dgamma.transpose(0, 2, 1, 3, 4)
    a2 = a1.transpose(0, 1, 3, 2, 4)
    quad1 = np.einsum("blim,bmjk->blijk", gamma, gamma)
    quad2 = quad1.transpose(0, 1, 3, 2, 4)
    riem = a1 - a2 + quad1 - quad2
    ric = np.einsum("biijk->bjk", riem)
    scal = np.einsum("bjk,bjk->b", g_inv, ric)
    return g_inv, gamma, riem, ric, scal


# Largest difference from the references, relative to the largest entry of
# the reference array, over the batches of the test below at N = 2..5:
# g, dg, d2g 2.8e-16, 5.7e-16, 7.3e-16 (the real closed form against the
# scalar jets of H, two formulas); g_inv 0 (the same np.linalg.inv);
# Gamma, Riem, Ric 4.5e-16, 5.1e-16, 4.3e-16 (gemm against einsum sums).
# Over 200 more seeds for each N and batch size (seed + 1000 k), g, dg and
# d2g reached 4.7e-16, 8.8e-16 and 1.59e-15 (7.2 eps, a single-row batch
# at N = 3), Gamma, Riem and Ric 5.7e-16, 1.33e-15 and 1.03e-15 (Riem and
# Ric also on single-row batches).  R = 4N(N+1) differed by at most
# 5.7e-14 absolute on the test's seeds and 7.1e-14 on the others.
# The relative bound is 16 eps (3.6e-15), over twice the largest.
KERNEL_REL_TOL = 16 * np.finfo(float).eps
SCALAR_ABS_TOL = 1e-13


def _assert_close(expected, actual, what):
    assert len(expected) == len(actual)
    for k, (a, b) in enumerate(zip(expected, actual)):
        assert a.shape == b.shape, (what, k)
        bound = SCALAR_ABS_TOL if a.ndim == 1 else (
            KERNEL_REL_TOL * np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) <= bound, (what, k)


# The package kernels write the metric from its real closed form and
# contract with ``np.matmul``, writing into their intermediates in place;
# the references use N^2 scalar jets of H and ``np.einsum``, with a new
# array for every step.  The sums run in another order, so they agree to a
# few ulp, not bit for bit.
@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_buffered_kernels_match_the_unbuffered_ones(N):
    budget = entropy._slab_rows(N)
    for rows in (1, 7, budget, budget + 1):
        w = sample_w(N, rows, seed=rows + 17 * N)
        arrays = geometry.metric_arrays(w)
        curvature = _oracle_curvature_rows(*arrays)
        what = (N, rows)
        _assert_close(_oracle_metric_arrays(w), arrays, what)
        _assert_close(curvature, geometry._curvature_rows(*arrays), what)
        fresh = geometry.curvature_from_arrays(*arrays)
        _assert_close(arrays[:1] + curvature,
                      [getattr(fresh, name) for name in CURVATURE_FIELDS],
                      what)


# Largest difference of the Ricci kernel's Ric from ``_curvature_rows``',
# relative to its largest entry, and of R, absolute, over the batches of
# the test below at N = 2..6 and five seeds each: Ric 1.1e-15, 1.0e-15,
# 1.3e-15, 1.4e-15, 1.4e-15; R 4.6e-14 to 1.1e-13 (R = 4N(N+1)).  The
# bounds are about twice the largest.  g_inv and Gamma are the same bits.
RICCI_REL_TOL = 3e-15
RICCI_SCALAR_ABS_TOL = 2.5e-13


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_ricci_kernel_matches_the_trace_of_the_riemann_kernel(N):
    budget = entropy._slab_rows(N)
    for rows in (1, 7, budget, budget + 1):
        w = sample_w(N, rows, seed=rows + 17 * N)
        arrays = geometry.metric_arrays(w)
        g_inv, gamma, _, ric, scal = geometry._curvature_rows(*arrays)
        ricci = geometry._ricci_rows(*arrays)
        assert np.array_equal(ricci[0], g_inv)
        assert np.array_equal(ricci[1], gamma)
        rel = np.max(np.abs(ricci[2] - ric)) / np.max(np.abs(ric))
        assert rel <= RICCI_REL_TOL, (N, rows)
        assert np.max(np.abs(ricci[3] - scal)) <= RICCI_SCALAR_ABS_TOL


# Largest |Ric - 2(N+1) g| over a row's largest |g_ij|, and largest
# |R - 4N(N+1)|, over every node of both sweep rules at N, by the einsum
# kernel (the references above), the matmul kernel and the Ricci kernel:
#   N = 2: 4.5e-14 and 6.4e-13 (einsum), 2.2e-14 and 4.8e-13 (matmul),
#          2.8e-14 and 4.7e-13 (Ricci)
#   N = 3: 1.0e-13 and 5.4e-12, 6.9e-14 and 2.0e-12, 1.1e-13 and 2.1e-12
#   N = 4: 3.7e-13 and 1.5e-11, 2.3e-13 and 1.0e-11, 3.7e-13 and 8.2e-12
#   N = 5: 1.0e-12 and 6.5e-11, 8.6e-13 and 5.2e-11, 1.0e-12 and 3.2e-11
# The bounds are about twice the einsum kernel's.
EINSTEIN_TOL = {2: (1e-13, 1.5e-12), 3: (2.5e-13, 1.2e-11),
                4: (1e-12, 3e-11), 5: (2.5e-12, 1.5e-10)}


# The Riemann kernel's cases keep their ids (rule-2, ...); the Ricci
# kernel's carry a ricci- prefix.
SWEEP_RULE_CASES = [
    pytest.param(kernel, witness, N,
                 id=f"{prefix}{'witness' if witness else 'rule'}-{N}")
    for prefix, kernel in (("", geometry._curvature_rows),
                           ("ricci-", geometry._ricci_rows))
    for witness in (False, True) for N in (2, 3, 4, 5)]


@pytest.mark.parametrize("kernel, witness, N", SWEEP_RULE_CASES)
def test_curvature_rows_are_einstein_on_the_sweep_rules(kernel, witness, N):
    # Ric = 2(N+1) g and R = 4N(N+1) on every slab of the sweep's rule or
    # its witness, within EINSTEIN_TOL
    ric_tol, scal_tol = EINSTEIN_TOL[N]
    rows = entropy._slab_rows(N)
    for w, _ in _sweep_nodes(N, witness):
        for start in range(0, len(w), rows):
            g, dg, d2g = geometry.metric_arrays(w[start:start + rows])
            *_, ric, scal = kernel(g, dg, d2g)
            scale = np.max(np.abs(g), axis=(1, 2))[:, None, None]
            assert np.max(np.abs(ric - 2 * (N + 1) * g) / scale) < ric_tol
            assert np.max(np.abs(scal - 4 * N * (N + 1))) < scal_tol


# ---------------------------------------------------------------------------
# the closed forms against independent oracles


# metric_arrays, the scalar jets of H and the nested duals of the potential
# each add terms of size s, s^2 |X| <= s^1.5 and s^2 to g, dg and d2g
# (s = 1/(1 + |w|^2)), and far out in the chart those terms cancel: at
# N = 1, g = s^2 I is a difference of terms of size s, so at |w| = 1e6 the
# routes differ by up to 2.0e-4 and 3.3e-4 of dg's and d2g's largest
# entries.  So each row's difference is bounded by TERM_TOL times its term
# size.  Largest measured over the points of the test below: g, dg, d2g
# 4.0e-16, 1.0e-15, 6.6e-15 (d2g against the scalar jets at N = 1).
TERM_TOL = 1.5e-14
RADII = (None, 1e3, 1e6)


def _assert_within_terms(expected, actual, w, what):
    s = 1.0 / (1.0 + np.sum(np.abs(w) ** 2, axis=1))
    for k, (a, b, power) in enumerate(zip(expected, actual, (1, 1.5, 2))):
        assert np.all(np.isfinite(b)), (what, k)
        err = np.max(np.abs(a - b).reshape(len(w), -1), axis=1)
        assert np.all(err <= TERM_TOL * s ** power), (what, k)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_closed_form_metric_matches_both_oracles_near_and_far(N):
    for radius in RADII:
        # the sample points, or the same directions at |w| = radius
        w = sample_w(N, 3, seed=20 + N)
        if radius is not None:
            w *= radius / np.linalg.norm(w, axis=1, keepdims=True)
        arrays = geometry.metric_arrays(w)
        _assert_within_terms(_oracle_metric_arrays(w), arrays, w,
                             ("jets", N, radius))
        _assert_within_terms(geometry.potential_metric_arrays(w[0]),
                             [a[:1] for a in arrays], w[:1],
                             ("duals", N, radius))


def _oracle_phi_jet(form, chart, w):
    """``eigenfunctions.phi_jet_batch`` as the jet quotient of
    sum_ij zbar_i A_ij z_j and sum_i zbar_i z_i over the homogeneous
    coordinate jets, one product per term."""
    z = geometry.homogeneous_jets(chart, w)
    a = form.matrix
    num = den = None
    for i in range(form.size):
        zi_c = z[i].conj()
        den_term = zi_c * z[i]
        den = den_term if den is None else den + den_term
        for j in range(form.size):
            if a[i, j] == 0:
                continue
            term = (zi_c * z[j]) * a[i, j]
            num = term if num is None else num + term
    return (num / den).real


# Largest difference from the oracle, relative to the oracle's largest
# entry, over the forms and charts of the test below: value, gradient,
# Hessian 5.9e-16, 4.3e-16, 6.7e-16.
PHI_REL_TOL = 1.5e-15


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_phi_jet_matches_the_jet_product_oracle_in_every_chart(N):
    rng = np.random.default_rng(N)
    m = N + 1
    generic = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    forms = eigenfunctions.basis_first_eigenspace(N) + [
        eigenfunctions.HermitianForm(generic + generic.conj().T)]
    if N >= 2:
        forms.append(eigenfunctions.special_phi(N))
    w = sample_w(N, 9, seed=30 + N)
    for form in forms:
        for chart in range(N + 1):
            expected = _oracle_phi_jet(form, chart, w)
            actual = eigenfunctions.phi_jet_batch(form, chart, w)
            for part in ("val", "grad", "hess"):
                a, b = getattr(expected, part), getattr(actual, part)
                assert a.shape == b.shape and b.dtype == np.float64
                assert np.max(np.abs(a - b)) <= PHI_REL_TOL * np.max(np.abs(a)), (
                    form, chart, part)
