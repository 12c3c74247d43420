"""Row slabs of the entropy sweep and the pool: no bit depends on threads.

The geometry kernels are plain batch functions: each row must come out bit
for bit as if computed alone, and as the reference kernels below compute
it.  The thread pool (``quadrature._pool``, at most
``quadrature._MAX_WORKERS`` workers) has two callers, both through the
ordered window ``quadrature._ordered``.  ``cpn_integral`` sends one
``chart_nodes`` chunk's integrand per task.  The entropy sweep builds each
``entropy._slab_rows(N)``-row slab's metric arrays and psi jet on the
calling thread, and the pool turns them into the slab's integrands.  No sum
may depend on the slab size or the number of workers, at most one task
more than the workers may be in flight, a worker's exception must reach
the caller, every function that a tracer may wrap must still run on the
calling thread, and the sweep's memory holds a few slabs, not a chunk.
"""

import functools
import importlib
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cpn_entropy
from cpn_entropy import entropy, geometry, quadrature
from cpn_entropy.charts import sample_w
from cpn_entropy.cli import main
from cpn_entropy.eigenfunctions import _phi_values, special_phi
from cpn_entropy.jets import Jet
from cpn_entropy.quadrature import exact_orders
from cpn_entropy.report import parse_report, report_bytes, strip_timings

SLAB = entropy._slab_rows(3)
# three slabs, the last of them a single row
ROWS = 2 * SLAB + 1
PROBE_ROWS = (0, SLAB - 1, SLAB, 2 * SLAB - 1, 2 * SLAB)
CURVATURE_FIELDS = ("g", "g_inv", "Gamma", "Riem", "Ric", "R")
# Bound on the tracemalloc peak of the N = 4 sweep on its exact rule (21
# slabs of 64 rows in one 1296-row chunk) on a pool of _MAX_WORKERS
# workers, measured at 22.4 to 35.4 MiB in 10 runs on 2 CPUs: the running
# slabs' arrays, about 9.5 MiB each at their peak, the waiting slabs'
# metric arrays and the chunk.  The chunk's curvature at once would take
# about 190 MiB.
PEAK_BOUND = 40 * 2 ** 20


def _slab_outputs(w):
    h = entropy.ConformalPerturbation.special(w.shape[1])
    geom = geometry.curvature_batch(w)
    out = dict(zip(("metric_g", "metric_dg", "metric_d2g"),
                   geometry.metric_arrays(w)))
    out.update({name: getattr(geom, name) for name in CURVATURE_FIELDS})
    out["n_tilde"] = entropy.n_tilde_batch(h, w, geom)
    psi = h.psi_jet(w)
    out.update(psi_val=psi.val, psi_grad=psi.grad, psi_hess=psi.hess)
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


def _sweep_levels(N, witness):
    """The orders of the entropy sweep at N: its exact rule, or the witness
    rule one degree higher."""
    return exact_orders(entropy._SWEEP_DEGREE + witness)


def _sweep(N, witness):
    """The entropy sweep sums of the special phi at N."""
    h = entropy.ConformalPerturbation.special(N)
    return entropy._geometry_sweep(h, geometry.einstein_tau(N),
                                   *_sweep_levels(N, witness))


@functools.lru_cache(maxsize=None)
def _default_sweep(N, witness):
    """The sweep sums with the default slab and pool."""
    return _sweep(N, witness)


def _v_prime_n3():
    """V''s integrand at N = 3 on the level-3 orders: 28 chunks, more
    than any window."""
    form = special_phi(3)
    return quadrature.cpn_integral(lambda w: 3.0 * _phi_values(form, 0, w), 3,
                                   *quadrature.level_orders(3))


@functools.lru_cache(maxsize=None)
def _default_v_prime():
    return _v_prime_n3()


def _pool_passes():
    """The N = 4 sweep sums and the N = 3 phi integral, on whatever pool is
    installed."""
    return _sweep(4, False), _v_prime_n3()


@pytest.mark.parametrize("workers", [1, 4])
def test_rows_do_not_depend_on_the_pool(workers, monkeypatch):
    # every sweep row and integrand chunk is computed on a pool worker
    default = (_default_sweep(4, False), _default_v_prime())
    switch = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
        sys.setswitchinterval(1e-6)
        try:
            other = _pool_passes()
        finally:
            sys.setswitchinterval(switch)
    assert other == default


class CountingPool(ThreadPoolExecutor):
    """A pool that counts the futures submitted and not yet collected."""

    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.in_flight = self.most_in_flight = 0

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        result = future.result

        def collect(timeout=None):
            self.in_flight -= 1
            return result(timeout)

        future.result = collect
        return future


@pytest.mark.parametrize("workers", [1, 4])
def test_sweep_holds_one_slab_more_than_the_workers(workers, monkeypatch):
    # the N = 4 sweep has 21 slabs and the phi integral 28 chunks, more
    # than any window
    sweep = functools.partial(_sweep, 4, False)
    with CountingPool(workers) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
        for one_pass in (sweep, _v_prime_n3):
            pool.most_in_flight = 0
            one_pass()
            assert pool.most_in_flight == workers + 1, one_pass
            assert pool.in_flight == 0


@pytest.mark.parametrize("workers", [1, 4])
def test_a_worker_exception_reaches_the_caller(workers, monkeypatch):
    calls = []

    def integrand(w):
        calls.append(w)
        if len(calls) == 3:
            raise FloatingPointError("chunk 3")
        return np.ones(w.shape[0])

    with CountingPool(workers) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
        with pytest.raises(FloatingPointError, match="chunk 3"):
            quadrature.cpn_integral(integrand, 3, *quadrature.level_orders(3))
        assert pool.in_flight == 0


@pytest.mark.parametrize("cpus", [1, 64])
def test_pool_has_the_usable_cpus_at_most_the_cap(cpus, monkeypatch):
    # the pool starts no thread before its first task
    monkeypatch.setattr(quadrature, "_POOL", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pool = quadrature._pool()
    try:
        assert pool._max_workers == min(cpus, quadrature._MAX_WORKERS)
    finally:
        pool.shutdown()


def test_small_batches_start_no_pool_and_import_nothing():
    code = ("import sys; import cpn_entropy.cli; "
            "from cpn_entropy import entropy, geometry, quadrature; "
            "from cpn_entropy.charts import sample_w; "
            "w = sample_w(3, 4 * entropy._slab_rows(3), 1); "
            "geometry.einstein_tau(3); geometry.curvature_batch(w); "
            "entropy.n_tilde_batch(entropy.ConformalPerturbation.special(3), "
            "w, geometry.curvature_batch(w)); "
            "print(quadrature._POOL is None, "
            "'concurrent.futures' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cpn_entropy.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["True", "False"]


def _certify_bytes(capsys):
    assert main(["certify", "--N", "2"]) == 0
    return report_bytes(strip_timings(parse_report(capsys.readouterr().out)))


def test_certificate_bytes_do_not_depend_on_the_pool(monkeypatch, capsys):
    default = _certify_bytes(capsys)
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
        single = _certify_bytes(capsys)
    assert single == default


# Functions a tracer may wrap that run during certify; the tracer's span
# stack is not thread-safe, so none of them may run on a worker thread.
SPIED = {
    "geometry": ("metric_arrays", "curvature_from_arrays", "curvature_batch",
                 "einstein_tau"),
    "entropy": ("n_tilde_batch",),
    "eigenfunctions": ("phi_jet_batch", "phi_values_batch"),
    "charts": ("sample_w",),
    "quadrature": ("cpn_integral",),
}


def test_traced_names_run_on_the_calling_thread(monkeypatch):
    calls = []

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    package = [module for key, module in list(sys.modules.items())
               if key.startswith("cpn_entropy.")]
    for module_name, names in SPIED.items():
        owner = importlib.import_module(f"cpn_entropy.{module_name}")
        for name in names:
            original = getattr(owner, name)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, spy(name, original))
    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Jet, attr, spy("Jet.__mul__", Jet.__dict__[attr]))

    entropy.certify(2, points=100, seed=7, timings={})
    expected = {name for names in SPIED.values() for name in names}
    assert {name for name, _ in calls} == expected | {"Jet.__mul__"}
    assert {ident for _, ident in calls} == {threading.get_ident()}


@pytest.mark.parametrize("N,witness", [(2, True), (2, False), (3, True),
                                        (3, False), (4, False)])
def test_sweep_sums_do_not_depend_on_the_block(N, witness, monkeypatch):
    default = _default_sweep(N, witness)
    # 7-row slabs, and one slab per chart_nodes chunk
    chunk = max(len(weights) for _, weights in
                quadrature.chart_nodes(N, *_sweep_levels(N, witness)))
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
    levels = _sweep_levels(3, True)
    chunks = [w for w, _ in entropy.chart_nodes(3, *levels)]
    _sweep(3, True)
    assert max(len(w) for w in chunks) == 8 ** 3
    assert max(len(w) for w in points) == SLAB
    assert np.array_equal(np.concatenate(points), np.concatenate(chunks))


@pytest.mark.parametrize("N", range(2, 9))
def test_slab_rows_fill_the_byte_budget_and_depend_only_on_n(N):
    rows = entropy._slab_rows(N)
    array_bytes = (2 * N) ** 4 * 8
    assert rows * array_bytes <= entropy._SLAB_BYTES < (rows + 1) * array_bytes
    assert rows == {2: 1024, 3: 202, 4: 64, 5: 26, 6: 12, 7: 6, 8: 4}[N]


@pytest.mark.parametrize("workers", [1, 4])
def test_slabs_do_not_depend_on_the_workers(workers, monkeypatch):
    points = _slab_spy(monkeypatch)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
        _sweep(4, False)
    rows = entropy._slab_rows(4)
    chunks = [len(w) for w, _ in entropy.chart_nodes(4, *_sweep_levels(4, False))]
    expected = [min(rows, size - start) for size in chunks
                for start in range(0, size, rows)]
    assert [len(w) for w in points] == expected


def test_sweep_peak_memory_holds_one_block(monkeypatch):
    # a pool of _MAX_WORKERS workers, the most any machine runs
    with ThreadPoolExecutor(max_workers=quadrature._MAX_WORKERS) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
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
    """``geometry.metric_arrays`` from the Hermitian jets, written plainly."""
    h = geometry._hermitian_metric_jets(w)
    hval, hgrad, hhess = [
        np.moveaxis(np.array([[getattr(jet, part) for jet in row]
                              for row in h]), 2, 0)
        for part in ("val", "grad", "hess")]
    b, n = hval.shape[0], hval.shape[1]
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
    dginv = -np.einsum("bka,bacm,bcl->bklm", g_inv, dg, g_inv)
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


def _assert_bits_equal(expected, actual, what):
    assert len(expected) == len(actual)
    for k, (a, b) in enumerate(zip(expected, actual)):
        assert a.shape == b.shape, (what, k)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (what, k)


# The package kernels write into their intermediates in place, where the
# references build a new array for every step; every bit must agree.
@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_buffered_kernels_match_the_unbuffered_ones(N):
    budget = entropy._slab_rows(N)
    for rows in (1, 7, budget, budget + 1):
        w = sample_w(N, rows, seed=rows + 17 * N)
        arrays = _oracle_metric_arrays(w)
        curvature = _oracle_curvature_rows(*arrays)
        what = (N, rows)
        _assert_bits_equal(arrays, geometry.metric_arrays(w), what)
        _assert_bits_equal(curvature, geometry._curvature_rows(*arrays), what)
        fresh = geometry.curvature_from_arrays(*arrays)
        _assert_bits_equal(arrays[:1] + curvature,
                           [getattr(fresh, name) for name in CURVATURE_FIELDS],
                           what)
