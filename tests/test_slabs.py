"""Row slabs of the entropy sweep and the pool: no bit depends on threads.

The geometry kernels are plain batch functions: each row must come out bit
for bit as if computed alone.  The thread pool (``quadrature._pool``, at
most ``quadrature._MAX_WORKERS`` workers) has two callers, both through the
ordered window ``quadrature._ordered``.  ``cpn_integral`` sends one
``chart_nodes`` chunk's integrand per task.  The entropy sweep builds each
``entropy._SLAB_ROWS``-row slab's metric arrays and psi jet on the calling
thread, and the pool turns them into the slab's integrands.  No sum may
depend on the slab size or the number of workers, at most one task more
than the workers may be in flight, a worker's exception must reach the
caller, every function that a tracer may wrap must still run on the calling
thread, and the sweep's memory holds a few slabs, not a chunk.
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
from cpn_entropy.report import parse_report, report_bytes, strip_timings

SLAB = entropy._SLAB_ROWS
# three slabs, the last of them a single row
ROWS = 2 * SLAB + 1
PROBE_ROWS = (0, SLAB - 1, SLAB, 2 * SLAB - 1, 2 * SLAB)
CURVATURE_FIELDS = ("g", "g_inv", "Gamma", "Riem", "Ric", "R")


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


def _sweep_levels(N, fine):
    """The fine or the coarse orders of the entropy sweep at N."""
    n_u, n_theta = entropy._entropy_quad_levels(N)
    return (n_u, n_theta) if fine else (max(n_u - 1, 2), max(n_theta - 1, 3))


@functools.lru_cache(maxsize=None)
def _default_sweep(N, fine):
    """The sweep sums with the default slab and pool."""
    h = entropy.ConformalPerturbation.special(N)
    return entropy._geometry_sweep(h, N, *_sweep_levels(N, fine))


def _v_prime_n3():
    """V' at N = 3 as ``first_variations`` integrates it: 28 chunks."""
    form = special_phi(3)
    return quadrature.cpn_integral(lambda w: 3.0 * _phi_values(form, 0, w), 3,
                                   *quadrature.level_orders(3))


@functools.lru_cache(maxsize=None)
def _default_v_prime():
    return _v_prime_n3()


def _pool_passes():
    """The sweep sums and V' at N = 3, on whatever pool is installed."""
    h = entropy.ConformalPerturbation.special(3)
    return (entropy._geometry_sweep(h, 3, *_sweep_levels(3, True)),
            _v_prime_n3())


@pytest.mark.parametrize("workers", [1, 4])
def test_rows_do_not_depend_on_the_pool(workers, monkeypatch):
    # every sweep row and integrand chunk is computed on a pool worker
    default = (_default_sweep(3, True), _default_v_prime())
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
    # the N = 3 sweep has 32 slabs and V' 28 chunks, more than any window
    h = entropy.ConformalPerturbation.special(3)
    sweep = functools.partial(entropy._geometry_sweep, h, 3,
                              *_sweep_levels(3, True))
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
            "w = sample_w(3, 4 * entropy._SLAB_ROWS, 1); "
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


@pytest.mark.parametrize("fine", [True, False])
@pytest.mark.parametrize("N", [2, 3])
def test_sweep_sums_do_not_depend_on_the_block(N, fine, monkeypatch):
    h = entropy.ConformalPerturbation.special(N)
    levels = _sweep_levels(N, fine)
    default = _default_sweep(N, fine)
    # 7-row slabs, and one slab per chart_nodes chunk
    for rows in (7, 1 << 20):
        monkeypatch.setattr(entropy, "_SLAB_ROWS", rows)
        assert entropy._geometry_sweep(h, N, *levels) == default, rows


def test_sweep_builds_curvature_one_block_at_a_time(monkeypatch):
    slabs = []

    def spy(w):
        slabs.append(w)
        return geometry.metric_arrays(w)

    monkeypatch.setattr(entropy, "metric_arrays", spy)
    levels = _sweep_levels(3, True)
    chunks = [w for w, _ in entropy.chart_nodes(3, *levels)]
    entropy._geometry_sweep(entropy.ConformalPerturbation.special(3), 3, *levels)
    assert max(len(w) for w in chunks) == 8000
    assert max(len(w) for w in slabs) <= SLAB
    assert np.array_equal(np.concatenate(slabs), np.concatenate(chunks))


def test_sweep_peak_memory_holds_one_block(monkeypatch):
    # a pool of _MAX_WORKERS workers, the most any machine runs
    h = entropy.ConformalPerturbation.special(3)
    levels = _sweep_levels(3, True)
    with ThreadPoolExecutor(max_workers=quadrature._MAX_WORKERS) as pool:
        monkeypatch.setattr(quadrature, "_POOL", pool)
        entropy._geometry_sweep(h, 3, *levels)
        tracemalloc.start()
        try:
            entropy._geometry_sweep(h, 3, *levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 120 * 2 ** 20
