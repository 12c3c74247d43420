"""Row-slab kernels: every row's bits are independent of slabs and threads.

The heavy curvature and Ntilde kernels run in ``_SLAB_ROWS``-row slabs on
a thread pool of at most ``_MAX_WORKERS`` workers.  Each row must come out
bit for bit as if computed alone, with any number of workers, and every
function that a tracer may wrap must still run on the calling thread.  The
entropy sweep builds its curvature in blocks of ``_SWEEP_BLOCK_ROWS`` rows,
so its sums must not depend on the block and its memory holds one block.
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
from cpn_entropy import entropy, geometry
from cpn_entropy.charts import sample_w
from cpn_entropy.cli import main
from cpn_entropy.jets import Jet
from cpn_entropy.report import parse_report, report_bytes, strip_timings

SLAB = geometry._SLAB_ROWS
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
    out["n_tilde"] = entropy.n_tilde_batch(h, w)
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


@pytest.mark.parametrize("workers", [1, 4])
def test_rows_do_not_depend_on_the_pool(batch, workers, monkeypatch):
    w, full = batch
    switch = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(geometry, "_POOL", pool)
        sys.setswitchinterval(1e-6)
        try:
            other = _slab_outputs(w)
        finally:
            sys.setswitchinterval(switch)
    for name, values in full.items():
        assert np.array_equal(values, other[name]), name


@pytest.mark.parametrize("cpus", [1, 64])
def test_pool_has_the_usable_cpus_at_most_the_cap(cpus, monkeypatch):
    # the pool starts no thread before its first task
    monkeypatch.setattr(geometry, "_POOL", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pool = geometry._pool()
    try:
        assert pool._max_workers == min(cpus, geometry._MAX_WORKERS)
    finally:
        pool.shutdown()


def test_small_batches_start_no_pool_and_import_nothing():
    code = ("import sys; import cpn_entropy.cli; "
            "from cpn_entropy import entropy, geometry; "
            "from cpn_entropy.charts import sample_w; "
            "geometry.einstein_tau(3); "
            "entropy.n_tilde_batch(entropy.ConformalPerturbation.special(3), "
            "sample_w(3, 512, 1)); "
            "print(geometry._POOL is None, 'concurrent.futures' in sys.modules)")
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
        monkeypatch.setattr(geometry, "_POOL", pool)
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

    entropy.certify(2)
    expected = {name for names in SPIED.values() for name in names}
    assert {name for name, _ in calls} == expected | {"Jet.__mul__"}
    assert {ident for _, ident in calls} == {threading.get_ident()}


def _sweep_levels(N, fine):
    """The fine or the coarse orders of the entropy sweep at N."""
    n_u, n_theta = entropy._entropy_quad_levels(N)
    return (n_u, n_theta) if fine else (max(n_u - 1, 2), max(n_theta - 1, 3))


@pytest.mark.parametrize("fine", [True, False])
@pytest.mark.parametrize("N", [2, 3])
def test_sweep_sums_do_not_depend_on_the_block(N, fine, monkeypatch):
    h = entropy.ConformalPerturbation.special(N)
    levels = _sweep_levels(N, fine)
    default = entropy._geometry_sweep(h, N, *levels)
    # one slab per block, and one block per chart_nodes chunk
    for rows in (SLAB, 1 << 20):
        monkeypatch.setattr(entropy, "_SWEEP_BLOCK_ROWS", rows)
        assert entropy._geometry_sweep(h, N, *levels) == default, rows


def test_sweep_builds_curvature_one_block_at_a_time(monkeypatch):
    rows = []

    def spy(w):
        rows.append(len(w))
        return geometry.curvature_batch(w)

    monkeypatch.setattr(entropy, "curvature_batch", spy)
    levels = _sweep_levels(3, True)
    chunks = [len(weights) for _, weights in entropy.chart_nodes(3, *levels)]
    entropy._geometry_sweep(entropy.ConformalPerturbation.special(3), 3, *levels)
    assert max(chunks) == 8000
    assert max(rows) <= geometry._MAX_WORKERS * SLAB
    assert sum(rows) == sum(chunks)


def test_sweep_peak_memory_holds_one_block(monkeypatch):
    # a pool of _MAX_WORKERS slabs in flight, the most any machine runs
    h = entropy.ConformalPerturbation.special(3)
    levels = _sweep_levels(3, True)
    with ThreadPoolExecutor(max_workers=geometry._MAX_WORKERS) as pool:
        monkeypatch.setattr(geometry, "_POOL", pool)
        entropy._geometry_sweep(h, 3, *levels)
        tracemalloc.start()
        try:
            entropy._geometry_sweep(h, 3, *levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 160 * 2 ** 20
