"""Spans and counts around calls into the cpn_entropy modules, from outside.

The tracer wraps public functions of the package without editing its
source.  A function imported by name (``from .geometry import
curvature_batch``) is bound in several modules, so every module of the
package whose attribute *is* the original object gets the wrapper.
Methods are wrapped on their class, together with any alias in the class
body (``__rmul__ = __mul__``).  For the ``chart_nodes`` generator only its
own ``next()`` is timed, not the consumer's work between batches.

Each call becomes a span (name, start, end, parent).  Spans stay in memory;
``summary()`` reduces them to calls, inclusive seconds, self seconds (the
span minus the part its child spans cover) and batch rows per name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# (span name, module, attribute path, parameter that holds the batch rows)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("report.report_bytes", "report", "report_bytes", None),
    ("charts.sample_w", "charts", "sample_w", "count"),
    ("jets.Jet.mul", "jets", "Jet.__mul__", None),
    ("geometry.metric_arrays", "geometry", "metric_arrays", "w"),
    ("geometry.curvature_from_arrays", "geometry", "curvature_from_arrays", "g"),
    ("geometry.curvature_batch", "geometry", "curvature_batch", "w"),
    ("geometry.einstein_tau", "geometry", "einstein_tau", None),
    ("eigenfunctions.phi_jet_batch", "eigenfunctions", "phi_jet_batch", "w"),
    ("eigenfunctions.phi_values_batch", "eigenfunctions", "phi_values_batch", "w"),
    ("quadrature.chart_nodes", "quadrature", "chart_nodes", None),
    ("quadrature.cpn_integral", "quadrature", "cpn_integral", None),
    ("quadrature.adaptive", "quadrature", "adaptive_cpn_integral", None),
    ("polynomials.evaluate", "polynomials", "BihomogeneousPolynomial.evaluate", "z"),
    ("polynomials.power", "polynomials", "BihomogeneousPolynomial.power", None),
    ("polynomials.full_harmonic_expansion", "polynomials",
     "full_harmonic_expansion", None),
    ("moments.polynomial_average", "moments", "polynomial_average", None),
    ("moments.monte_carlo_average", "moments", "monte_carlo_average", "samples"),
    ("moments.cpn_volume", "moments", "cpn_volume", None),
    ("variation.verify_lemma_suite", "variation", "verify_lemma_suite", None),
    ("variation.conformal_change_mismatch", "variation",
     "conformal_change_mismatch", None),
    ("entropy.eigen_residual", "entropy", "ConformalPerturbation.eigen_residual", None),
    ("entropy.v_of", "entropy", "v_of", None),
    ("entropy.n_tilde_max", "entropy", "n_tilde_max", None),
    ("entropy.n_tilde_batch", "entropy", "n_tilde_batch", "w"),
    ("entropy.first_variations", "entropy", "first_variations", None),
    ("entropy.second_variation", "entropy", "second_variation", None),
    ("entropy.third_variation", "entropy", "third_variation", None),
    ("entropy.certify", "entropy", "certify", None),
    ("rewrite.reduce_third_variation", "rewrite", "reduce_third_variation", None),
    ("rewrite.confluence_check", "rewrite", "confluence_check", None),
)

PACKAGE = "cpn_entropy"


def _rows(value) -> int:
    """Batch rows of an argument: an int as given, an array's first axis."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    shape = np.shape(value)
    return int(shape[0]) if shape else 1


class Tracer:
    """Context manager: patches on enter, restores on exit."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.patched: dict[str, list[str]] = {}   # span name -> bindings
        self._points: dict[str, int] = {}         # span name -> batch rows
        self._stack: list[int] = []
        self._undo: list = []
        self._integral_nodes = 0      # nodes of the latest cpn_integral call

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s, self s, batch rows."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                        "self_s": 0.0, "points": 0})
            row["calls"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - child[i]
        for name, rows in self._points.items():
            out[name]["points"] = rows
        return out

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn, points_param: str | None):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)
        pos = list(signature.parameters).index(points_param) if points_param else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pos is not None:
                value = args[pos] if len(args) > pos else kwargs[points_param]
                self._points[name] = self._points.get(name, 0) + _rows(value)
            nodes_before = self.counts.get("quadrature.nodes", 0)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, nodes_before)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            try:
                while True:
                    index = self._open(name)
                    try:
                        item = next(batches)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    rows = len(item[1])
                    self.add("quadrature.nodes", rows)
                    self.counts["quadrature.max_batch"] = max(
                        self.counts.get("quadrature.max_batch", 0), rows)
                    yield item
            finally:
                batches.close()

        return wrapper

    # -- counters taken from arguments and results ---------------------------

    def _after_report_report_bytes(self, args, result, nodes_before):
        self.add("report.size_bytes", len(result))

    def _after_geometry_curvature_from_arrays(self, args, result, nodes_before):
        # Computed bytes of the arrays entering and leaving the assembly;
        # einsum temporaries are not included.
        arrays = [args["g"], args["dg"], args["d2g"], result.g_inv,
                  result.Gamma, result.Riem, result.Ric, result.R]
        size = sum(np.asarray(a).nbytes for a in arrays)
        self.counts["geometry.curvature_bytes_per_batch"] = max(
            self.counts.get("geometry.curvature_bytes_per_batch", 0), size)

    def _after_quadrature_cpn_integral(self, args, result, nodes_before):
        self._integral_nodes = self.counts.get("quadrature.nodes", 0) - nodes_before

    def _after_quadrature_adaptive(self, args, result, nodes_before):
        _, error = result
        self.add("quadrature.adaptive.converged", int(error < args["tol"]))
        self.add("quadrature.adaptive.nodes",
                 self.counts.get("quadrature.nodes", 0) - nodes_before)
        self.add("quadrature.adaptive.final_level_nodes", self._integral_nodes)

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        package = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module_name, path, points_param in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                scopes = [owner]
            else:
                original = getattr(module, attr)
                scopes = package
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, points_param)
            bindings = []
            for scope in scopes:
                for key, value in list(vars(scope).items()):
                    if value is original:
                        self._undo.append((scope, key, original))
                        setattr(scope, key, wrapper)
                        bindings.append(f"{getattr(scope, '__name__', scope)}.{key}")
            self.patched[name] = bindings
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            scope, key, original = self._undo.pop()
            setattr(scope, key, original)
