"""One benchmark run in a fresh interpreter: passes of CLI calls, checks, trace.

run.py starts this file with ``PYTHONPATH`` set to the checkout's ``src``
and BLAS threads pinned, so that the environment is fixed before numpy is
imported.  Every call goes through ``cpn_entropy.cli.main`` in this one
process, in order, as a user or CI would type it.  The last line of
standard output is one JSON object with the passes, the checks, the report
digests, the environment and, with ``--trace 1``, the per-layer values.

    PYTHONPATH=src python3 perfbench/worker.py --workload suites --seed 1 \\
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each workload is a sequence of CLI calls; the run's seed is appended as
# --seed and --points keeps its default.
WORKLOADS = {
    "certify-n4": [["certify", "--N", "4"]],
    "certify-small": [["certify", "--N", "2"], ["certify", "--N", "3"]],
    "suites": [["geometry", "--N", "3"],
               ["eigen", "--N", "3"],
               ["variation", "--N", "2"],
               ["algebra", "--n", "symbolic", "--orders", "100"],
               ["moments", "--N", "2", "--mc-samples", "1000000"]],
}

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_call(cli, argv: list[str]) -> dict:
    # cli.main is looked up at call time, so the tracer's wrapper is seen.
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed call, not a lost run
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return {"argv": argv, "exit": code, "seconds": time.perf_counter() - t0,
            "text": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_pass(cli, calls: list[list[str]]) -> dict:
    t0 = time.perf_counter()
    results = [run_call(cli, argv) for argv in calls]
    return {"wall_s": time.perf_counter() - t0, "calls": results}


def _fraction(value: dict) -> Fraction:
    return Fraction(int(value["num"]), int(value["den"]))


def check_call(call: dict, reverify) -> tuple[list[str], str | None]:
    """Problems found in one call's output, and its report digest.

    The digest is the SHA-256 of the report bytes up to the ``timings``
    field, which is the last key of every report and the only one outside
    the byte-determinism contract.
    """
    problems = []
    if call["exit"] != 0:
        problems.append(f"exit code {call['exit']}: {call['stderr'][-300:]}")
    text = call["text"]
    cut = text.rfind(',"timings":')
    if cut < 0:
        return problems + ["no report on standard output"], None
    digest = hashlib.sha256(text[:cut].encode("utf-8")).hexdigest()
    try:
        report = json.loads(text)
    except ValueError:
        return problems + ["report is not JSON"], digest
    if not reverify(report):
        problems.append("report.reverify rejects the report")
    if report.get("command") == "certify":
        try:
            problems += _certificate_problems(report["config"]["N"],
                                              report["certificate"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"certificate field missing or malformed: {exc!r}")
    return problems, digest


def _certificate_problems(N: int, cert: dict) -> list[str]:
    problems = []
    if cert["verdict"] != "not_local_max":
        problems.append(f"verdict {cert['verdict']!r}")
    avg = Fraction(12, (N + 1) * (N + 2) * (N + 3))
    if _fraction(cert["phi3_average"]["exact"]) != avg:
        problems.append("phi3_average differs from 12/((N+1)(N+2)(N+3))")
    nu3 = Fraction(2 * N - 2) * Fraction((N + 1) ** N, math.factorial(N)) * avg
    if _fraction(cert["third_variation"]["exact_rational"]) != nu3:
        problems.append(f"third_variation.exact_rational differs from {nu3}")
    return problems


def check_passes(passes: list[dict]) -> list[dict]:
    """Per call of every pass: argv, exit code, seconds, digest, problems.

    A call whose digest differs from the same call in the first pass fails:
    the passes share one seed, so their reports must be byte-identical.
    """
    from cpn_entropy.report import reverify

    records = []
    for number, one_pass in enumerate(passes):
        for index, call in enumerate(one_pass["calls"]):
            problems, digest = check_call(call, reverify)
            if number and digest != records[index]["digest"]:
                problems.append("report bytes differ from the first pass")
            records.append({"pass": number, "argv": call["argv"],
                            "exit": call["exit"], "seconds": call["seconds"],
                            "digest": digest, "problems": problems})
    return records


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: build.get(key) for key in ("name", "version",
                                                "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def layer_values(tracer, untraced_s: float, traced_s: float, cpu_s: float,
                 probes: dict) -> dict[str, float]:
    """Every per-layer value the traced run can give, by metric name."""
    from tracer import TARGETS

    summary = tracer.summary()
    values: dict[str, float] = {}
    for name, *_ in TARGETS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "points": 0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.s"] = row["self_s"]
        values[f"{name}.points"] = row["points"]
    counts = tracer.counts

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    for key in ("quadrature.nodes", "quadrature.max_batch",
                "geometry.curvature_bytes_per_batch", "report.size_bytes",
                "quadrature.adaptive.nodes"):
        values[key] = counts.get(key, 0)
    values["quadrature.adaptive.converged_share"] = share(
        counts.get("quadrature.adaptive.converged", 0),
        values["quadrature.adaptive.calls"])
    values["quadrature.adaptive.final_level_node_share"] = share(
        counts.get("quadrature.adaptive.final_level_nodes", 0),
        values["quadrature.adaptive.nodes"])
    mc = summary.get("moments.monte_carlo_average")
    values["moments.mc.samples_per_s"] = (
        share(mc["points"], mc["inclusive_s"]) if mc else 0.0)
    values["process.cpu_s"] = cpu_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = len(tracer.spans)
    values.update(probes)
    return values


def write_spans(tracer, path: Path) -> None:
    """Spans as [name, start, end, parent index], start and end in seconds
    from the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, round(start - origin, 7), round(end - origin, 7), parent]
            for name, start, end, parent in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"patched": tracer.patched, "spans": rows}))


def traced_run(cli, calls: list[list[str]], seed: int):
    """One traced pass, one untraced pass, then the fixed-batch probes.

    The traced pass comes first, as the only pass of a long workload does,
    so the difference of the two passes bounds the tracing overhead from
    above: it also holds the first pass's warm-up.
    """
    from probes import run_probes
    from tracer import Tracer

    tracer = Tracer()
    cpu0 = os.times()
    with tracer:
        traced = run_pass(cli, calls)
    cpu1 = os.times()
    untraced = run_pass(cli, calls)
    cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    values = layer_values(tracer, untraced["wall_s"], traced["wall_s"], cpu_s,
                          run_probes(seed))
    return [traced, untraced], values, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import cpn_entropy.cli as cli

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: cpn_entropy imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    calls = [call + ["--seed", str(args.seed)] for call in WORKLOADS[args.workload]]

    layers = None
    if args.trace:
        passes, layers, tracer = traced_run(cli, calls, args.seed)
        write_spans(tracer, ROOT / ".perfbench" /
                    f"spans-{args.workload}-seed{args.seed}.json")
    else:
        # Another pass starts only if one more of the last pass's length
        # still fits in the measured time; at least one pass runs.
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cli, calls))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall_s"] > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"workload": args.workload, "seed": args.seed,
              "pass_wall_s": [p["wall_s"] for p in passes],
              "peak_rss_mb": peak_rss_mb,
              "calls": check_passes(passes),
              "environment": environment(),
              "layers": layers}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
