"""Benchmark entry point for cpn-entropy.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is used from source: the
workload runs in a fresh interpreter (perfbench/worker.py) with ``src`` on
``PYTHONPATH`` and the BLAS thread variables pinned to the number of usable
CPUs.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  The line before it is a detail record: every pass time, every
call's report digest and problems, and the environment.  Any failed check
makes ``correct`` false.  Without ``src/cpn_entropy`` next to this
directory the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 11
RUN_LIMIT_S = 170.0
SETUP_CODE = ("import time; import cpn_entropy.cli as cli; cli.build_parser(); "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def pinned_env() -> dict[str, str]:
    from worker import THREAD_VARIABLES

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({name: nproc for name in THREAD_VARIABLES})
    return env


def setup_times(env: dict[str, str]) -> list[float]:
    """Seconds from starting a fresh interpreter until the CLI module is
    imported and its parser built; one untimed spawn first compiles the
    bytecode cache.

    The child reads the end time from the system-wide monotonic clock, so
    neither its exit nor the parent's wait is counted: a wait with a
    timeout polls in steps of up to 50 ms.
    """
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        if i:
            times.append(float(done.stdout) - start)
    return times


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="cpn-entropy benchmark run")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cpn_entropy" / "cli.py").is_file():
        print(f"error: no cpn_entropy source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = pinned_env()
    setup = [] if args.trace else setup_times(env)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    run = json.loads(done.stdout.strip().splitlines()[-1])

    if args.trace:
        values = run["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(run["pass_wall_s"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": run["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    failed = sum(1 for call in run["calls"] if call["problems"])
    attempted = len(run["calls"])
    run["environment"].update({"commit": git_commit(), "seed": args.seed})
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pass_wall_s": run["pass_wall_s"], "setup_s": setup,
              "fail_share": failed / attempted, "calls": run["calls"],
              "environment": run["environment"], "values": values}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
