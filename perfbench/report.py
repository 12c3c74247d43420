"""Run every workload over several seeds and print each end-to-end metric.

    python3 perfbench/report.py --seeds 1 2 3 --trace --out perfbench/results/NAME.json

For each workload and seed this runs ``perfbench/run.py --trace 0`` in
turn, then prints per metric the median over runs, the quartiles, the
spread (quartile distance over the median, as the acceptance rule takes
it), the unit, the number of runs and the number of samples behind the
medians (passes for ``wall_s``, interpreter spawns for ``setup_s``).
``fail_share`` is failed calls over attempted calls.  With ``--trace``
one traced run per workload (first seed) adds the per-layer values.
``--out`` writes the whole result set with the environment and every
call's report digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result set to this JSON file")
    args = parser.parse_args(argv)

    result_set = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                  "environment": None, "workloads": {}}
    rows = []
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            line, detail = bench(workload, seed, 0)
            result_set["environment"] = result_set["environment"] or detail["environment"]
            runs.append({"seed": seed, "correct": line["correct"],
                         "attempted": line["attempted"], "failed": line["failed"],
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                         "pass_wall_s": detail["pass_wall_s"],
                         "setup_s": detail["setup_s"],
                         # Later passes repeat the first pass's digests or
                         # carry a problem saying they do not.
                         "calls": [{"argv": c["argv"], "pass": c["pass"],
                                    "digest": c["digest"], "problems": c["problems"]}
                                   for c in detail["calls"]
                                   if c["pass"] == 0 or c["problems"]]})
            print(f"# {workload} seed {seed}: correct={line['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        samples = {"wall_s": sum(len(r["pass_wall_s"]) for r in runs),
                   "setup_s": sum(len(r["setup_s"]) for r in runs)}
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary[name] = quartiles([r["metrics"][name] for r in runs])
            summary[name].update(unit=metric["unit"], bound=metric["bound"],
                                 runs=len(runs), samples=samples.get(name, len(runs)))
            rows.append((workload, name, summary[name]))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        summary["fail_share"] = {"median": failed / attempted, "q1": None, "q3": None,
                                 "spread": None, "unit": "share", "runs": len(runs),
                                 "samples": attempted}
        rows.append((workload, "fail_share", summary["fail_share"]))
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            line, detail = bench(workload, args.seeds[0], 1)
            entry["trace"] = {"seed": args.seeds[0], "correct": line["correct"],
                              "metrics": {k: v["value"]
                                          for k, v in line["metrics"].items()}}
        result_set["workloads"][workload] = entry

    print(f"{'workload':14} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'unit':6} {'runs':>4} {'samples':>7}")
    for workload, name, s in rows:
        def num(x):
            return f"{x:11.5g}" if x is not None else f"{'-':>11}"
        spread = f"{s['spread']:7.3f}" if s["spread"] is not None else f"{'-':>7}"
        bound = f"{s['bound']:6.2f}" if "bound" in s else f"{'-':>6}"
        print(f"{workload:14} {name:12} {num(s['median'])} {num(s['q1'])} "
              f"{num(s['q3'])} {spread} {bound} {s['unit']:6} {s['runs']:4} "
              f"{s['samples']:7}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result_set, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
