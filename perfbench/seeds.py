"""Run the benchmark once per seed and report how far its figures spread.

Run from the root of a checkout::

    python3 perfbench/seeds.py --seeds 10 --out spread.json

For every workload in ``BENCHMARK.json`` this runs ``perfbench/run.py
--trace 0`` once per seed (1..N), each in a fresh process and one after
another, and reports for every end-to-end metric the median and the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound.  End-to-end spreads, other than
``setup_s``'s, must stay within their bounds for the benchmark to be usable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the spreads to this JSON file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            print(f"{workload} seed {seed}: exit {proc.returncode} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            median, iqr = spread(vals)
            rows[name] = {"median": median, "iqr_over_median": iqr,
                          "bound": bounds[name], "values": vals}
            print(f"  {workload} {name}: median {median:.6g} spread {iqr:.4f} "
                  f"bound {bounds[name]}", flush=True)
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
