"""Smoke test of the benchmark itself.

Run from the root of a checkout: ``python3 perfbench/smoke.py`` (a few
seconds; exit code 0 means it passed).  Runs every workload at a tiny size,
untraced and traced, twice, and checks that

* every metric ``BENCHMARK.json`` names appears, with its unit;
* ``*.calls_per_io``, ``simcore.heap_per_io``, the model counters and the
  ``sim_*`` outputs repeat exactly between the two runs;
* a digest that does not match its pin fails the run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import workloads as wl  # noqa: E402

#: Per-layer metrics that are host times, and so may differ between runs.
TIMED = ("self_us_per_io", "trace_overhead_frac", "_ms", "_ms_p50", "_ms_p99", "restore_s")


def tiny_reports(workload: str) -> dict:
    ops = wl.TINY_OPS[workload]
    untraced = run.measure_untraced(workload, seed=1, seconds=0.0, ops=ops, probes=1)
    traced = run.measure_traced(workload, seed=1, seconds=0.0, ops=ops)
    return {"untraced": untraced, "traced": traced}


def exact_part(report: dict) -> dict:
    """The metrics that must repeat exactly, by name."""
    values = {**report["metrics"], **report["extra"]}
    if "spans" in report:  # traced: everything but host times
        return {
            name: value for name, value in values.items()
            if not name.endswith(TIMED) and not name.startswith("trace.")
        }
    return {name: value for name, value in values.items() if name.startswith("sim_")}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for workload in wl.WORKLOADS:
        first, second = tiny_reports(workload), tiny_reports(workload)
        for mode, names in (("untraced", spec["end_to_end"]), ("traced", spec["per_layer"])):
            got = first[mode]["metrics"]
            for metric in names:
                if metric["name"] not in got:
                    failures.append(f"{workload}/{mode}: {metric['name']} missing")
                elif got[metric["name"]][1] != metric["unit"]:
                    failures.append(
                        f"{workload}/{mode}: {metric['name']} has unit "
                        f"{got[metric['name']][1]!r}, not {metric['unit']!r}"
                    )
            extra = set(got) - {m["name"] for m in names}
            if extra:
                failures.append(f"{workload}/{mode}: unlisted metrics {sorted(extra)}")
            if first[mode]["ledger"].errors:
                failures.append(f"{workload}/{mode}: {first[mode]['ledger'].errors}")
            a, b = exact_part(first[mode]), exact_part(second[mode])
            for name in sorted(a):
                if a[name] != b.get(name):
                    failures.append(f"{workload}/{mode}: {name} {a[name]} != {b.get(name)}")
        if not any(n.endswith(".calls_per_io") for n in exact_part(first["traced"])):
            failures.append(f"{workload}: no call counts compared")

    ledger = run.Ledger({"spdk": "0" * 64})
    ledger.add(wl.run_rep(wl.SCALEOUT, 1, wl.TINY_OPS[wl.SCALEOUT], wl.Plan()), "pin")
    if not ledger.errors or ledger.failed != ledger.attempted:
        failures.append("a digest that does not match its pin was accepted")

    for failure in failures:
        print("FAIL", failure)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
