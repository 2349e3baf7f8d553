"""The repository benchmark: simulated I/Os per host second, with a traced
per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py                     # every workload, untraced then traced
    python3 perfbench/run.py --workload fig7-tcp-read --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics from
profiled and span-recorded repetitions.  Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``,
and the exit code is 1 when any output check failed.  ``--out FILE`` also
writes the full report (machine context, per-cell results, session timings,
span summary) as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import CALIB_REF, calibrate  # before repro: see calib

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import workloads as wl
except ImportError as exc:
    print(f"perfbench: cannot import the simulator from {ROOT}/src: {exc}", file=sys.stderr)
    sys.exit(2)
import layertrace

DEFAULT_SEED = 1
#: Fresh-interpreter set-up probes per untraced run; the median is reported.
SETUP_PROBES = 7
#: Timed repetitions a run makes even when its time budget is spent.
MIN_REPS = 3
PINS = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(HERE, "out")

Metric = Tuple[float, str]  # (value, unit)


# -- helpers --------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_context(calib: float) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "calib_events_per_s": calib,
    }


def setup_seconds(
    workload: str, seed: int, ops: int, probes: int
) -> List[Tuple[float, float]]:
    """(set-up seconds, calibration speed) from ``probes`` fresh
    interpreters, run one at a time."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), str(ops)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, calib = proc.stdout.split()[-2:]
        samples.append((float(setup_s), float(calib)))
    return samples


def session_timings(reps: List[List[wl.CellRun]]) -> Dict[str, Metric]:
    """Host times of the session's own calls, each the median over the
    repetitions; 0.0 on workloads that host no session."""
    timed = [rep[0].timings for rep in reps if rep[0].timings]

    def median(key: str, q: Optional[float] = None, scale: float = 1e3) -> float:
        if not timed:
            return 0.0
        return statistics.median(
            percentile(t[key], q) if q is not None else t[key][0] for t in timed
        ) * scale

    return {
        "slice_ms_p50": (median("slice_s", 0.50), "ms"),
        "slice_ms_p99": (median("slice_s", 0.99), "ms"),
        "restore_s": (median("restore_s", scale=1.0), "s"),
        "scenarios.compile_ms": (median("compile_s"), "ms"),
        "service.checkpoint_ms": (median("checkpoint_s"), "ms"),
        "service.telemetry_ms_p50": (median("telemetry_s", 0.50), "ms"),
    }


def load_pins(workload: str, seed: int, ops: int) -> Optional[Dict[str, str]]:
    """Pinned digests for this workload, if the run uses the pinned seed and size."""
    with open(PINS) as fh:
        pins = json.load(fh)
    if seed != pins["seed"] or ops != pins["ops"][workload]:
        return None
    return {
        key.split("/", 1)[1]: sha
        for key, sha in pins["metrics_digest_sha256"].items()
        if key.startswith(workload + "/")
    }


class Ledger:
    """Every repetition's cells, the checks they failed and the I/O tally."""

    def __init__(self, pins: Optional[Dict[str, str]]) -> None:
        self.pins = pins
        self.reference: Optional[List[wl.CellRun]] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, rep: List[wl.CellRun], label: str) -> List[wl.CellRun]:
        if self.reference is None:
            self.reference = rep
        for i, run in enumerate(rep):
            run.finish_checks()
            errors = list(run.errors)
            ref = self.reference[i]
            if run.digest_sha256 != ref.digest_sha256:
                errors.append("metrics digest differs from the first repetition's")
            if run.counters != ref.counters:
                errors.append("model counters differ from the first repetition's")
            if self.pins is not None and run.digest_sha256 != self.pins.get(run.cell):
                errors.append(
                    f"metrics digest sha256 {run.digest_sha256} != pinned "
                    f"{self.pins.get(run.cell)}"
                )
            self.attempted += run.sim_ios
            if errors:
                self.failed += run.sim_ios
                self.errors.extend(f"{label}/{run.cell}: {e}" for e in errors)
            else:
                self.failed += run.failed
        return rep


def rep_ios(rep: List[wl.CellRun]) -> int:
    return sum(run.ios for run in rep)


def rep_host_s(rep: List[wl.CellRun]) -> float:
    return sum(run.host_s for run in rep)


def fresh_rep(workload: str, seed: int, ops: int, plan: wl.Plan) -> List[wl.CellRun]:
    gc.collect()
    return wl.run_rep(workload, seed, ops, plan)


# -- measurement ----------------------------------------------------------------


def measure_untraced(
    workload: str, seed: int, seconds: float, ops: int, probes: int
) -> Dict[str, object]:
    """End-to-end metrics from untraced repetitions.

    A calibration runs before the first timed repetition and after each one,
    and a repetition's rate is normalised by the mean of the two around it.
    Each set-up probe calibrates in its own process, right after set-up.
    """
    ledger = Ledger(load_pins(workload, seed, ops))
    plan = wl.Plan()
    deadline = time.perf_counter() + seconds
    ledger.add(fresh_rep(workload, seed, ops, plan), "warm-up")
    reps = []
    raw: List[float] = []
    norm: List[float] = []
    calib = [calibrate()]
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        rep = ledger.add(fresh_rep(workload, seed, ops, plan), f"rep{len(reps)}")
        calib.append(calibrate())
        reps.append(rep)
        raw.append(rep_ios(rep) / rep_host_s(rep))
        norm.append(raw[-1] * CALIB_REF / ((calib[-2] + calib[-1]) / 2))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_seconds(workload, seed, ops, probes)

    head = ledger.reference[-1]
    metrics: Dict[str, Metric] = {
        "ios_per_s": (statistics.median(norm), "1/s"),
        "setup_s": (statistics.median(s * c / CALIB_REF for s, c in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_tc_mbps": (head.tc_mbps, "MB/s"),
        "sim_ls_p9999_us": (head.ls_p9999_us, "us"),
    }
    extra: Dict[str, Metric] = {
        "ios_per_s_raw": (statistics.median(raw), "1/s"),
        "setup_s_raw": (statistics.median(s for s, _c in setup), "s"),
        "calib_events_per_s": (statistics.median(calib), "1/s"),
        "failed_frac": (ledger.failed / max(1, ledger.attempted), "frac"),
    }
    samples = {"ios_per_s": len(reps), "setup_s": len(setup)}
    for run in ledger.reference:
        tag = "opf" if run.protocol == "nvme-opf" else run.protocol
        extra[f"sim_tc_mbps_{tag}"] = (run.tc_mbps, "MB/s")
        extra[f"sim_ls_p9999_us_{tag}"] = (run.ls_p9999_us, "us")
    samples["reps"] = len(reps)
    return {
        "ledger": ledger,
        "metrics": metrics,
        "extra": extra,
        "samples": samples,
        "cells": ledger.reference,
    }


def measure_traced(workload: str, seed: int, seconds: float, ops: int) -> Dict[str, object]:
    """Per-layer metrics: alternating untraced and profiled repetitions,
    then one span-recorded repetition."""
    ledger = Ledger(load_pins(workload, seed, ops))
    plan = wl.Plan()
    deadline = time.perf_counter() + 0.8 * seconds
    ledger.add(fresh_rep(workload, seed, ops, plan), "warm-up")
    plain: List[List[wl.CellRun]] = []
    profiled: List[Tuple[List[wl.CellRun], layertrace.LayerProfile]] = []
    while len(profiled) < 2 or time.perf_counter() < deadline:
        plain.append(ledger.add(fresh_rep(workload, seed, ops, plan), f"plain{len(plain)}"))
        gc.collect()
        with layertrace.LayerProfile() as prof:
            rep = wl.run_rep(workload, seed, ops, plan)
        profiled.append((ledger.add(rep, f"profiled{len(profiled)}"), prof))
    gc.collect()
    with layertrace.SpanRecorder() as spans:
        span_rep = wl.run_rep(workload, seed, ops, plan)
    ledger.add(span_rep, "spans")
    span_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-ops{ops}.json.gz")
    spans.write_chrome_trace(span_path)

    splits = [(prof.wall_s, rep, prof.split()) for rep, prof in profiled]
    for _wall, _rep, (_self, calls, _frac) in splits[1:]:
        if calls != splits[0][2][1]:
            ledger.errors.append("traced call counts differ between profiled repetitions")
    splits.sort(key=lambda item: item[0])
    wall_s, rep, (self_s, calls, profiled_frac) = splits[(len(splits) - 1) // 2]
    ios = sum(run.sim_ios for run in rep)

    metrics: Dict[str, Metric] = {}
    extra: Dict[str, Metric] = {}
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.self_us_per_io"] = (self_s[layer] / ios * 1e6, "us")
        metrics[f"{layer}.calls_per_io"] = (calls[layer] / ios, "count")
    metrics["other.self_us_per_io"] = (self_s[layertrace.OTHER] / ios * 1e6, "us")

    cells = ledger.reference
    total = {key: sum(c.counters[key] for c in cells) for key in cells[0].counters}
    cell_ios = sum(c.ios for c in cells)
    metrics.update({
        "simcore.heap_per_io": (total["heap"] / cell_ios, "count"),
        "net.packets_per_io": (total["packets"] / cell_ios, "count"),
        "net.drops": (total["drops"], "count"),
        "net.tcp_retransmits": (total["tcp_retransmits"], "count"),
        "nvmeof.pdus_per_io": (total["pdus"] / cell_ios, "count"),
        "core.notifications_per_io": (total["notifications"] / cell_ios, "count"),
        "core.coalesced_frac": (total["coalesced"] / max(1, total["notifications"]), "frac"),
        "core.tenant_switches": (total["tenant_switches"], "count"),
        "cpu.target_util": (statistics.fmean(c.counters["cpu_util"] for c in cells), "frac"),
        "ssd.util": (statistics.fmean(c.counters["ssd_util"] for c in cells), "frac"),
        "qos.ticks": (total["qos_ticks"], "count"),
        "qos.actions": (total["qos_actions"], "count"),
        "qos.throttle_delays": (total["qos_throttle_delays"], "count"),
    })
    traced_host = statistics.median(rep_host_s(r) for r, _p in profiled)
    plain_host = statistics.median(rep_host_s(r) for r in plain)
    metrics["trace_overhead_frac"] = (traced_host / plain_host - 1.0, "frac")
    metrics.update(session_timings(plain))
    extra.update({
        "trace.profiled_frac": (profiled_frac, "frac"),
        "trace.wall_s": (wall_s, "s"),
    })
    span_ios = sum(run.sim_ios for run in span_rep)
    span_rows = [
        {
            "layer": layer,
            "entry": name,
            "spans_per_io": n / span_ios,
            "incl_us_per_io": incl / span_ios * 1e6,
            "self_us_per_io": own / span_ios * 1e6,
        }
        for layer, name, n, incl, own in spans.summary()
    ]
    return {
        "ledger": ledger,
        "metrics": metrics,
        "extra": extra,
        "samples": {"plain_reps": len(plain), "profiled_reps": len(profiled),
                    "slices_per_rep": len(plain[0][0].timings.get("slice_s", ())),
                    "spans_kept": len(spans), "spans_dropped": spans.dropped},
        "spans": span_rows,
        "span_file": os.path.relpath(span_path, ROOT),
        "cells": cells,
    }


# -- reporting ------------------------------------------------------------------


def print_report(workload: str, mode: str, report: Dict[str, object]) -> None:
    print(f"== {workload} ({mode}) samples={json.dumps(report['samples'])}")
    for name, (value, unit) in {**report["metrics"], **report["extra"]}.items():
        print(f"  {name:<34} {value:>16.6f} {unit}")
    for run in report["cells"]:
        print(f"  cell {run.cell:<8} ios={run.ios} failed={run.failed} "
              f"heap={run.counters.get('heap')} digest_sha256={run.digest_sha256}")
    for row in report.get("spans", ()):
        print(f"  span {row['entry']:<34} {row['spans_per_io']:>8.3f}/io "
              f"incl {row['incl_us_per_io']:>9.3f} us/io self {row['self_us_per_io']:>8.3f} us/io")
    for err in report["ledger"].errors:
        print(f"  CHECK FAILED: {err}")


def serialise(report: Dict[str, object]) -> Dict[str, object]:
    ledger = report["ledger"]
    return {
        "correct": not ledger.errors,
        "errors": ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "samples": report["samples"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in report["extra"].items()},
        "cells": [
            {"cell": r.cell, "protocol": r.protocol, "ios": r.ios, "failed": r.failed,
             "digest_sha256": r.digest_sha256, "counters": r.counters}
            for r in report["cells"]
        ],
        **({"spans": report["spans"], "span_file": report["span_file"]}
           if "spans" in report else {}),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                             "omitted: both, one after the other")
    parser.add_argument("--out", help="also write the full report to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    context = machine_context(calibrate())
    print("context " + json.dumps(context))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    full: Dict[str, object] = {"context": context, "seed": args.seed,
                               "seconds": args.seconds, "workloads": {}}
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict[str, object]] = {}
    for mode in modes:
        for name in names:
            try:
                if mode == 0:
                    report = measure_untraced(name, args.seed, args.seconds, wl.OPS[name],
                                              SETUP_PROBES)
                else:
                    report = measure_traced(name, args.seed, args.seconds, wl.OPS[name])
            except Exception:
                # A crash is a failed check: show it and report the run as incorrect.
                traceback.print_exc()
                print(json.dumps({"correct": False, "attempted": max(1, attempted),
                                  "failed": max(1, attempted), "metrics": metrics}))
                return 1
            label = "untraced" if mode == 0 else "traced"
            print_report(name, label, report)
            record = serialise(report)
            full["workloads"].setdefault(name, {})[label] = record
            correct = correct and record["correct"]
            attempted += record["attempted"]
            failed += record["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: v for k, v in record["metrics"].items()})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
