"""Set-up time of one workload, measured in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED OPS`` from the root
of a checkout.  Times importing ``repro`` and constructing every cell's
scenario or session up to its first event, then calibrates the host in the
same process, and prints the seconds and the calibration speed.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import calibrate  # noqa: E402  (before repro: see calib)

T0 = time.perf_counter()

sys.path.insert(0, os.path.join(HERE, "..", "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    workloads.build_cells(workload, seed, ops)
    setup_s = time.perf_counter() - T0
    print(repr(setup_s), repr(calibrate()))
