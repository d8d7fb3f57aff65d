"""Time one set-up in a fresh interpreter: importing the package and the
benchmark's workload module, then building the workload from its seed.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints {"setup_s": ..., "raw_s": ...}: raw_s as measured, setup_s rescaled
to the reference host speed by host-speed samples taken right after it.
run.py starts this several times per run.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS, calibrate, to_reference  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), NullTracer(), HERE.parent / ".perfbench")
raw_s = perf_counter() - start
factor = to_reference([calibrate() for _ in range(3)])
print(json.dumps({"setup_s": raw_s * factor, "raw_s": raw_s}))
