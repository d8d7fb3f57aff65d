"""One closed-loop client of a workload, started by run.py.

    python3 perfbench/client.py <workload> <seed> <workdir> <index> <seconds>

Builds its own copy of the workload, prints "ready", waits for a line on
stdin, then takes every `clients`-th unit of the seeded sequence, starting
at `index`, until `seconds` have passed.  Prints its tally as one JSON
object and exits.
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS, Tally, closed_loop  # noqa: E402

name, seed, workdir, index, seconds = sys.argv[1:]
workdir = Path(workdir)
workdir.mkdir(parents=True, exist_ok=True)
workload = WORKLOADS[name](int(seed), NullTracer(), workdir)
units = itertools.islice(workload.units(), int(index), None, workload.clients)
tally = Tally()
print("ready", flush=True)
if sys.stdin.readline().strip() != "go":
    sys.exit(1)
wall = closed_loop(workload, units, float(seconds), tally)
print(json.dumps({"tally": dataclasses.asdict(tally), "wall": wall}), flush=True)
