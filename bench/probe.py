"""One set-up measurement in a fresh interpreter.

Usage: python3 bench/probe.py WORKLOAD

Times the import of flagbochner, the import of numpy that the engine does
lazily, and the workload's first request, then prints one JSON line with
the set-up time, raw and at reference speed, and the response for the
caller to check.
"""

import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402


def kernel_s() -> float:
    calibrate.timed()  # warm-up
    return statistics.median(calibrate.timed() for _ in range(3))


before = kernel_s()
t0 = time.perf_counter()
import flagbochner.cli  # noqa: E402,F401
import numpy  # noqa: E402,F401
t1 = time.perf_counter()

import workloads  # noqa: E402

request = workloads.first_request(sys.argv[1])
t2 = time.perf_counter()
try:
    doc, error = request.execute(), None
except Exception as err:  # reported to the caller as a failed request
    doc, error = None, f"{type(err).__name__}: {err}"
t3 = time.perf_counter()
raw = (t1 - t0) + (t3 - t2)

print(json.dumps({
    "raw_s": raw,
    "setup_s": raw * calibrate.REFERENCE_S / ((before + kernel_s()) / 2),
    "doc": doc,
    "error": error,
}))
