"""Time one set-up of a workload in a fresh interpreter and print it.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is the import of tropeig plus building the workload's inputs; the
benchmark runs this several times and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from workloads import WORKLOADS  # noqa: E402  (stdlib only at import time)

workload = WORKLOADS[sys.argv[1]]()
start = time.perf_counter()
workload.load()
workload.build(int(sys.argv[2]))
print(time.perf_counter() - start)
