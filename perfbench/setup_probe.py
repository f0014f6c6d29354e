"""Time one workload set-up in a fresh interpreter: ``import wate`` plus the
input preparation the workload pays before its first invocation.

    python3 perfbench/setup_probe.py sim-grid
    python3 perfbench/setup_probe.py csv <cohort.csv>

Prints ``{"raw": seconds, "corrected": seconds at nominal speed}``. The
clock starts before ``import wate``, so the import of numpy and of every wate
module is included; interpreter start-up is not. The speed calibration runs
after the clock stops.
"""

import json
import sys
import time

start = time.perf_counter()
import wate  # noqa: E402

if sys.argv[1] == "sim-grid":
    # The study's population values; run_study reuses them from the cache.
    wate.reference_truth(1, 10**6)
else:
    wate.load_csv(sys.argv[2], treatment="a", outcome="y")
elapsed = time.perf_counter() - start

from calibrate import corrected_once  # noqa: E402

print(json.dumps({"raw": elapsed, "corrected": corrected_once(elapsed)}))
