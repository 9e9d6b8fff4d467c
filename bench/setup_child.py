"""Set-up time of one workload in a fresh process.

    python3 bench/setup_child.py <workload> <workers> [rss]

Times from before ``import crossparity`` until the workload's own phases
are warmed up (mask tables built, code paths run once) and prints
``{"setup_s": ...}``.  With ``rss`` it then runs one mix cycle of each own
phase and adds ``peak_rss_mib``: the larger of this process's peak resident
memory and that of its largest pool worker (a forked worker's figure already
holds the pages it shares with this process, so the two are not added).
Run from the root of a checkout.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import crossparity  # noqa: E402,F401

from phases import PHASES, Runner  # noqa: E402
from run import WORKLOADS  # noqa: E402

workload, workers = sys.argv[1], int(sys.argv[2])
phases = [PHASES[name](workers, True) for name in WORKLOADS[workload]]
for phase in phases:
    phase.warm_up()
out = {"setup_s": time.perf_counter() - t0}
if sys.argv[3:] == ["rss"]:
    for phase in phases:
        Runner(phase, 0).run(phase.cycle)
    out["peak_rss_mib"] = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
print(json.dumps(out))
