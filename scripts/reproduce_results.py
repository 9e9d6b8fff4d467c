#!/usr/bin/env python3
"""Reproduce the headline detectability and throughput numbers.

Runs the exhaustive and Monte Carlo campaigns behind the main claims (the
exhaustive global k = 4 sweeps beside the census that they check), an
engine-level campaign over the state and the checker's own shadow
registers, and prints the per-mode throughput table for the three
protection levels.  Everything is seeded; rerunning gives identical output
(wall times aside).

    python3 scripts/reproduce_results.py [--quick] [--json OUT.json]

--quick trims the Monte Carlo and engine-level trial counts so the whole
run stays under roughly ten seconds.
"""

import argparse
import json
import sys
import time
from math import comb

from crossparity.campaigns import CampaignSpec, run_campaign, undetected_census
from crossparity.engine import (
    DESIGN_FREQ_MHZ,
    MODES,
    REFERENCE_THROUGHPUT_MBPS,
    throughput_model,
)


def peak_rss():
    """The process's peak resident set from /proc/self/status, as
    ", peak RSS (VmHWM) <n> MiB", or "" where that file does not exist."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return f", peak RSS (VmHWM) {int(line.split()[1]) / 1024:.1f} MiB"
    except FileNotFoundError:
        pass
    return ""


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer Monte Carlo trials")
    ap.add_argument("--json", default=None, metavar="OUT",
                    help="also dump every campaign record to a JSON file")
    args = ap.parse_args(argv)
    trials = 10**5 if args.quick else 10**6
    engine_trials = 200 if args.quick else 2000
    records = []
    t_start = time.perf_counter()

    banner("z-sheet: exhaustive per-sheet enumeration, k = 1..4")
    for k in (1, 2, 3, 4):
        undet = 0
        total = 0
        t0 = time.perf_counter()
        for sheet in range(5):
            rep = run_campaign(CampaignSpec(scheme="z-sheet", k=k,
                                            strategy="exhaustive-sheet",
                                            sheet=sheet))
            undet += rep.undetected
            total += rep.total
            records.append(rep.to_record())
        dt = time.perf_counter() - t0
        print(f"  k={k}: {total:>13,} patterns over 5 sheets, "
              f"{undet:,} undetected   [{dt:.1f}s]")
    print("  (all cross-sheet patterns of weight <= 3 split into sheets of"
        " odd local weight, which the per-sheet result covers)")

    banner("c-plane: exhaustive global enumeration, k = 1..2")
    for k in (1, 2):
        rep = run_campaign(CampaignSpec(scheme="c-plane", k=k,
                                        strategy="exhaustive-global"))
        records.append(rep.to_record())
        print(f"  k={k}: {rep.total:>13,} patterns, {rep.undetected:,} undetected, "
              f"rate {rep.rate:.10f}")
    print(f"  closed form for k=2: 320 columns x C(5,2) = {320 * comb(5, 2):,}")

    banner("exact census of undetected patterns (both schemes)")
    for scheme in ("c-plane", "z-sheet"):
        row = []
        for k in range(1, 7):
            res = undetected_census(k, scheme)
            row.append(f"k={k}: {res.count:,}")
        print(f"  {scheme:8s} " + "  ".join(row))
    frac = undetected_census(4, "z-sheet").fraction
    print(f"  z-sheet k=4 undetected fraction: {frac:.3e} of C(1600,4)")
    print(f"  brute force, exhaustive-global k=4 over all {comb(1600, 4):,} patterns:")
    for scheme in ("c-plane", "z-sheet"):
        rep = run_campaign(CampaignSpec(scheme=scheme, k=4, strategy="exhaustive-global"))
        records.append(rep.to_record())
        print(f"  {scheme:8s} k=4: {rep.undetected:,} undetected, census "
              f"{undetected_census(4, scheme).count:,}   [{rep.wall_time:.2f}s]")

    banner(f"Monte Carlo detection rates, {trials:,} trials per weight (z-sheet)")
    for k in range(4, 9):
        mc = run_campaign(CampaignSpec(scheme="z-sheet", k=k, strategy="random",
                                       trials=trials, seed=1000 + k))
        records.append(mc.to_record())
        print(f"  k={k}: rate {mc.rate:.6f}  CI95 [{mc.ci_low:.6f}, {mc.ci_high:.6f}]"
              f"  undetected {mc.undetected}   [{mc.total / mc.wall_time:,.0f} trials/s]")

    banner(f"z-sheet engine-level campaign over state and shadow registers, "
           f"{engine_trials:,} trials per weight")
    for k in (1, 2):
        rep = run_campaign(CampaignSpec(scheme="z-sheet", k=k, strategy="random",
                                        trials=engine_trials, seed=2000 + k,
                                        scope=("state", "c_prime", "f_prime",
                                               "cf_prime")))
        records.append(rep.to_record())
        benign = rep.total - rep.detected - rep.undetected - rep.spurious
        print(f"  k={k}: detected {rep.detected}, false alarms {rep.spurious}, "
              f"silent corruption {rep.undetected}, benign {benign}"
              f"   [{rep.total / rep.wall_time:,.0f} trials/s]")
    print("  (a flip in C', F' or C'_F raises a false alarm; it never hides a"
          " corrupted state)")

    banner("long-message throughput model vs recorded design figures")
    header = f"  {'mode':9s}" + "".join(f"{s:>22s}" for s in DESIGN_FREQ_MHZ)
    print(header)
    for mode in MODES:
        cells = []
        for scheme, freq in DESIGN_FREQ_MHZ.items():
            got = throughput_model(mode, freq)
            ref = REFERENCE_THROUGHPUT_MBPS[scheme][mode]
            cells.append(f"{got:9.1f} ({(got - ref) / ref:+.3%})")
        print(f"  {mode:9s}" + "".join(f"{c:>22s}" for c in cells))
    print(f"  clocks: " + ", ".join(f"{s} {f} MHz" for s, f in DESIGN_FREQ_MHZ.items()))

    print(f"\ntotal wall time: {time.perf_counter() - t_start:.1f}s{peak_rss()}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=2)
        print(f"campaign records written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
