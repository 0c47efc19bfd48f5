#!/usr/bin/env python3
"""CI gate for BENCH_service.json.

Asserts the campaign-service bench ran both legs and that the daemon's
two budgets held:

  1. Latency — a warm resident session's first hour must be cheaper
     than a cold submit (which builds a world, selects, deploys); the
     warm-checkpoint figure only has to exist and be positive, since it
     rebuilds a platform just like cold does.
  2. Throughput — time-slicing 1/4/8 concurrent campaigns must keep
     aggregate simulated hours/sec at >= 0.9x the same campaign set run
     back-to-back in batch mode (scheduling + registry persistence +
     session switching all inside 10%), and every harvested CSV must be
     byte-identical to its batch twin — identity is a contract, not a
     budget.
  3. Sharded slicing — one durable 2-shard campaign time-sliced in
     6-hour quanta must run at >= SHARDED_SLICE_RATIO_FLOOR of the speed
     of the same campaign run once through the shard coordinator (batch
     wall / sliced wall, median of alternated passes in one binary), and
     its harvested CSV must equal the batch one. On a 4-vCPU host with
     --fast, a service that forks its shard workers every quantum read
     0.22-0.25; one that keeps them for the session's residency read
     0.95-0.96.

Usage: check_bench_service.py BENCH_service.json
"""

import json
import sys

THROUGHPUT_RATIO_FLOOR = 0.9
SHARDED_SLICE_RATIO_FLOOR = 0.6


def fail(msg):
    print(f"bench gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_service.json")
    with open(sys.argv[1]) as f:
        bench = json.load(f)

    latency = bench.get("latency")
    if not latency:
        fail("missing 'latency' leg")
    cold = latency.get("cold_first_hour_seconds", 0.0)
    warm_resident = latency.get("warm_resident_first_hour_seconds", 0.0)
    warm_checkpoint = latency.get("warm_checkpoint_first_hour_seconds", 0.0)
    if cold <= 0.0 or warm_resident <= 0.0 or warm_checkpoint <= 0.0:
        fail("latency figures must all be positive "
             f"(cold={cold}, warm_resident={warm_resident}, "
             f"warm_checkpoint={warm_checkpoint})")
    if warm_resident >= cold:
        fail(f"warm resident first hour ({warm_resident}s) is not cheaper "
             f"than cold ({cold}s) — the scheduler is rebuilding sessions "
             "it already holds")

    runs = bench.get("throughput", [])
    by_n = {r.get("concurrent"): r for r in runs}
    for n in (1, 4, 8):
        if n not in by_n:
            fail(f"missing {n}-concurrent throughput run")
    for n, run in sorted(by_n.items()):
        if not run.get("output_identical"):
            fail(f"{n}-concurrent run's harvested CSVs diverged from the "
                 "batch twins")
        ratio = run.get("ratio", 0.0)
        if ratio < THROUGHPUT_RATIO_FLOOR:
            fail(f"{n}-concurrent throughput is {ratio:.3f}x sequential "
                 f"batch (floor {THROUGHPUT_RATIO_FLOOR})")
        if run.get("hours_per_sec", 0.0) <= 0.0:
            fail(f"{n}-concurrent run reports no progress")
    multi = by_n[8]
    if multi.get("preemptions", 0) < 1:
        fail("8-concurrent run recorded no preemptions — the scheduler "
             "never actually time-sliced")

    sharded = bench.get("sharded")
    if not sharded:
        fail("missing 'sharded' leg")
    for field in ("sharded_slice_ratio", "output_identical"):
        if field not in sharded:
            fail(f"sharded leg has no '{field}'")
    if sharded["output_identical"] is not True:
        fail("the time-sliced sharded campaign's CSV diverged from its "
             "batch run")
    slice_ratio = sharded["sharded_slice_ratio"]
    if slice_ratio < SHARDED_SLICE_RATIO_FLOOR:
        fail(f"time-sliced sharded campaign runs at {slice_ratio:.3f}x its "
             f"batch run (floor {SHARDED_SLICE_RATIO_FLOOR}); forking "
             "shard workers every quantum reads this low")

    print("bench gate: OK: "
          f"cold {cold}s vs warm-resident {warm_resident}s; ratios " +
          ", ".join(f"{n}x={by_n[n].get('ratio'):.3f}"
                    for n in sorted(by_n)) +
          f"; sharded slice {slice_ratio:.3f}")


if __name__ == "__main__":
    main()
