#!/usr/bin/env python3
"""CI gate for BENCH_campaign.json.

Asserts the campaign bench emitted the serial 1x and 10x fleet runs, the
speedup_at_10x field and the shared-platform pair, and applies the perf
gates: fail when the serial ns/hour at 1x or at 10x fleet regresses more
than 10% over the committed baseline (bench/campaign_baseline.json), when
the batched link-hour evaluation is less than 5x faster than per-session
evaluation at 10x fleet, or when a campaign's hour on a platform shared
with the other five Table-1 regions costs more than 1.25x the same hour on
a platform of its own (shared_platform_hour_ratio). The last is a ratio of
two runs on one host, so it needs no baseline.

Usage: check_bench_campaign.py BENCH_campaign.json campaign_baseline.json
"""

import json
import sys

SPEEDUP_FLOOR = 5.0
SHARED_PLATFORM_RATIO_LIMIT = 1.25
REGRESSION_HEADROOM = 1.10


def fail(msg):
    print(f"bench gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_regression(bench, baseline, key):
    measured = bench.get(key)
    if measured is None:
        fail(f"missing '{key}'")
    base = baseline.get(key)
    if not base or base <= 0:
        fail(f"baseline file has no positive '{key}'")
    limit = base * REGRESSION_HEADROOM
    if measured > limit:
        fail(
            f"{key} = {measured:.0f} exceeds {limit:.0f} "
            f"(baseline {base:.0f} + 10%). If this is an accepted cost or a "
            "hardware change, re-baseline: copy the new value into "
            "bench/campaign_baseline.json with a note in the PR."
        )
    return f"{key}={measured:.0f} (baseline {base:.0f}, limit {limit:.0f})"


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} BENCH_campaign.json campaign_baseline.json")
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    # 1. Both serial whole-hour configurations ran.
    runs = bench.get("runs", [])
    serial_scales = {r["fleet_scale"] for r in runs if r.get("workers") == 1}
    for scale in (1, 10):
        if scale not in serial_scales:
            fail(f"missing serial {scale}x fleet run in 'runs'")

    # 2. The link-hour evaluation pair ran at 10x and the recorded
    #    speedup meets the batched evaluator's floor.
    link_runs = bench.get("link_eval_runs", [])
    link_scaled = {r["batch"] for r in link_runs if r.get("fleet_scale") == 10}
    if link_scaled != {True, False}:
        fail("missing 10x link-hour evaluation pair in 'link_eval_runs'")
    speedup = bench.get("speedup_at_10x")
    if speedup is None:
        fail("missing 'speedup_at_10x'")
    if speedup < SPEEDUP_FLOOR:
        fail(
            f"speedup_at_10x = {speedup:.2f} < {SPEEDUP_FLOOR} (batched "
            "link-hour evaluation vs per-session evaluate at 10x fleet)"
        )

    # 3. A campaign pays only for its own links: its hour beside the other
    #    five Table-1 regions costs about what it costs alone.
    ratio = bench.get("shared_platform_hour_ratio")
    if ratio is None:
        fail("missing 'shared_platform_hour_ratio'")
    if ratio > SHARED_PLATFORM_RATIO_LIMIT:
        fail(
            f"shared_platform_hour_ratio = {ratio:.2f} > "
            f"{SHARED_PLATFORM_RATIO_LIMIT} (us-west2's serial hour on a "
            "platform holding all six Table-1 campaigns vs on its own; a "
            "campaign's hour is paying for other campaigns' links)"
        )

    # 4. Perf gates: the serial hour at 1x and 10x fleet must not regress
    #    > 10% vs the committed baseline.
    one_x = check_regression(bench, baseline, "ns_per_hour_1x")
    ten_x = check_regression(bench, baseline, "ns_per_hour_10x")

    print(
        f"bench gate: OK: speedup_at_10x={speedup:.2f} (floor {SPEEDUP_FLOOR}), "
        f"shared_platform_hour_ratio={ratio:.2f} "
        f"(limit {SHARED_PLATFORM_RATIO_LIMIT}), {one_x}, {ten_x}"
    )


if __name__ == "__main__":
    main()
