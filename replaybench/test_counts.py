#!/usr/bin/env python3
"""The replay benchmark's own test.

    python3 replaybench/test_counts.py

Run from the root of a CLASP source tree (it builds through run.py). Checks
that

  * the exact counts of the traced run (tests, points, prefilled
    link-hours, export bytes, scheduler stats, checkpoint bytes) repeat
    exactly on one seed, and
  * all three workloads complete with no failed operation on a second seed.

Takes a few minutes: every workload runs three times.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("paper_batch", "fleet10x_parallel", "service_mix")
COUNT_SEED = 7
SECOND_SEED = 8
EXACT_COUNTS = (
    "selection.servers", "campaign.vms", "campaign.sessions",
    "campaign.tests", "campaign.vm_hours", "tsdb.points",
    "netsim.prefill_link_hours", "tsdb.export_bytes", "analysis.series",
    "svc.quanta", "svc.preemptions", "svc.evictions", "svc.cold_starts",
    "svc.warm_resumes", "checkpoint.bytes_on_disk", "checkpoint.wal_bytes",
)


def run(workload, seed, trace):
    """One shortest run (a single iteration); returns the result object."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["log"] = "\n".join(lines[:-1])
    return result


class ReplayBenchmarkTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, COUNT_SEED, 1)
                second = run(workload, COUNT_SEED, 1)
                for r in (first, second):
                    self.assertTrue(r["correct"], r["log"])
                for name in EXACT_COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"],
                                     f"{workload}: {name} differs")
                self.assertGreater(first["metrics"]["campaign.tests"]["value"],
                                   0)

    def test_second_seed_has_no_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = run(workload, SECOND_SEED, 0)
                self.assertEqual(r["exit"], 0, r["log"])
                self.assertTrue(r["correct"], r["log"])
                self.assertEqual(r["failed"], 0, r["log"])
                self.assertGreaterEqual(r["attempted"], 1)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{workload}: {name}")


if __name__ == "__main__":
    unittest.main()
