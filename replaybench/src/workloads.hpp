// The replay benchmark's three workloads.
//
//   paper_batch        six regions, Table-1 budgets, May-Sep 2020, serial,
//                      per-region CSV export + server summaries
//   fleet10x_parallel  us-east1 at fleet_scale 10, parallel replay, no
//                      export; the store is checked after the clock stops
//   service_mix        one in-process campaign_service, two tenants, six
//                      durable campaigns (faults low, one sharded 2 ways),
//                      a closed-loop client that pauses and resumes two
//
// Each workload runs one iteration per call. With a disabled tracer the
// iteration calls the program the way a user does (run_hour, tick); with an
// enabled tracer it drives the same work through finer public calls and
// records a span around each, so the per-layer self times add up to the
// iteration's wall time. Both modes must produce identical digests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace replaybench {

struct run_options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string work_dir;   // scratch files (CSVs, service state)
  std::string trace_dir;  // where --trace 1 writes its span CSV
};

// What one iteration measured and produced.
struct iteration_result {
  double setup_s{0.0};  // before the first simulated hour / submits done
  double total_s{0.0};  // start until every output exists (incl. setup)
  double loop_s{0.0};   // hour-loop (or tick-loop) wall time
  std::uint64_t tests{0};            // simulated speed tests committed
  std::vector<double> hour_us;       // per simulated campaign-hour
  std::vector<double> quantum_ms;    // per uninterrupted program call
  std::vector<double> turnaround_s;  // per campaign: start/submit -> output
  // One output digest per campaign attempted, in campaign order.
  std::vector<std::uint64_t> digests;
  // Campaigns that threw, were refused or broke an invariant: index in
  // campaign order -> why.
  std::map<std::size_t, std::string> failures;
  // Per-layer figures that are not span self times: exact counts
  // (selection.servers, campaign.tests, ...) and ratios of timings the
  // traced iteration takes (pool.efficiency, dist.us_per_hour, ...).
  std::map<std::string, double> figures;
};

// Run one iteration of `opts.workload`; throws on an unknown workload.
iteration_result run_iteration(const run_options& opts, tracer& trace);

// Reference digests for `opts` from a serial, in-process, unsharded batch
// replay of the same seed, in the campaign order run_iteration uses. Empty
// for paper_batch, which is already that replay (its iterations are
// checked against each other and against row-count invariants instead).
std::vector<std::uint64_t> reference_digests(const run_options& opts);

bool known_workload(const std::string& name);

}  // namespace replaybench
