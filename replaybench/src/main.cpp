// replay_bench: one workload of the CLASP replay benchmark per invocation.
//
//   replay_bench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--trace-dir DIR]
//
// --trace 0 repeats untraced iterations for S seconds and reports the
// end-to-end metrics (medians over iterations). --trace 1 alternates an
// untraced and a traced iteration for S seconds and reports the per-layer
// metrics from the traced ones, plus the tracing overhead (traced minus
// untraced total time); the spans of the last traced iteration are written
// to <trace-dir>/trace-<workload>.csv (default: the work dir). Either way
// every output is digested and compared with a serial in-process batch
// replay of the same seed (and with the other iterations); the last stdout
// line is one JSON object, and the exit code is non-zero when any check
// failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace replaybench;

struct metric {
  std::string name;
  double value;
  const char* unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "replay_bench: %s\nusage: replay_bench --workload "
               "paper_batch|fleet10x_parallel|service_mix --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

run_options parse(int argc, char** argv) {
  run_options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (!known_workload(o.workload)) usage("unknown or missing --workload");
  if (o.work_dir.empty()) usage("missing --work-dir");
  if (o.trace_dir.empty()) o.trace_dir = o.work_dir;
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Fold one iteration's digests into the failure map: a campaign whose
// output differs from the reference fails.
void check_digests(const iteration_result& r,
                   const std::vector<std::uint64_t>& expected,
                   const char* against,
                   std::map<std::size_t, std::string>& failures) {
  for (std::size_t k = 0; k < expected.size(); ++k) {
    if (k >= r.digests.size() || r.digests[k] != expected[k]) {
      failures.emplace(k, "campaign " + std::to_string(k) +
                              ": output digest differs from " + against);
    }
  }
}

// Every end-to-end metric is the median over iterations of that
// iteration's value, percentiles included: one slow iteration then moves
// no metric. The hour and quantum tails are not among them: on a shared
// host they swing by more than any bound whenever the host steals CPU (see
// NOTES.md), so they are reported ungated by the traced run.
std::vector<metric> end_to_end(const std::vector<iteration_result>& its) {
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const iteration_result& r : its) v.push_back(f(r));
    return median(v);
  };
  using ir = iteration_result;
  return {
      {"setup_s", med([](const ir& r) { return r.setup_s; }), "s"},
      {"total_s", med([](const ir& r) { return r.total_s; }), "s"},
      {"tests_per_s",
       med([](const ir& r) { return static_cast<double>(r.tests) / r.loop_s; }),
       "1/s"},
      {"hour_p50_us", med([](const ir& r) { return quantile(r.hour_us, 0.5); }),
       "us"},
      {"quantum_p50_ms",
       med([](const ir& r) { return quantile(r.quantum_ms, 0.5); }), "ms"},
      {"turnaround_p50_s",
       med([](const ir& r) { return quantile(r.turnaround_s, 0.5); }), "s"},
      {"turnaround_max_s",
       med([](const ir& r) { return quantile(r.turnaround_s, 1.0); }), "s"},
  };
}

// Span name -> per-layer metric. Spans of any other name (the workload
// root, pool construction, storage billing, service construction) are
// reported together as trace.unattributed_s.
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> m = {
      {"netsim.generate", "netsim.generate_s"},
      {"selection.select", "selection.select_s"},
      {"campaign.deploy", "campaign.deploy_s"},
      {"campaign.begin", "campaign.begin_s"},
      {"netsim.prefill", "netsim.prefill_s"},
      {"netsim.evaluate", "netsim.evaluate_s"},
      {"campaign.stage", "campaign.stage_s"},
      {"tsdb.commit", "tsdb.commit_s"},
      {"tsdb.export", "tsdb.export_s"},
      {"analysis.summarize", "analysis.summarize_s"},
      {"svc.submit", "svc.submit_s"},
      {"svc.cold_start", "svc.cold_start_s"},
      {"svc.warm_resume", "svc.warm_resume_s"},
      {"svc.quantum", "svc.quantum_s"},
      {"svc.pause", "svc.pause_s"},
      {"svc.resume", "svc.resume_s"},
  };
  return m;
}

// Unit of every per-layer metric, in report order.
const std::vector<std::pair<std::string, const char*>>& layer_units() {
  static const std::vector<std::pair<std::string, const char*>> u = {
      {"netsim.generate_s", "s"},      {"selection.select_s", "s"},
      {"selection.servers", "count"},  {"campaign.deploy_s", "s"},
      {"campaign.vms", "count"},       {"campaign.sessions", "count"},
      {"netsim.prefill_s", "s"},       {"netsim.prefill_link_hours", "count"},
      {"netsim.evaluate_s", "s"},      {"campaign.begin_s", "s"},
      {"campaign.stage_s", "s"},       {"campaign.tests", "count"},
      {"campaign.vm_hours", "count"},  {"tsdb.commit_s", "s"},
      {"tsdb.points", "count"},        {"pool.efficiency", "ratio"},
      {"tsdb.export_s", "s"},          {"tsdb.export_bytes", "bytes"},
      {"tsdb.export_mb_per_s", "MB/s"}, {"analysis.summarize_s", "s"},
      {"analysis.series", "count"},    {"svc.submit_s", "s"},
      {"svc.cold_start_s", "s"},       {"svc.quantum_s", "s"},
      {"svc.pause_s", "s"},            {"svc.resume_s", "s"},
      {"svc.warm_resume_s", "s"},      {"svc.quanta", "count"},
      {"svc.preemptions", "count"},    {"svc.evictions", "count"},
      {"svc.cold_starts", "count"},    {"svc.warm_resumes", "count"},
      {"checkpoint.bytes_on_disk", "bytes"},
      {"checkpoint.wal_bytes", "bytes"},
      {"svc.us_per_hour", "us"},       {"dist.us_per_hour", "us"},
      {"dist.overhead_ratio", "ratio"}, {"trace.replay_s", "s"},
      {"trace.unattributed_s", "s"},   {"trace.overhead_s", "s"},
      {"tail.hour_p99_us", "us"},      {"tail.quantum_p95_ms", "ms"},
  };
  return u;
}

// Per-layer figures of one traced iteration `r`, paired with the untraced
// iteration run just before it, which supplies the tracing overhead and
// the (untraced) tail latencies.
std::map<std::string, double> layer_figures(const tracer& t,
                                            const iteration_result& r,
                                            const iteration_result& untraced) {
  std::map<std::string, double> out;
  for (const auto& [name, unit] : layer_units()) out[name] = 0.0;
  double replay = 0.0;
  for (const span_record& s : t.spans()) {
    if (s.parent < 0) {
      replay += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  double unattributed = 0.0;
  for (const auto& [span, self] : t.self_seconds()) {
    const auto it = layer_of_span().find(span);
    if (it == layer_of_span().end()) {
      unattributed += self;
    } else {
      out[it->second] += self;
    }
  }
  out["trace.replay_s"] = replay;
  out["trace.unattributed_s"] = unattributed;
  out["trace.overhead_s"] = r.total_s - untraced.total_s;
  out["tail.hour_p99_us"] = quantile(untraced.hour_us, 0.99);
  out["tail.quantum_p95_ms"] = quantile(untraced.quantum_ms, 0.95);
  for (const auto& [name, v] : r.figures) out[name] = v;
  out["tsdb.export_mb_per_s"] =
      out["tsdb.export_s"] > 0.0
          ? out["tsdb.export_bytes"] / 1e6 / out["tsdb.export_s"]
          : 0.0;
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
       << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const run_options o = parse(argc, argv);
  std::filesystem::create_directories(o.work_dir);

  std::vector<iteration_result> plain, traced;
  std::vector<std::map<std::string, double>> layers;
  tracer last_trace(false);
  std::map<std::size_t, std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  std::string error;
  double rss_mb = 0.0;
  try {
    const auto start = clock_type::now();
    do {
      tracer off(false);
      plain.push_back(run_iteration(o, off));
      if (o.trace) {
        tracer on(true);
        traced.push_back(run_iteration(o, on));
        layers.push_back(layer_figures(on, traced.back(), plain.back()));
        last_trace = std::move(on);
      }
    } while (seconds_between(start, clock_type::now()) < o.seconds);
    rss_mb = peak_rss_mb();
    if (o.trace) {
      std::filesystem::create_directories(o.trace_dir);
      last_trace.write_csv((std::filesystem::path(o.trace_dir) /
                            ("trace-" + o.workload + ".csv"))
                               .string(),
                           o.workload);
    }

    // Every iteration must reproduce the reference replay's outputs; for
    // paper_batch, which is that replay, the first iteration is the
    // reference. Traced iterations are held to the same digests.
    std::vector<std::uint64_t> expected = reference_digests(o);
    const char* against = "the serial in-process batch replay";
    if (expected.empty()) {
      expected = plain.front().digests;
      against = "the first iteration";
    }
    const auto tally = [&](const iteration_result& r,
                           const std::vector<std::uint64_t>& want,
                           const char* what) {
      std::map<std::size_t, std::string> bad = r.failures;
      check_digests(r, want, what, bad);
      attempted += r.digests.size();
      failed += bad.size();
      failures.insert(bad.begin(), bad.end());
    };
    for (std::size_t i = 0; i < plain.size(); ++i) {
      tally(plain[i], expected, against);
      if (i < traced.size()) {
        tally(traced[i], plain[i].digests, "the untraced run");
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
    attempted += 1;
    failed += 1;
  }
  if (attempted == 0) attempted = 1;

  for (const auto& [k, why] : failures) {
    std::printf("FAILED %s\n", why.c_str());
  }
  if (!error.empty()) std::printf("FAILED run aborted: %s\n", error.c_str());
  const bool correct = failed == 0 && error.empty();

  std::vector<metric> metrics;
  if (!plain.empty() && error.empty()) {
    if (!o.trace) {
      metrics = end_to_end(plain);
      metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
    } else {
      for (const auto& [name, unit] : layer_units()) {
        std::vector<double> v;
        for (const auto& l : layers) v.push_back(l.at(name));
        metrics.push_back({name, median(v), unit});
      }
    }
    const iteration_result& r = plain.front();
    std::printf(
        "%s seed %llu: %zu untraced + %zu traced iterations; per iteration "
        "%zu campaigns, %zu hour samples, %zu quantum samples, %llu tests; "
        "failed_ratio %.6g (%llu/%llu)\n",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        plain.size(), traced.size(), r.turnaround_s.size(), r.hour_us.size(),
        r.quantum_ms.size(), static_cast<unsigned long long>(r.tests),
        static_cast<double>(failed) / static_cast<double>(attempted),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(attempted));
  }
  for (const auto* set : {&plain, &traced}) {
    if (set->empty()) continue;
    std::printf("%s iterations total_s:",
                set == &plain ? "untraced" : "traced");
    for (const iteration_result& r : *set) std::printf(" %.4f", r.total_s);
    std::printf("\n");
  }
  // The ungated tails, per untraced iteration.
  std::printf("untraced iterations hour_p99_us / quantum_p95_ms:");
  for (const iteration_result& r : plain) {
    std::printf(" %.1f/%.4f", quantile(r.hour_us, 0.99),
                quantile(r.quantum_ms, 0.95));
  }
  std::printf("\n");
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
