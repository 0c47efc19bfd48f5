// Low-overhead metrics primitives: sharded counters, gauges and
// fixed-bucket histograms behind a process-wide registry.
//
// Design constraints (see DESIGN.md "Observability"):
//  - Everything is compiled in but gated on a single global enabled flag;
//    a disabled instrumentation site costs one relaxed atomic load and a
//    predictable branch, nothing else.
//  - Hot-path counters are sharded per worker thread (cache-line aligned
//    slots indexed by a thread-local shard id) and aggregated only at
//    read time, so the campaign inner loop never contends on a counter.
//  - Metric handles returned by the registry are stable for the process
//    lifetime: instrumentation sites resolve them once and cache raw
//    pointers. reset_values() zeroes values but never invalidates handles.
//  - Recording NEVER touches simulated time or random state, so campaign
//    output stays byte-identical with metrics on or off (asserted in
//    campaign_parallel_test).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace clasp::obs {

// Number of independent counter slots. A power of two a little above the
// worker counts we run with (campaigns cap useful workers well below
// this); two workers mapping to one shard is correct, just more shared.
inline constexpr std::size_t kShardCount = 16;

namespace detail {
extern std::atomic<bool> g_enabled;
// Round-robin shard assignment for a new thread; out of line.
std::size_t assign_shard();
// kShardCount doubles as the "unassigned" sentinel so the thread-local is
// constant-initialized: no TLS init guard on the per-add fast path.
inline thread_local std::size_t t_shard = kShardCount;
// Stable small shard id for the calling thread. One TLS load and a
// predictable branch after the first call.
inline std::size_t shard_index() {
  if (t_shard >= kShardCount) t_shard = assign_shard();
  return t_shard;
}
}  // namespace detail

// Global switch. Off by default; enabling is one-way cheap (no fences
// beyond the store) and can be toggled freely in tests.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Monotonically increasing event count. add() is wait-free: one relaxed
// fetch_add on the caller's shard when enabled, a branch when not.
class counter {
 public:
  counter() = default;
  counter(const counter&) = delete;
  counter& operator=(const counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  // Aggregates across shards; read-time only.
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<shard, kShardCount> shards_{};
};

// Last-write-wins double. Gauges are set from coordinator-side code
// (cursor position, pool utilization), so a single atomic is enough.
class gauge {
 public:
  gauge() = default;
  gauge(const gauge&) = delete;
  gauge& operator=(const gauge&) = delete;

  void set(double v) {
    if (!enabled()) return;
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

// Fixed-bucket histogram (Prometheus-style cumulative exposition).
// Bucket upper bounds are fixed at registration; observe() is a binary
// search plus one sharded relaxed add, and the sum is accumulated in
// nanounits (value * 1e9, saturating) so no CAS loop is needed.
class histogram {
 public:
  explicit histogram(std::span<const double> upper_bounds);
  histogram(const histogram&) = delete;
  histogram& operator=(const histogram&) = delete;

  void observe(double x);

  struct snapshot {
    std::vector<double> bounds;        // upper bounds, ascending
    std::vector<std::uint64_t> counts; // bounds.size() + 1 (last = overflow)
    std::uint64_t count{0};
    double sum{0.0};
  };
  snapshot read() const;

  // Quantile estimate (q in [0, 1]); see snapshot_quantile.
  double quantile(double q) const;

  void reset();

 private:
  std::vector<double> bounds_;
  struct alignas(64) shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
    std::atomic<std::uint64_t> sum_nanos{0};
  };
  std::array<shard, kShardCount> shards_;
};

// Name → metric map with stable handles. Names follow Prometheus
// conventions (snake_case, `clasp_` prefix, `_total` for counters); the
// canonical set lives in obs/families.hpp.
class metrics_registry {
 public:
  metrics_registry() = default;
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

  static metrics_registry& instance();

  // Find-or-create. The returned reference stays valid for the registry's
  // lifetime. get_histogram ignores the bounds argument when the name
  // already exists (first registration wins).
  counter& get_counter(const std::string& name);
  gauge& get_gauge(const std::string& name);
  histogram& get_histogram(const std::string& name,
                           std::span<const double> upper_bounds);

  // Zero every value, keeping all registrations (handles stay valid).
  void reset_values();

  // Read-time copies for exposition; sorted by name (std::map).
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, histogram::snapshot> histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<counter>> counters_;
  std::map<std::string, std::unique_ptr<gauge>> gauges_;
  std::map<std::string, std::unique_ptr<histogram>> histograms_;
};

// Quantile estimate (q clamped to [0, 1]) by linear interpolation inside
// the selected bucket; the overflow bucket reports the largest finite
// bound. 0 when the snapshot is empty.
double snapshot_quantile(const histogram::snapshot& s, double q);

// Pre-registers every canonical metric family (obs/families.hpp) in the
// global registry so expositions cover all families even when a run never
// exercises some subsystem (e.g. a campaign without checkpoints).
void register_core_families();

// Shared duration bucket bounds (seconds) for the built-in histograms.
std::span<const double> duration_buckets();

// Bucket bounds (seconds) for clasp_campaign_hour_seconds: 10 us to 50 ms
// in 1-2-5 steps, the range a replayed hour spans (tens of microseconds
// serial at 1x fleet, milliseconds at 10x), so the hour percentiles do
// not all collapse into duration_buckets()' first bucket.
std::span<const double> hour_buckets();

}  // namespace clasp::obs
