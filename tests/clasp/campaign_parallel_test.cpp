// Parallel replay determinism: the same campaign run with 1, 2 and 8
// workers must produce point-for-point identical TSDB contents, billing
// totals, someta records and bucket artifacts. Every VM-hour draws from
// its own counter-based RNG stream and staged results merge in VM-slot
// order, so the worker count can only change wall-clock, never values.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"

// --- counting allocator ---------------------------------------------------
// Binary-wide replacement of the global allocation functions so the
// steady-state staging test below can assert the worker path performs
// zero heap allocations. Counting is armed only around the measured
// section; outside it the replacement is a plain malloc shim.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// --------------------------------------------------------------------------

namespace clasp {
namespace {

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

platform_config tiny_config(unsigned workers) {
  platform_config cfg;
  cfg.internet = small_internet_config();
  cfg.internet.seed = 777;
  // Shrink the substrate: this test builds several platforms in sequence.
  cfg.internet.regional_isp_count = 120;
  cfg.internet.business_count = 150;
  cfg.internet.hosting_count = 80;
  cfg.internet.education_count = 30;
  cfg.internet.vantage_point_count = 120;
  cfg.servers = small_server_config();
  cfg.servers.us_server_target = 120;
  cfg.servers.global_server_target = 600;
  cfg.topology_budgets = {{"us-west1", 40}};
  cfg.campaign_workers = workers;
  return cfg;
}

hour_range two_days() {
  return {hour_stamp::from_civil({2020, 5, 1}, 0),
          hour_stamp::from_civil({2020, 5, 3}, 0)};
}

const char* kMetrics[] = {"download_mbps", "upload_mbps",   "latency_ms",
                          "download_loss", "upload_loss",   "gt_episode"};

// Everything a campaign produces, flattened for exact comparison.
struct campaign_snapshot {
  struct series_dump {
    std::string metric;
    tag_set tags;
    std::vector<ts_point> points;
  };
  std::vector<series_dump> series;
  cost_report costs;
  double bucket_mb{0.0};
  std::size_t bucket_objects{0};
  std::size_t tests_run{0};
  std::size_t tests_missed{0};
  unsigned effective_workers{0};
  std::vector<std::vector<vm_metadata_sample>> someta;  // per VM slot
  std::string csv;  // export_csv of all six metrics, concatenated
};

campaign_snapshot snapshot_of(clasp_platform& p, campaign_runner& c) {
  campaign_snapshot snap;
  for (const char* metric : kMetrics) {
    for (const ts_series* s : p.store().query(metric)) {
      snap.series.push_back({s->metric(), s->tags(), s->points()});
    }
  }
  snap.costs = p.cloud().costs();
  const storage_bucket& bucket = p.cloud().bucket(c.config().region);
  snap.bucket_mb = bucket.total_megabytes();
  snap.bucket_objects = bucket.object_count();
  snap.tests_run = c.tests_run();
  snap.tests_missed = c.tests_missed();
  snap.effective_workers = c.workers();
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    snap.someta.push_back(c.metadata(v).samples());
  }
  std::ostringstream csv;
  for (const char* metric : kMetrics) p.store().export_csv(csv, metric);
  snap.csv = csv.str();
  return snap;
}

// Each worker count's platform is built once and its snapshot shared
// across tests (platform construction dominates this suite's runtime).
const campaign_snapshot& run_once(unsigned workers) {
  static std::map<unsigned, campaign_snapshot>* memo =
      new std::map<unsigned, campaign_snapshot>();
  const auto it = memo->find(workers);
  if (it != memo->end()) return it->second;

  clasp_platform p(tiny_config(workers));
  campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
  // Exercise the outage path too: slot 0 down for four mid-window hours.
  c.inject_vm_outage(0, {two_days().begin_at + 20, two_days().begin_at + 24});
  c.run();
  return memo->emplace(workers, snapshot_of(p, c)).first->second;
}

void expect_identical(const campaign_snapshot& a, const campaign_snapshot& b) {
  EXPECT_EQ(a.tests_run, b.tests_run);
  EXPECT_EQ(a.tests_missed, b.tests_missed);

  // Billing totals, bit for bit.
  EXPECT_EQ(a.costs.vm_usd, b.costs.vm_usd);
  EXPECT_EQ(a.costs.egress_usd, b.costs.egress_usd);
  EXPECT_EQ(a.costs.storage_usd, b.costs.storage_usd);

  // Bucket artifacts.
  EXPECT_EQ(a.bucket_objects, b.bucket_objects);
  EXPECT_EQ(a.bucket_mb, b.bucket_mb);

  // TSDB contents, point for point, in identical series order.
  ASSERT_EQ(a.series.size(), b.series.size());
  ASSERT_FALSE(a.series.empty());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].metric, b.series[i].metric);
    EXPECT_EQ(a.series[i].tags, b.series[i].tags);
    ASSERT_EQ(a.series[i].points.size(), b.series[i].points.size());
    for (std::size_t j = 0; j < a.series[i].points.size(); ++j) {
      EXPECT_EQ(a.series[i].points[j].at, b.series[i].points[j].at);
      EXPECT_EQ(a.series[i].points[j].value, b.series[i].points[j].value);
    }
  }

  // someta records per VM slot.
  ASSERT_EQ(a.someta.size(), b.someta.size());
  for (std::size_t v = 0; v < a.someta.size(); ++v) {
    ASSERT_EQ(a.someta[v].size(), b.someta[v].size());
    for (std::size_t j = 0; j < a.someta[v].size(); ++j) {
      EXPECT_EQ(a.someta[v][j].at, b.someta[v][j].at);
      EXPECT_EQ(a.someta[v][j].cpu_utilization, b.someta[v][j].cpu_utilization);
      EXPECT_EQ(a.someta[v][j].memory_gb, b.someta[v][j].memory_gb);
      EXPECT_EQ(a.someta[v][j].io_wait, b.someta[v][j].io_wait);
      EXPECT_EQ(a.someta[v][j].cpu_saturated, b.someta[v][j].cpu_saturated);
    }
  }

  // Exported CSV, byte for byte.
  EXPECT_EQ(a.csv, b.csv);
}

TEST(CampaignParallelTest, WorkerCountNeverChangesResults) {
  const campaign_snapshot& serial = run_once(1);
  EXPECT_EQ(serial.effective_workers, 1u);
  EXPECT_GT(serial.tests_run, 0u);
  EXPECT_GT(serial.tests_missed, 0u);

  const campaign_snapshot& two = run_once(2);
  EXPECT_EQ(two.effective_workers, 2u);
  expect_identical(serial, two);

  const campaign_snapshot& eight = run_once(8);
  EXPECT_EQ(eight.effective_workers, 8u);
  expect_identical(serial, eight);
}

TEST(CampaignParallelTest, MetricsNeverChangeResults) {
  // Observability must be a pure observer: the same campaign with the
  // obs subsystem recording (counters, spans, heartbeat cadence) must be
  // byte-identical to the memoized metrics-off runs, for every worker
  // count. Runs fresh (not memoized) so the enabled flag is honored.
  const campaign_snapshot& reference = run_once(1);
  for (const unsigned workers : {1u, 2u, 8u}) {
    obs::metrics_registry::instance().reset_values();
    obs::trace_ring::instance().reset();
    obs::set_enabled(true);
    platform_config cfg = tiny_config(workers);
    cfg.obs_metrics = true;
    cfg.obs_heartbeat_every_hours = 7;  // exercise the heartbeat path too
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
    c.inject_vm_outage(0,
                       {two_days().begin_at + 20, two_days().begin_at + 24});
    c.run();
    const campaign_snapshot snap = snapshot_of(p, c);
    obs::set_enabled(false);
    expect_identical(reference, snap);

    // The recorded totals must agree with the runner's own bookkeeping.
    const auto counters = obs::metrics_registry::instance().counters();
    EXPECT_EQ(counters.at(obs::family::kCampaignTests), snap.tests_run);
    EXPECT_EQ(counters.at(obs::family::kCampaignTestsMissed),
              snap.tests_missed);
    EXPECT_EQ(counters.at(obs::family::kCampaignHours), 48u);

    // The hour-epoch cache must be effective while being counted: after
    // the first hour warms it, virtually every link lookup hits.
    const std::uint64_t hits = counters.at(obs::family::kCacheHits);
    const std::uint64_t misses = counters.at(obs::family::kCacheMisses);
    ASSERT_GT(hits + misses, 0u);
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
              0.9);
  }
}

TEST(CampaignParallelTest, SteadyStateStagingIsAllocationFree) {
  // The per-VM-hour worker path (stage_vm_hour_into after warmup) must
  // not touch the heap: every buffer it needs — staging vectors, the
  // session-order scratch, the artifact object name, charge-sheet put
  // records — is preallocated or recycled. Guarded by the binary-wide
  // counting allocator above.
  clasp_platform p(tiny_config(1));
  campaign_runner& c = p.start_topology_campaign("us-west1", two_days());
  const hour_stamp begin = two_days().begin_at;
  // Warm up: full hours grow every reusable buffer to steady-state
  // capacity (and resolve the arena + condition cache slots).
  for (int h = 0; h < 6; ++h) c.run_hour(begin + h);

  const hour_stamp at = begin + 6;
  c.begin_hour(at);
  c.evaluate_hour(at);
  // One staging pass warms this thread's scratch and the reused slot.
  campaign_runner::vm_hour_staging staged;
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    c.stage_vm_hour_into(v, at, staged);
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::size_t v = 0; v < c.vm_count(); ++v) {
    c.stage_vm_hour_into(v, at, staged);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "stage_vm_hour_into allocated in steady state";
}

}  // namespace
}  // namespace clasp
