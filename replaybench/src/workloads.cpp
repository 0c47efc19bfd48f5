#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "clasp/analysis.hpp"
#include "clasp/platform.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace replaybench {
namespace {

namespace fs = std::filesystem;
using namespace clasp;

// Table-1 regions in the order every workload reports them.
const std::vector<std::string> kRegions = {"us-central1", "us-east1",
                                           "us-east4",    "us-west1",
                                           "us-west2",    "us-west4"};

// The benchmark seed only picks the generated world; splitmix keeps
// neighbouring seeds apart and never yields 0 (the service's "assign me").
std::uint64_t world_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double since(clock_type::time_point t) {
  return seconds_between(t, clock_type::now());
}

// Digest of everything a campaign wrote to the store, in series order.
std::uint64_t store_digest(const tsdb& store) {
  digest d;
  for (std::size_t ref = 0; ref < store.series_count(); ++ref) {
    const ts_series& s = store.series_at(static_cast<series_ref>(ref));
    d.str(s.metric());
    for (const auto& [k, v] : s.tags()) {
      d.str(k);
      d.str(v);
    }
    d.u64(s.size());
    d.bytes(s.points().data(), s.points().size() * sizeof(ts_point));
  }
  return d.value();
}

void export_download_csv(const clasp_platform& p, const std::string& region,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  tag_filter filter;
  filter.required["campaign"] = "topology";
  filter.required["region"] = region;
  p.store().export_csv(out, "download_mbps", filter);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Per-iteration tallies of the traced hour drive.
struct drive_tally {
  std::uint64_t prefills{0};
  double stage_busy_s{0.0};  // summed per-VM staging time
  double stage_wall_s{0.0};  // wall time of the staging fan-outs
};

// Untraced: the hour loop a user runs, one timed run_hour per hour.
void drive_hours(campaign_runner& c, iteration_result& r) {
  const hour_range w = c.config().window;
  r.hour_us.reserve(r.hour_us.size() + static_cast<std::size_t>(w.count()));
  for (hour_stamp at = w.begin_at; at < w.end_at; ++at) {
    const auto h0 = clock_type::now();
    c.run_hour(at);
    r.hour_us.push_back(since(h0) * 1e6);
  }
  c.charge_monthly_storage();
}

// Traced: the same hours through the public calls run_hour makes, with a
// span around each. With a pool, staging fans out across it and the
// commits follow in slot order; without one each VM is staged and
// committed in turn, as serial run_hour does.
void drive_hours_traced(campaign_runner& c, const network_view& view,
                        thread_pool* pool, tracer& t, std::uint32_t cid,
                        drive_tally& tally) {
  const hour_range w = c.config().window;
  const std::size_t vms = c.vm_count();
  std::vector<campaign_runner::vm_hour_staging> staging(pool ? vms : 1);
  std::vector<double> busy(vms, 0.0);
  for (hour_stamp at = w.begin_at; at < w.end_at; ++at) {
    {
      const scoped_span s(t, "campaign.begin", cid);
      c.begin_hour(at);
    }
    {
      const scoped_span s(t, "netsim.prefill", cid);
      view.link_cache().prefill(at, pool);
    }
    ++tally.prefills;
    {
      const scoped_span s(t, "netsim.evaluate", cid);
      c.evaluate_hour(at, pool);
    }
    if (pool != nullptr) {
      {
        const scoped_span s(t, "campaign.stage", cid);
        const auto s0 = clock_type::now();
        pool->parallel_for(vms, [&](std::size_t v) {
          const auto v0 = clock_type::now();
          c.stage_vm_hour_into(v, at, staging[v]);
          busy[v] += since(v0);
        });
        tally.stage_wall_s += since(s0);
      }
      for (std::size_t v = 0; v < vms; ++v) {
        const scoped_span s(t, "tsdb.commit", cid);
        c.commit_vm_hour(v, std::move(staging[v]));
      }
    } else {
      for (std::size_t v = 0; v < vms; ++v) {
        {
          const scoped_span s(t, "campaign.stage", cid);
          c.stage_vm_hour_into(v, at, staging[0]);
        }
        const scoped_span s(t, "tsdb.commit", cid);
        c.commit_vm_hour(v, std::move(staging[0]));
      }
    }
  }
  for (const double b : busy) tally.stage_busy_s += b;
  const scoped_span s(t, "campaign.bill", cid);
  c.charge_monthly_storage();
}

void add_fleet_counts(const clasp_platform& p,
                      const std::vector<campaign_runner*>& runners,
                      iteration_result& r) {
  for (const campaign_runner* c : runners) {
    r.tests += c->tests_run();
    r.figures["campaign.vms"] += static_cast<double>(c->vm_count());
    r.figures["campaign.sessions"] += static_cast<double>(c->session_count());
    r.figures["campaign.vm_hours"] +=
        static_cast<double>(c->vm_count() * c->config().window.count());
  }
  r.figures["campaign.tests"] = static_cast<double>(r.tests);
  r.figures["tsdb.points"] = static_cast<double>(p.store().point_count());
}

// ---------------------------------------------------------------- batch

struct batch_shape {
  std::vector<std::string> regions;
  hour_range window{topology_campaign_window()};
  std::size_t fleet_scale{1};
  unsigned workers{1};
  bool export_csv{false};
};

iteration_result run_batch(const run_options& o, const batch_shape& shape,
                           tracer& t) {
  iteration_result r;
  platform_config cfg;
  cfg.internet.seed = world_seed(o.seed);
  cfg.fleet_scale = shape.fleet_scale;
  cfg.campaign_workers = shape.workers;

  const auto t0 = clock_type::now();
  const std::int32_t root = t.open("bench.workload");
  std::unique_ptr<clasp_platform> p;
  {
    const scoped_span s(t, "netsim.generate");
    p = std::make_unique<clasp_platform>(cfg);
  }
  std::vector<campaign_runner*> runners;
  double servers = 0.0;
  for (std::uint32_t i = 0; i < shape.regions.size(); ++i) {
    {
      const scoped_span s(t, "selection.select", i);
      servers += static_cast<double>(
          p->select_topology(shape.regions[i]).selected.size());
    }
    const scoped_span s(t, "campaign.deploy", i);
    runners.push_back(
        &p->start_topology_campaign(shape.regions[i], shape.window));
  }
  r.setup_s = since(t0);

  // The traced drive brings its own pool of the campaign's size, so
  // prefill, evaluation and staging fan out exactly as run_hour's do.
  std::unique_ptr<thread_pool> pool;
  if (t.enabled() && shape.workers > 1) {
    const scoped_span s(t, "bench.pool");
    pool = std::make_unique<thread_pool>(shape.workers);
  }
  drive_tally tally;
  std::vector<std::string> csv_paths;
  std::vector<double> congested(runners.size(), 0.0);
  for (std::uint32_t i = 0; i < runners.size(); ++i) {
    const std::string& region = shape.regions[i];
    const auto l0 = clock_type::now();
    if (t.enabled()) {
      drive_hours_traced(*runners[i], p->view(), pool.get(), t, i, tally);
    } else {
      drive_hours(*runners[i], r);
    }
    r.loop_s += since(l0);
    if (shape.export_csv) {
      {
        const scoped_span s(t, "analysis.summarize", i);
        const auto data = p->download_series("topology", region);
        for (std::size_t k = 0; k < data.series.size(); ++k) {
          if (summarize_server(*data.series[k], data.tz[k], 0.5)
                  .congested_server) {
            congested[i] += 1.0;
          }
        }
        r.figures["analysis.series"] += static_cast<double>(data.series.size());
      }
      const std::string path =
          (fs::path(o.work_dir) / (o.workload + "-" + region + ".csv"))
              .string();
      {
        const scoped_span s(t, "tsdb.export", i);
        export_download_csv(*p, region, path);
      }
      csv_paths.push_back(path);
    }
    r.turnaround_s.push_back(since(t0));
  }
  r.total_s = since(t0);
  t.close(root);

  // ---- outputs, checked after the clock stops ----
  for (const double h : r.hour_us) r.quantum_ms.push_back(h / 1e3);
  add_fleet_counts(*p, runners, r);
  r.figures["selection.servers"] = servers;
  for (std::size_t i = 0; i < runners.size(); ++i) {
    if (!shape.export_csv) {
      r.digests.push_back(store_digest(p->store()));
      continue;
    }
    const file_digest fd = digest_file(csv_paths[i]);
    fs::remove(csv_paths[i]);
    r.figures["tsdb.export_bytes"] += static_cast<double>(fd.bytes);
    digest d;
    d.u64(fd.value);
    d.u64(static_cast<std::uint64_t>(congested[i]));
    r.digests.push_back(d.value());
    // One CSV row per completed test, after the header.
    if (fd.rows != runners[i]->tests_run() + 1) {
      r.failures[i] = shape.regions[i] + ": CSV has " +
                      std::to_string(fd.rows) + " lines for " +
                      std::to_string(runners[i]->tests_run()) + " tests";
    }
  }
  if (t.enabled()) {
    // Every prefill recomputes every registered link, whichever campaign
    // registered it.
    r.figures["netsim.prefill_link_hours"] =
        static_cast<double>(p->view().link_cache().registered_count()) *
        static_cast<double>(tally.prefills);
    r.figures["pool.efficiency"] =
        pool ? tally.stage_busy_s /
                   (static_cast<double>(pool->concurrency()) *
                    tally.stage_wall_s)
             : 0.0;
  }
  return r;
}

batch_shape paper_batch_shape() {
  batch_shape s;
  s.regions = kRegions;
  s.export_csv = true;
  return s;
}

// The 10x fleet replays the first 60 days: per-hour cost is what this
// workload measures, and the full window would hold about 1 GB of points.
constexpr int kFleetDays = 60;

batch_shape fleet_shape() {
  batch_shape s;
  s.regions = {"us-east1"};
  s.window.end_at = s.window.begin_at + kFleetDays * 24;
  s.fleet_scale = 10;
  // Two workers, fewer on a smaller host: on a shared 4-vCPU host two
  // measured far steadier than four (see NOTES.md).
  s.workers = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
  return s;
}

// -------------------------------------------------------------- service

constexpr int kMixDays = 30;
constexpr const char* kShardedRegion = "us-east1";
// The closed-loop client pauses these campaigns when their cursor has
// advanced this many hours, and resumes each kResumeAfterTicks ticks later.
const std::map<std::string, std::int64_t> kPauseAtHours = {{"us-west1", 240},
                                                           {"us-east4", 360}};
constexpr std::uint64_t kResumeAfterTicks = 12;

platform_config service_base(const fs::path& dir) {
  platform_config cfg;
  cfg.campaign_workers = 1;
  cfg.service.socket = (dir / "svc.sock").string();
  cfg.service.state_dir = (dir / "state").string();
  cfg.service.results_dir = (dir / "results").string();
  cfg.service.quantum_hours = 6;
  // Room for all six at once: 5 in-process units + 2 shard units.
  cfg.service.worker_budget = 8;
  cfg.service.max_admitted = kRegions.size();
  cfg.service.tenant_max_admitted = kRegions.size() / 2;
  // Never below the admitted count: round-robin over more campaigns than
  // resident slots evicts on nearly every quantum (see NOTES.md).
  cfg.service.max_resident = kRegions.size();
  return cfg;
}

svc::campaign_spec mix_spec(const run_options& o, std::size_t i) {
  svc::campaign_spec spec;
  spec.region = kRegions[i];
  spec.days = kMixDays;
  spec.seed = world_seed(o.seed);
  spec.workers = 1;
  spec.shards = kRegions[i] == kShardedRegion ? 2 : 1;
  spec.fleet_scale = 1;
  spec.faults = "low";
  spec.durable = true;
  return spec;
}

std::string tenant_of(std::size_t i) {
  return i % 2 == 0 ? "tenant-a" : "tenant-b";
}

std::uint64_t tree_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  if (!fs::exists(root)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

iteration_result run_service_mix(const run_options& o, tracer& t) {
  iteration_result r;
  const fs::path dir = fs::path(o.work_dir) / "service_mix";
  fs::remove_all(dir);
  const std::size_t n = kRegions.size();
  if (t.enabled()) {
    // The WAL byte count exists only as an obs counter.
    obs::set_enabled(true);
    obs::metrics_registry::instance().reset_values();
  }

  const auto t0 = clock_type::now();
  const std::int32_t root = t.open("bench.workload");
  fs::create_directories(dir);
  std::unique_ptr<svc::campaign_service> service;
  {
    const scoped_span s(t, "svc.start");
    service = std::make_unique<svc::campaign_service>(service_base(dir));
  }
  // All six submit at once. A refused submit leaves id 0 and a failure.
  std::vector<std::uint64_t> ids(n, 0);
  std::vector<clock_type::time_point> submitted(n);
  for (std::size_t i = 0; i < n; ++i) {
    const scoped_span s(t, "svc.submit", static_cast<std::uint32_t>(i));
    try {
      ids[i] = service->submit(tenant_of(i), mix_spec(o, i));
    } catch (const clasp::error& e) {
      r.failures[i] = kRegions[i] + ": submit refused: " + e.what();
    }
    submitted[i] = clock_type::now();
  }
  // Set-up runs until the first simulated hours, as on the batch
  // workloads: through the first tick that builds a world (generation,
  // selection, deploy), which also runs that campaign's first quantum.
  r.setup_s = since(t0);
  bool built = false;

  struct campaign_view {
    std::int64_t begin{0};
    std::int64_t cursor{0};
    svc::campaign_state state{svc::campaign_state::queued};
    std::size_t vms{0};
    std::size_t sessions{0};
    bool paused{false}, resumed{false};
    std::uint64_t paused_at_tick{0};
    double plain_tick_s{0.0};  // ticks that neither built nor resumed
    std::int64_t plain_hours{0};
  };
  std::vector<campaign_view> cv(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (ids[i] == 0) continue;
    const auto& rec = service->registry().record(ids[i]);
    cv[i].begin = svc::spec_window(rec.spec).begin_at.hours_since_epoch();
    cv[i].cursor = cv[i].begin;
    cv[i].state = rec.state;
  }
  r.turnaround_s.assign(n, 0.0);
  const auto active = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (ids[i] != 0 && svc::state_active(cv[i].state)) return true;
    }
    return false;
  };

  std::uint64_t ticks = 0;
  const auto l0 = clock_type::now();
  while (active()) {
    const svc::campaign_scheduler::sched_stats before =
        service->scheduler().stats();
    const std::int32_t span = t.open("svc.quantum");
    const auto q0 = clock_type::now();
    const bool ran = service->tick();
    const auto q1 = clock_type::now();
    const double dt = seconds_between(q0, q1);
    t.close(span);
    const svc::campaign_scheduler::sched_stats& after =
        service->scheduler().stats();
    const bool cold = after.cold_starts > before.cold_starts;
    const bool warm = after.warm_resumes > before.warm_resumes;
    if (cold && !built) {
      r.setup_s = seconds_between(t0, q1);
      built = true;
    }
    if (cold) t.rename(span, "svc.cold_start");
    if (warm) t.rename(span, "svc.warm_resume");
    ++ticks;
    std::int64_t hours = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ids[i] == 0 || !svc::state_active(cv[i].state)) continue;
      const auto& rec = service->registry().record(ids[i]);
      const std::int64_t cursor = std::max(rec.cursor_hours, cv[i].begin);
      if (cursor != cv[i].cursor) {
        hours = cursor - cv[i].cursor;
        if (!cold && !warm) {
          cv[i].plain_tick_s += dt;
          cv[i].plain_hours += hours;
        }
        cv[i].cursor = cursor;
      }
      if (cv[i].vms == 0) {
        if (svc::campaign_session* sess = service->scheduler().find(ids[i])) {
          cv[i].vms = sess->runner().vm_count();
          cv[i].sessions = sess->runner().session_count();
        }
      }
      cv[i].state = rec.state;
      if (rec.state == svc::campaign_state::done) {
        r.turnaround_s[i] = since(submitted[i]);
      }
    }
    if (ran) {
      r.quantum_ms.push_back(dt * 1e3);
      // A tick that built or resumed a world is a start-up, not hour cost;
      // it still counts in quantum_ms and turnaround.
      if (hours > 0 && !cold && !warm) {
        r.hour_us.push_back(dt * 1e6 / static_cast<double>(hours));
      }
    }
    // Closed-loop client: pause at a fixed cursor, resume a fixed number
    // of ticks later.
    bool resumed_any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const auto pause_at = kPauseAtHours.find(kRegions[i]);
      if (ids[i] == 0 || pause_at == kPauseAtHours.end()) continue;
      campaign_view& c = cv[i];
      if (!c.paused && (c.state == svc::campaign_state::running) &&
          c.cursor - c.begin >= pause_at->second) {
        const scoped_span s(t, "svc.pause", static_cast<std::uint32_t>(i));
        service->pause_campaign(ids[i]);
        c.paused = true;
        c.paused_at_tick = ticks;
        c.state = svc::campaign_state::paused;
      } else if (c.paused && !c.resumed &&
                 (ticks - c.paused_at_tick >= kResumeAfterTicks || !ran)) {
        const scoped_span s(t, "svc.resume", static_cast<std::uint32_t>(i));
        service->resume_campaign(ids[i]);
        c.resumed = true;
        c.state = svc::campaign_state::queued;
        resumed_any = true;
      }
    }
    if (!ran && !resumed_any) break;
  }
  r.loop_s = since(l0);
  r.total_s = since(t0);
  t.close(root);

  // ---- outputs, checked after the clock stops ----
  const svc::campaign_scheduler::sched_stats& st = service->scheduler().stats();
  r.figures["svc.quanta"] = static_cast<double>(st.quanta);
  r.figures["svc.preemptions"] = static_cast<double>(st.preemptions);
  r.figures["svc.evictions"] = static_cast<double>(st.evictions);
  r.figures["svc.cold_starts"] = static_cast<double>(st.cold_starts);
  r.figures["svc.warm_resumes"] = static_cast<double>(st.warm_resumes);
  r.figures["checkpoint.bytes_on_disk"] =
      static_cast<double>(tree_bytes(dir / "state" / "ckpt"));
  if (t.enabled()) {
    const auto counters = obs::metrics_registry::instance().counters();
    const auto wal = counters.find(obs::family::kWalBytes);
    r.figures["checkpoint.wal_bytes"] =
        wal == counters.end() ? 0.0 : static_cast<double>(wal->second);
    obs::set_enabled(false);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (ids[i] == 0) {
      r.digests.push_back(0);
      continue;
    }
    if (cv[i].state != svc::campaign_state::done) {
      r.failures[i] = kRegions[i] + ": ended " + svc::to_string(cv[i].state) +
                      " " + service->registry().record(ids[i]).error;
      r.digests.push_back(0);
      continue;
    }
    const file_digest fd = digest_file(service->results_path(ids[i]));
    r.digests.push_back(fd.value);
    r.tests += fd.rows - 1;  // one row per completed test after the header
    r.figures["tsdb.export_bytes"] += static_cast<double>(fd.bytes);
  }
  r.figures["campaign.tests"] = static_cast<double>(r.tests);
  for (std::size_t i = 0; i < n; ++i) {
    const auto vms = static_cast<double>(cv[i].vms);
    r.figures["campaign.vms"] += vms;
    r.figures["campaign.sessions"] += static_cast<double>(cv[i].sessions);
    r.figures["campaign.vm_hours"] += vms * kMixDays * 24;
  }

  // Tick cost per simulated hour, in-process vs the sharded campaign, on
  // ticks that neither built a world nor resumed one.
  double svc_s = 0.0, svc_h = 0.0, svc_vmh = 0.0;
  double dist_s = 0.0, dist_h = 0.0, dist_vmh = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<double>(cv[i].plain_hours);
    const double vmh = h * static_cast<double>(cv[i].vms);
    if (kRegions[i] == kShardedRegion) {
      dist_s += cv[i].plain_tick_s, dist_h += h, dist_vmh += vmh;
    } else {
      svc_s += cv[i].plain_tick_s, svc_h += h, svc_vmh += vmh;
    }
  }
  r.figures["svc.us_per_hour"] = svc_h > 0 ? svc_s * 1e6 / svc_h : 0.0;
  r.figures["dist.us_per_hour"] = dist_h > 0 ? dist_s * 1e6 / dist_h : 0.0;
  // Per VM-hour, because the sharded region's fleet differs in size.
  r.figures["dist.overhead_ratio"] =
      (svc_vmh > 0 && dist_vmh > 0 && svc_s > 0)
          ? (dist_s / dist_vmh) / (svc_s / svc_vmh)
          : 0.0;
  fs::remove_all(dir);
  return r;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "paper_batch" || name == "fleet10x_parallel" ||
         name == "service_mix";
}

iteration_result run_iteration(const run_options& o, tracer& t) {
  // Write back the previous iteration's CSVs and checkpoints first, so
  // that their I/O does not land inside this iteration's timings.
  ::sync();
  if (o.workload == "paper_batch") {
    return run_batch(o, paper_batch_shape(), t);
  }
  if (o.workload == "fleet10x_parallel") {
    return run_batch(o, fleet_shape(), t);
  }
  if (o.workload == "service_mix") return run_service_mix(o, t);
  throw std::invalid_argument("unknown workload " + o.workload);
}

std::vector<std::uint64_t> reference_digests(const run_options& o) {
  std::vector<std::uint64_t> out;
  if (o.workload == "fleet10x_parallel") {
    platform_config cfg;
    cfg.internet.seed = world_seed(o.seed);
    const batch_shape shape = fleet_shape();
    cfg.fleet_scale = shape.fleet_scale;
    cfg.campaign_workers = 1;
    clasp_platform p(cfg);
    p.start_topology_campaign(shape.regions[0], shape.window).run();
    out.push_back(store_digest(p.store()));
  } else if (o.workload == "service_mix") {
    const fs::path dir = fs::path(o.work_dir) / "service_twins";
    fs::create_directories(dir);
    const platform_config base = service_base(dir);
    for (std::size_t i = 0; i < kRegions.size(); ++i) {
      svc::campaign_spec spec = mix_spec(o, i);
      spec.shards = 1;
      clasp_platform p(svc::resolve_platform_config(spec, base));
      p.start_topology_campaign(spec.region, svc::spec_window(spec)).run();
      const std::string path = (dir / (spec.region + ".csv")).string();
      export_download_csv(p, spec.region, path);
      out.push_back(digest_file(path).value);
    }
    fs::remove_all(dir);
  }
  return out;
}

}  // namespace replaybench
