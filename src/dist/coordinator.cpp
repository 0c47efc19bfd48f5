#include "dist/coordinator.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <string>
#include <utility>

#include "dist/protocol.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace clasp::dist {

namespace {

// How long one recv waits before the coordinator looks at another
// shard's channel. Small enough that one slow worker cannot starve
// another's deadline bookkeeping.
constexpr int kRecvSliceMs = 10;

// How long stop_all waits, over all shards together, for workers to exit
// after the stop frame before it SIGKILLs the rest.
constexpr int kStopTimeoutMs = 1000;

struct dist_metrics {
  obs::gauge* workers;
  obs::gauge* barrier_hour;
  obs::counter* groups;
  obs::counter* records;
  obs::counter* heartbeats;
  obs::counter* timeouts;
  obs::counter* resends;
  obs::counter* crc_rejects;
  obs::counter* failovers;
  obs::counter* respawns;
  obs::histogram* barrier_seconds;
};

dist_metrics& metrics() {
  namespace fam = obs::family;
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  static dist_metrics m{
      &reg.get_gauge(fam::kDistWorkers),
      &reg.get_gauge(fam::kDistBarrierHour),
      &reg.get_counter(fam::kDistGroupsMerged),
      &reg.get_counter(fam::kDistRecords),
      &reg.get_counter(fam::kDistHeartbeats),
      &reg.get_counter(fam::kDistTimeouts),
      &reg.get_counter(fam::kDistResends),
      &reg.get_counter(fam::kDistCrcRejects),
      &reg.get_counter(fam::kDistFailovers),
      &reg.get_counter(fam::kDistRespawns),
      &reg.get_histogram(fam::kDistBarrierSeconds,
                         obs::duration_buckets())};
  return m;
}

}  // namespace

shard_coordinator::shard_coordinator(campaign_runner& campaign,
                                     dist_config config)
    : campaign_(campaign), config_(std::move(config)) {
  // Every shard needs at least one VM slot; a lone VM is a lone shard.
  const std::size_t vms = std::max<std::size_t>(1, campaign_.vm_count());
  config_.shards = std::clamp<std::size_t>(config_.shards, 1, vms);
  report_.shards = config_.shards;
  // Contiguous slot partition, remainder spread over the low shards so
  // sizes differ by at most one.
  const std::size_t vm_count = campaign_.vm_count();
  const std::size_t base = vm_count / config_.shards;
  const std::size_t rem = vm_count % config_.shards;
  workers_.resize(config_.shards);
  std::size_t next = 0;
  for (std::size_t s = 0; s < config_.shards; ++s) {
    workers_[s].slot_begin = next;
    next += base + (s < rem ? 1 : 0);
    workers_[s].slot_end = next;
  }
}

shard_coordinator::~shard_coordinator() { stop_all(); }

pid_t shard_coordinator::worker_pid(std::uint32_t shard) const {
  return shard < workers_.size() ? workers_[shard].pid : -1;
}

void shard_coordinator::kill_worker(std::uint32_t shard) {
  if (shard < workers_.size() && workers_[shard].pid > 0) {
    ::kill(workers_[shard].pid, SIGKILL);
  }
}

void shard_coordinator::arm_deadline(worker_slot& w) {
  w.deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(config_.heartbeat_timeout_ms);
}

void shard_coordinator::spawn_shard(std::uint32_t shard, hour_stamp start) {
  worker_slot& w = workers_[shard];
  shard_assignment a;
  a.shard = shard;
  a.slot_begin = w.slot_begin;
  a.slot_end = w.slot_end;
  a.start = start;
  a.stop = campaign_.config().window.end_at;
  // Chaos is a property of the original cast: a failover replacement
  // always behaves, so every injected fault is recovered from exactly
  // once and the sweep stays deterministic.
  worker_chaos chaos;
  if (w.generation == 0 && shard < config_.chaos.size()) {
    chaos = config_.chaos[shard];
  }
  spawned_worker spawned = spawn_worker(campaign_, a, chaos);
  w.pid = spawned.pid;
  w.channel = std::move(spawned.channel);
  CLASP_LOG(info, "dist") << "shard " << shard << " worker pid " << w.pid
                          << " slots [" << w.slot_begin << ", " << w.slot_end
                          << ") from hour " << start.hours_since_epoch();
  w.strikes = 0;
  w.backoff_ms = config_.initial_backoff_ms;
  w.resends = 0;
  w.have_group = false;
  w.records.clear();
  arm_deadline(w);
}

void shard_coordinator::failover(std::uint32_t shard, hour_stamp at) {
  worker_slot& w = workers_[shard];
  report_.failovers += 1;
  metrics().failovers->add(1);
  if (w.generation >= config_.max_failovers_per_shard) {
    throw state_error("dist: shard " + std::to_string(shard) +
                      " exceeded its failover budget at hour " +
                      std::to_string(at.hours_since_epoch()));
  }
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  w.channel.reset();
  w.generation += 1;
  CLASP_LOG(warn, "dist") << "shard " << shard << " failed at hour "
                          << at.hours_since_epoch()
                          << "; respawning (generation " << w.generation
                          << ")";
  // The replacement starts at the in-flight barrier: everything before
  // it is already committed, and deterministic staging reproduces the
  // barrier hour bit-exact. Recovery cost is always exactly one hour of
  // one shard's staging.
  spawn_shard(shard, at);
  report_.respawns += 1;
  metrics().respawns->add(1);
}

void shard_coordinator::reject_group(std::uint32_t shard, hour_stamp at) {
  worker_slot& w = workers_[shard];
  report_.crc_rejects += 1;
  metrics().crc_rejects->add(1);
  if (w.resends >= config_.max_group_retries) {
    failover(shard, at);
    return;
  }
  w.resends += 1;
  report_.resends += 1;
  metrics().resends->add(1);
  dist_message m;
  m.type = msg_type::resend;
  m.shard = shard;
  m.hour = at.hours_since_epoch();
  try {
    w.channel->send(encode_message(m));
  } catch (const error&) {
    failover(shard, at);
    return;
  }
  arm_deadline(w);
}

void shard_coordinator::collect_hour(hour_stamp at) {
  const std::int64_t h = at.hours_since_epoch();
  for (worker_slot& w : workers_) {
    w.have_group = false;
    w.records.clear();
    w.strikes = 0;
    w.backoff_ms = config_.initial_backoff_ms;
    w.resends = 0;
    arm_deadline(w);
  }
  std::size_t pending = workers_.size();
  std::string payload;
  while (pending > 0) {
    for (std::uint32_t s = 0; s < workers_.size(); ++s) {
      worker_slot& w = workers_[s];
      if (w.have_group) continue;
      const recv_status rs = w.channel->recv(payload, kRecvSliceMs);
      if (rs == recv_status::ok) {
        dist_message m;
        try {
          m = decode_message(payload);
        } catch (const error&) {
          // Frame CRC passed but the content is damaged (per-record CRC
          // or structure): same remedy as a damaged frame.
          reject_group(s, at);
          continue;
        }
        // Any decodable message is proof of life.
        w.strikes = 0;
        w.backoff_ms = config_.initial_backoff_ms;
        arm_deadline(w);
        switch (m.type) {
          case msg_type::hello:
            if (m.fingerprint != campaign_.fingerprint()) {
              throw state_error(
                  "dist: worker fingerprint mismatch (different campaign "
                  "deployed in shard " +
                  std::to_string(s) + ")");
            }
            break;
          case msg_type::heartbeat:
            report_.heartbeats += 1;
            metrics().heartbeats->add(1);
            break;
          case msg_type::hour_group:
            if (m.hour == h &&
                m.records.size() == w.slot_end - w.slot_begin) {
              w.records = std::move(m.records);
              w.have_group = true;
            } else if (m.hour < h) {
              // Duplicate of an already-committed hour (a resend raced
              // our ack). Ack again so the worker advances.
              dist_message ack;
              ack.type = msg_type::ack;
              ack.shard = s;
              ack.hour = m.hour;
              try {
                w.channel->send(encode_message(ack));
              } catch (const error&) {
                failover(s, at);
              }
            } else {
              // Wrong record count or a future hour: protocol breach.
              reject_group(s, at);
            }
            break;
          case msg_type::bye:
          default:
            break;
        }
      } else if (rs == recv_status::corrupt) {
        reject_group(s, at);
      } else if (rs == recv_status::closed) {
        failover(s, at);
      } else {
        // Slice elapsed with nothing from this shard. Deadline expiry
        // earns a strike and a backoff-extended deadline; the strike
        // budget exhausted means the worker is gone or wedged.
        if (std::chrono::steady_clock::now() >= w.deadline) {
          report_.timeouts += 1;
          metrics().timeouts->add(1);
          if (w.strikes >= config_.max_deadline_retries) {
            failover(s, at);
          } else {
            w.strikes += 1;
            w.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(
                             static_cast<std::int64_t>(w.backoff_ms));
            w.backoff_ms *= config_.backoff_multiplier;
          }
        }
      }
    }
    pending = static_cast<std::size_t>(
        std::count_if(workers_.begin(), workers_.end(),
                      [](const worker_slot& w) { return !w.have_group; }));
  }
  // Every shard delivered: assemble the fleet group in slot order and
  // commit through the exact code path a single process uses.
  std::vector<campaign_runner::vm_hour_staging> group(campaign_.vm_count());
  for (const worker_slot& w : workers_) {
    for (std::size_t i = 0; i < w.records.size(); ++i) {
      const std::size_t slot =
          campaign_.decode_wal_record(w.records[i], group[w.slot_begin + i]);
      if (slot != w.slot_begin + i) {
        throw state_error("dist: shard delivered records out of slot order");
      }
    }
    report_.groups_merged += 1;
    report_.records_merged += w.records.size();
    metrics().groups->add(1);
    metrics().records->add(w.records.size());
  }
  campaign_.commit_hour_group(at, std::move(group));
  dist_message ack;
  ack.type = msg_type::ack;
  ack.hour = h;
  for (std::uint32_t s = 0; s < workers_.size(); ++s) {
    ack.shard = s;
    try {
      workers_[s].channel->send(encode_message(ack));
    } catch (const error&) {
      // Dead between delivery and ack: the next barrier's recv will see
      // the closed channel and fail over; nothing to do now.
    }
  }
}

void shard_coordinator::stop_all() {
  dist_message stop_msg;
  stop_msg.type = msg_type::stop;
  for (worker_slot& w : workers_) {
    if (w.pid <= 0) continue;
    try {
      w.channel->send(encode_message(stop_msg));
    } catch (const error&) {
      // Already gone (a finished worker says bye and exits on its own).
    }
  }
  // The parent closed each child's socket end right after fork, so EOF
  // on a channel means that worker has exited: wait for it, draining
  // whatever the worker still had in flight, then reap without polling.
  // A worker that stays silent past the shared bound is killed.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStopTimeoutMs);
  std::string payload;
  for (worker_slot& w : workers_) {
    if (w.pid <= 0) continue;
    recv_status rs;
    do {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      rs = w.channel->recv(
          payload, static_cast<int>(std::max<std::int64_t>(0, left.count())));
    } while ((rs == recv_status::ok || rs == recv_status::corrupt) &&
             std::chrono::steady_clock::now() < deadline);
    w.channel.reset();
    if (rs != recv_status::closed) ::kill(w.pid, SIGKILL);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  metrics().workers->set(0.0);
}

bool shard_coordinator::run_until(hour_stamp stop) {
  // The campaign's own run_until drives the hours (WAL anchor, interrupt,
  // checkpoint cadence, window-end bill); the coordinator supplies the
  // hour step. Shards fork on the first step that finds none running, so
  // a call with no hour left forks nothing, and a call that follows a
  // completed one finds its workers parked at this call's first hour.
  const auto barrier = [&](hour_stamp at) {
    if (workers_.front().pid <= 0) {
      for (std::uint32_t s = 0; s < config_.shards; ++s) spawn_shard(s, at);
      metrics().workers->set(static_cast<double>(config_.shards));
    }
    if (config_.on_barrier_for_testing) {
      config_.on_barrier_for_testing(*this, at);
    }
    metrics().barrier_hour->set(static_cast<double>(at.hours_since_epoch()));
    const auto barrier_begin = std::chrono::steady_clock::now();
    collect_hour(at);
    metrics().barrier_seconds->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      barrier_begin)
            .count());
    report_.hours += 1;
  };
  bool completed = false;
  try {
    completed = campaign_.run_until(stop, barrier);
  } catch (...) {
    stop_all();
    throw;
  }
  // Hours left in the window: the workers stay parked at the barrier of
  // `stop` for the next call. An interrupt or the window end ends them.
  if (!completed || campaign_.cursor() == campaign_.config().window.end_at) {
    stop_all();
  }
  return completed;
}

bool shard_coordinator::run() {
  return run_until(campaign_.config().window.end_at);
}

}  // namespace clasp::dist
