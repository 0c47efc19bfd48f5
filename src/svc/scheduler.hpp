// Cooperative time-slicing scheduler: resident campaign sessions run in
// hour-quanta over the campaign's run_until/checkpoint machinery.
//
// A campaign_session owns one clasp_platform built from the service's
// base config resolved against the campaign's spec, with durability
// namespaced per (tenant, id) under the service checkpoint root — so
// two tenants submitting the same region can never interleave
// checkpoints (the platform enforces this with a typed state_error).
// run_quantum advances the campaign up to quantum_hours via run_until
// (through the session's shard coordinator when the spec shards), which
// WAL-logs every hour and checkpoints on the campaign cadence; the
// quantum that reaches the window end bills storage exactly once and
// publishes the closing checkpoint there, like batch mode. Output is
// therefore byte-identical to an uninterrupted batch run for any quantum
// length, worker count or shard count.
//
// A sharded session forks its workers at its first quantum and keeps
// them for its residency: between quanta they wait at the next hour's
// barrier. They are stopped and reaped when the window completes, when a
// quantum is interrupted (drain) or fails, and whenever the session is
// destroyed: pause, cancel, eviction, completion, or the service's own
// end. A paused non-durable session stays pinned (below), and so do its
// parked workers. The cost is memory: a parked worker keeps the
// fork-time copy of every page the coordinator has written since, for
// the whole residency instead of for one quantum.
//
// The scheduler keeps at most max_resident sessions in memory, evicting
// the least-recently-run *durable* session (checkpoint + destroy; a
// later acquire warm-resumes it from its checkpoint). Non-durable
// sessions are pinned — evicting one would lose its progress — so they
// can push residency past the cap, which only costs memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "svc/registry.hpp"

namespace clasp::dist {
class shard_coordinator;
}  // namespace clasp::dist

namespace clasp::svc {

struct scheduler_settings {
  platform_config base;        // the daemon's world template
  std::string checkpoint_root; // <state_dir>/ckpt
  unsigned quantum_hours{6};
  std::size_t max_resident{4};
};

class campaign_session {
 public:
  // Builds the platform, deploys the topology campaign and, when the
  // spec is durable, resumes from the campaign's checkpoint if one
  // exists (resumed() tells which).
  campaign_session(const campaign_record& rec,
                   const scheduler_settings& settings);
  ~campaign_session();

  struct quantum_result {
    std::size_t hours{0};     // hours actually advanced
    bool finished{false};     // window complete, storage billed
    bool interrupted{false};  // request_interrupt stopped the quantum
  };
  // Advance up to `hours` simulated hours. `active` (when non-null) is
  // published around the blocking run so a signal handler can interrupt
  // the in-flight quantum at the next hour barrier.
  quantum_result run_quantum(unsigned hours,
                             std::atomic<campaign_runner*>* active);

  // Publish a checkpoint at the current cursor if durable and the
  // cursor moved since the last publish (drain path; re-publishing an
  // unchanged cursor would be wasted I/O).
  void checkpoint_now();

  bool resumed() const { return resumed_; }
  bool durable() const { return runner_->durable(); }
  campaign_runner& runner() { return *runner_; }
  clasp_platform& platform() { return *platform_; }
  // The session's shard coordinator; null unless the spec shards.
  const dist::shard_coordinator* coordinator() const { return coord_.get(); }

  // The campaign's download series as CSV — the same filter and bytes
  // `clasp_cli run --csv` writes for this spec.
  void export_csv(std::ostream& out) const;

 private:
  std::unique_ptr<clasp_platform> platform_;
  campaign_runner* runner_{nullptr};
  // Declared after platform_: destroyed first, so its workers are
  // stopped before the runner they serve goes away.
  std::unique_ptr<dist::shard_coordinator> coord_;
  std::string region_;
  bool resumed_{false};
  std::int64_t last_checkpoint_cursor_{-1};
};

class campaign_scheduler {
 public:
  explicit campaign_scheduler(scheduler_settings settings);

  // The resident session for `rec`, building (and possibly evicting the
  // least-recently-run durable session) when absent. Counts a cold
  // start or a warm resume accordingly.
  campaign_session& acquire(const campaign_record& rec);
  campaign_session* find(std::uint64_t id);

  // Run one quantum of a resident session (publishes the active runner
  // for signal-driven interrupts and counts the quantum).
  campaign_session::quantum_result run_quantum(campaign_session& session);

  // Drop a session, checkpointing first when asked and durable. A
  // non-durable session is only dropped when checkpoint_first is false
  // (terminal states); with checkpoint_first it stays resident.
  void release(std::uint64_t id, bool checkpoint_first);

  // Drain path: checkpoint every resident durable session.
  void checkpoint_all();

  struct sched_stats {
    std::uint64_t quanta{0};
    std::uint64_t preemptions{0};
    std::uint64_t evictions{0};
    std::uint64_t cold_starts{0};
    std::uint64_t warm_resumes{0};
  };
  const sched_stats& stats() const { return stats_; }
  void note_preemption() { stats_.preemptions += 1; }

  std::size_t resident() const { return sessions_.size(); }
  // The runner currently inside run_quantum (null between quanta); what
  // a drain signal interrupts.
  std::atomic<campaign_runner*>& active_runner() { return active_runner_; }
  const scheduler_settings& settings() const { return settings_; }

 private:
  void touch(std::uint64_t id);  // LRU move-to-back
  bool evict_one(std::uint64_t keep_id);

  scheduler_settings settings_;
  std::map<std::uint64_t, std::unique_ptr<campaign_session>> sessions_;
  std::vector<std::uint64_t> lru_;  // least recently run first
  sched_stats stats_;
  std::atomic<campaign_runner*> active_runner_{nullptr};
};

}  // namespace clasp::svc
