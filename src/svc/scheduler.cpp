#include "svc/scheduler.hpp"

#include <algorithm>

#include "dist/coordinator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace clasp::svc {

campaign_session::campaign_session(const campaign_record& rec,
                                   const scheduler_settings& settings)
    : region_(rec.spec.region) {
  platform_config cfg = resolve_platform_config(rec.spec, settings.base);
  if (rec.spec.durable) {
    cfg.campaign_checkpoint_dir = settings.checkpoint_root;
    cfg.campaign_namespace = rec.tenant + "-" + std::to_string(rec.id);
  }
  platform_ = std::make_unique<clasp_platform>(std::move(cfg));
  runner_ = &platform_->start_topology_campaign(region_, spec_window(rec.spec));
  if (runner_->durable()) {
    resumed_ = runner_->resume(runner_->config().checkpoint_dir);
    if (resumed_) {
      last_checkpoint_cursor_ = runner_->cursor().hours_since_epoch();
    }
  }
  const std::size_t shards = platform_->config().campaign_shards;
  if (shards > 1) {
    dist::dist_config dc;
    dc.shards = shards;
    coord_ = std::make_unique<dist::shard_coordinator>(*runner_, dc);
  }
}

campaign_session::~campaign_session() = default;

campaign_session::quantum_result campaign_session::run_quantum(
    unsigned hours, std::atomic<campaign_runner*>* active) {
  quantum_result result;
  const hour_range window = runner_->config().window;
  const hour_stamp before = runner_->cursor();
  hour_stamp stop = before + static_cast<std::int64_t>(hours);
  if (stop > window.end_at) stop = window.end_at;
  if (active) active->store(runner_, std::memory_order_release);
  // Reaching the window end bills storage and publishes the closing
  // checkpoint inside run_until, exactly as one batch run would.
  const bool completed =
      coord_ ? coord_->run_until(stop) : runner_->run_until(stop);
  if (active) active->store(nullptr, std::memory_order_release);
  result.hours = static_cast<std::size_t>(runner_->cursor() - before);
  result.interrupted = !completed;
  result.finished = completed && stop == window.end_at;
  if (result.interrupted && runner_->durable()) {
    // run_until checkpointed before returning false.
    last_checkpoint_cursor_ = runner_->cursor().hours_since_epoch();
  }
  return result;
}

void campaign_session::checkpoint_now() {
  if (!runner_->durable()) return;
  if (runner_->cursor().hours_since_epoch() == last_checkpoint_cursor_) return;
  runner_->checkpoint(runner_->config().checkpoint_dir);
  last_checkpoint_cursor_ = runner_->cursor().hours_since_epoch();
}

void campaign_session::export_csv(std::ostream& out) const {
  tag_filter filter;
  filter.required["campaign"] = runner_->config().label;
  filter.required["region"] = region_;
  platform_->store().export_csv(out, "download_mbps", filter);
}

campaign_scheduler::campaign_scheduler(scheduler_settings settings)
    : settings_(std::move(settings)) {
  if (settings_.quantum_hours == 0) {
    throw invalid_argument_error("svc: quantum_hours must be >= 1");
  }
  if (settings_.max_resident == 0) {
    throw invalid_argument_error("svc: max_resident must be >= 1");
  }
}

campaign_session& campaign_scheduler::acquire(const campaign_record& rec) {
  const auto it = sessions_.find(rec.id);
  if (it != sessions_.end()) {
    touch(rec.id);
    return *it->second;
  }
  while (sessions_.size() >= settings_.max_resident) {
    // When every resident session is pinned (non-durable), over-commit:
    // residency past the cap only costs memory, eviction would cost
    // progress.
    if (!evict_one(rec.id)) break;
  }
  auto session = std::make_unique<campaign_session>(rec, settings_);
  campaign_session& ref = *session;
  sessions_.emplace(rec.id, std::move(session));
  lru_.push_back(rec.id);
  if (ref.resumed()) {
    stats_.warm_resumes += 1;
  } else {
    stats_.cold_starts += 1;
  }
  CLASP_LOG(info, "svc") << "session " << rec.tenant << "-" << rec.id
                         << (ref.resumed() ? " warm-resumed at "
                                           : " cold-started at ")
                         << ref.runner().cursor().to_string();
  return ref;
}

campaign_session* campaign_scheduler::find(std::uint64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

campaign_session::quantum_result campaign_scheduler::run_quantum(
    campaign_session& session) {
  stats_.quanta += 1;
  return session.run_quantum(settings_.quantum_hours, &active_runner_);
}

void campaign_scheduler::release(std::uint64_t id, bool checkpoint_first) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (checkpoint_first) {
    if (!it->second->durable()) return;  // pinned; dropping loses progress
    it->second->checkpoint_now();
  }
  sessions_.erase(it);
  lru_.erase(std::remove(lru_.begin(), lru_.end(), id), lru_.end());
}

void campaign_scheduler::checkpoint_all() {
  for (auto& [id, session] : sessions_) session->checkpoint_now();
}

void campaign_scheduler::touch(std::uint64_t id) {
  const auto it = std::find(lru_.begin(), lru_.end(), id);
  if (it != lru_.end()) lru_.erase(it);
  lru_.push_back(id);
}

bool campaign_scheduler::evict_one(std::uint64_t keep_id) {
  for (const std::uint64_t victim : lru_) {
    if (victim == keep_id) continue;
    campaign_session* session = find(victim);
    if (session == nullptr || !session->durable()) continue;
    session->checkpoint_now();
    sessions_.erase(victim);
    lru_.erase(std::remove(lru_.begin(), lru_.end(), victim), lru_.end());
    stats_.evictions += 1;
    CLASP_LOG(info, "svc") << "evicted session for campaign " << victim
                           << " (resident cap " << settings_.max_resident
                           << ")";
    return true;
  }
  return false;
}

}  // namespace clasp::svc
