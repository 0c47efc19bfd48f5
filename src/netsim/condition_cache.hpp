// Hour-epoch cache of link conditions for the campaign replay hot loop.
//
// link_load_model::condition() is a pure function of
// (profile, link, dir, hour), but it costs transcendental math (Box-Muller
// log/sqrt/cos for the hour noise, exp, plus the episode hash draws) and
// the campaign replay re-evaluates it for every hop of every session's two
// paths — even though cloud-WAN, interconnect and transit-backbone links
// are shared by hundreds of sessions in the same region. This cache
// memoizes one hour's worth of conditions for a registered set of links:
// a dense 2 x links table of link_condition keyed by (link slot, dir) and
// stamped with the hour it was filled for.
//
// Each campaign_runner owns one, over its own sessions' links only, so
// campaigns sharing a platform never prefill each other's links; each
// network_view owns another for its direct clients (link_state, evaluate,
// the prober), which register and prefill it themselves.
//
// Usage contract (what keeps replay deterministic AND data-race free):
//  * register_link / register_path run at deployment time, before any
//    worker exists. Registration is idempotent.
//  * prefill(at) recomputes every registered entry for one hour. It is
//    called by the owner's coordinator at the top of each simulated hour,
//    while no worker is evaluating (optionally fanning the recompute out
//    across an idle thread_pool — slots are disjoint, so scheduling cannot
//    change any value).
//  * lookup() is read-only and lock-free; workers call it concurrently
//    during the hour. A miss (unregistered link, or an hour other than the
//    prefilled epoch) returns nullptr and the caller falls back to the
//    direct computation — which yields bit-identical values, because the
//    cache stores exactly condition()'s outputs.
//
// The prefill-then-read phase split means no entry is ever written while
// a reader is live; the thread_pool's batch join publishes the writes to
// every worker (see DESIGN.md, "Hour-epoch link-condition caching").
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/generator.hpp"
#include "netsim/routing.hpp"
#include "obs/metrics.hpp"
#include "util/sim_time.hpp"
#include "util/thread_pool.hpp"

namespace clasp {

namespace detail {
// Per-thread hit/miss tally for the global cache counter family. Plain
// fields with constant initialization: the per-evaluation cost is two TLS
// adds and a compare, with the sharded-counter publish amortized over
// kCacheTallyFlushLookups lookups. All condition_cache instances resolve
// the same registry counters, so one process-wide tally is sound.
struct cache_tally {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
};
inline thread_local cache_tally t_cache_tally;
inline constexpr std::uint64_t kCacheTallyFlushLookups = 4096;
}  // namespace detail

class condition_cache {
 public:
  // Sentinel for "link has no table slot" (unregistered). Public so batch
  // evaluators can pre-resolve link -> slot once and test against it.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  explicit condition_cache(const internet* net);

  // Add a link to the registered set (idempotent). Coordinator-only; must
  // not race with lookup() or prefill().
  void register_link(link_index l);
  // Register every link crossing of a path (access + transit hops).
  void register_path(const route_path& path);

  std::size_t registered_count() const { return links_.size(); }

  // Recompute both directions of every registered link for hour `at`.
  // Coordinator-only, with no concurrent readers. When `pool` is non-null
  // the recompute fans out across it (one index per link; entries are
  // disjoint, values schedule-independent).
  void prefill(hour_stamp at, thread_pool* pool = nullptr);

  // The cached condition of (l, dir) at `at`, or nullptr when the link is
  // unregistered or `at` is not the prefilled epoch. Safe to call from
  // many threads between prefills.
  const link_condition* lookup(link_index l, link_dir dir,
                               hour_stamp at) const {
    if (!valid_ || at.hours_since_epoch() != epoch_) return nullptr;
    if (l.value >= slot_of_.size()) return nullptr;
    const std::uint32_t slot = slot_of_[l.value];
    if (slot == kNoSlot) return nullptr;
    return &table_[2 * slot + (dir == link_dir::a_to_b ? 0 : 1)];
  }

  // The table slot assigned to `l`, or kNoSlot when unregistered. Slots
  // are stable once assigned (register_link only appends), so a batch
  // evaluator can resolve its paths once and reuse the indices for the
  // lifetime of the cache. Entry (slot, dir) lives at table 2*slot + dir.
  std::uint32_t slot(link_index l) const {
    return l.value < slot_of_.size() ? slot_of_[l.value] : kNoSlot;
  }

  // The dense condition table for hour `at`, or nullptr when `at` is not
  // the prefilled epoch. The same validity test lookup() performs, hoisted
  // out of per-hop loops: a batch sweep checks once, then indexes
  // table[2*slot + (dir == a_to_b ? 0 : 1)] directly.
  const link_condition* table_for(hour_stamp at) const {
    if (!valid_ || at.hours_since_epoch() != epoch_) return nullptr;
    return table_.data();
  }

  // Batched hit/miss accounting. lookup() itself stays metric-free so the
  // per-hop cost is untouched; callers tally locally per evaluation and
  // publish once (network_view::evaluate does this per path). The publish
  // lands in a thread-local tally, pushed to the sharded counters every
  // few thousand lookups; a residual below the threshold can linger per
  // thread, which the >90%-hit-ratio consumers tolerate by design.
  void note_lookups(std::uint64_t hits, std::uint64_t misses) const {
    if (!obs::enabled()) return;
    detail::cache_tally& t = detail::t_cache_tally;
    t.hits += hits;
    t.misses += misses;
    if (t.hits + t.misses >= detail::kCacheTallyFlushLookups) {
      hits_->add(t.hits);
      misses_->add(t.misses);
      t = {};
    }
  }

 private:
  // Static link attributes captured at registration, so the hourly
  // prefill walks a contiguous array instead of chasing topology entries.
  struct registered_link {
    link_index link;
    std::uint32_t load_profile{0};
    mbps capacity;
    link_kind kind{link_kind::backbone};
  };

  void fill_slot(std::size_t slot, hour_stamp at);

  const internet* net_;
  std::vector<std::uint32_t> slot_of_;  // link.value -> slot or kNoSlot
  std::vector<registered_link> links_;  // slot -> link + static attributes
  std::vector<link_condition> table_;   // 2 per slot: [a_to_b, b_to_a]
  std::int64_t epoch_{0};               // hour the table was filled for
  bool valid_{false};                   // false until the first prefill

  // Registry handles, resolved once at construction (stable pointers).
  obs::counter* const hits_;
  obs::counter* const misses_;
  obs::counter* const prefills_;
  obs::counter* const prefill_links_;
};

}  // namespace clasp
