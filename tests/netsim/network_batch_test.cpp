// Bit-identity of the batched arena evaluator against the per-path
// evaluate(flat_path) walk it replaces (see network.hpp, path_arena).
// The batch sweep must produce byte-identical metrics with the cache
// off, on, stale (wrong hour) or private to the arena, during planted
// congestion episodes, for paths of withdrawn servers and for synthetic
// >255-hop paths.
#include "netsim/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "netsim/routing.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "speedtest/registry.hpp"
#include "test_support.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_internet_config;
using ::clasp::testing::small_server_config;

// Substrate + deployed fleet shared by the suite (leaky singleton; the
// fleet mutates the internet, so this binary gets its own instance
// instead of test_support's cached one).
struct batch_world {
  internet net;
  server_registry registry;
};

batch_world& world() {
  static batch_world* w = [] {
    auto* b = new batch_world{generate_internet(small_internet_config()),
                              server_registry{}};
    b->registry = deploy_servers(b->net, small_server_config());
    return b;
  }();
  return *w;
}

void expect_same_metrics(const path_metrics& a, const path_metrics& b) {
  // Exact equality, not near-equality: the batch path must perform the
  // same floating-point operations in the same order.
  EXPECT_EQ(a.base_rtt.value, b.base_rtt.value);
  EXPECT_EQ(a.rtt.value, b.rtt.value);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.bottleneck.value, b.bottleneck.value);
  EXPECT_EQ(a.bottleneck_link.value, b.bottleneck_link.value);
  EXPECT_EQ(a.bottleneck_util, b.bottleneck_util);
  EXPECT_EQ(a.episode, b.episode);
}

class NetworkBatchTest : public ::testing::Test {
 protected:
  NetworkBatchTest()
      : net_(world().net), planner_(&net_), view_(&net_) {
    const city_id region = net_.geo->city_by_name("The Dalles, OR").id;
    const auto router = net_.topo->router_of(net_.cloud, region);
    vm_ = endpoint{net_.cloud, region,
                   net_.topo->router_at(*router).loopback, std::nullopt};

    // A varied path population: every 11th server (ISPs, hosting,
    // education, business, international mix) plus a spread of vantage
    // points, each under both service tiers.
    const auto& servers = world().registry.all();
    for (std::size_t i = 0; i < servers.size(); i += 11) {
      add_path(planner_.endpoint_of_host(servers[i].host),
               service_tier::premium);
      add_path(planner_.endpoint_of_host(servers[i].host),
               service_tier::standard);
    }
    for (std::size_t i = 0; i < net_.vantage_points.size(); i += 16) {
      add_path(planner_.endpoint_of_host(net_.vantage_points[i]),
               service_tier::premium);
    }
  }

  void add_path(const endpoint& src, service_tier tier) {
    routes_.push_back(planner_.to_cloud(src, vm_, tier));
    flats_.push_back(view_.flatten(routes_.back()));
    arena_.add(flats_.back());
  }

  // Register every path's links and prefill the view's cache for `at`.
  void prefill(hour_stamp at) {
    for (const route_path& p : routes_) view_.link_cache().register_path(p);
    view_.link_cache().prefill(at);
  }

  void expect_batch_matches(hour_stamp at) {
    std::vector<path_metrics> out(arena_.size());
    view_.evaluate_batch(arena_, at, 0, arena_.size(), out.data());
    for (std::size_t p = 0; p < flats_.size(); ++p) {
      SCOPED_TRACE("path " + std::to_string(p));
      expect_same_metrics(out[p], view_.evaluate(flats_[p], at));
    }
  }

  internet& net_;
  route_planner planner_;
  network_view view_;
  endpoint vm_;
  std::vector<route_path> routes_;
  std::vector<flat_path> flats_;
  path_arena arena_;
};

TEST_F(NetworkBatchTest, MatchesEvaluateWithoutCache) {
  // No registration, no prefill: every hop takes the compute fallback.
  arena_.resolve(view_.link_cache());
  ASSERT_GT(arena_.size(), 40u);
  for (int h = 0; h < 24; ++h) {
    expect_batch_matches(hour_stamp::from_civil({2020, 6, 1}, 0) + h);
  }
}

TEST_F(NetworkBatchTest, MatchesEvaluateWithPrefilledCache) {
  const hour_stamp at = hour_stamp::from_civil({2020, 6, 3}, 20);
  prefill(at);
  arena_.resolve(view_.link_cache());
  expect_batch_matches(at);
}

TEST_F(NetworkBatchTest, MatchesEvaluateAtNonPrefilledHour) {
  // A stale epoch must fall back to the load model, like lookup() misses.
  const hour_stamp filled = hour_stamp::from_civil({2020, 6, 3}, 20);
  prefill(filled);
  arena_.resolve(view_.link_cache());
  expect_batch_matches(filled + 1);
}

TEST_F(NetworkBatchTest, ResolveBeforeRegistrationStaysOnFallback) {
  // Resolving against an empty cache pins every hop to kUnresolved; a
  // later registration + prefill must not change batch results (they are
  // computed, not read from the table) — identity still holds.
  arena_.resolve(view_.link_cache());
  const hour_stamp at = hour_stamp::from_civil({2020, 7, 11}, 8);
  prefill(at);
  expect_batch_matches(at);
}

TEST_F(NetworkBatchTest, EpisodeHoursStayIdentical) {
  const hour_stamp base = hour_stamp::from_civil({2020, 5, 1}, 0);
  prefill(base);
  arena_.resolve(view_.link_cache());
  std::vector<path_metrics> out(arena_.size());
  std::size_t episode_hours = 0;
  for (int h = 0; h < 24 * 14; ++h) {
    const hour_stamp at = base + h;
    view_.link_cache().prefill(at);
    view_.evaluate_batch(arena_, at, 0, arena_.size(), out.data());
    for (std::size_t p = 0; p < flats_.size(); ++p) {
      const path_metrics ref = view_.evaluate(flats_[p], at);
      if (ref.episode) ++episode_hours;
      SCOPED_TRACE("path " + std::to_string(p) + " hour " + std::to_string(h));
      expect_same_metrics(out[p], ref);
    }
  }
  // The planted ground truth guarantees congestion episodes in any
  // two-week window of a fleet this size.
  EXPECT_GT(episode_hours, 0u);
}

TEST_F(NetworkBatchTest, WithdrawnServerPathsEvaluateIdentically) {
  // Withdrawal is a registry-level event: the server vanishes from
  // crawls, but its attached host and routed path stay evaluable — and
  // the arena, built at deploy time, keeps serving it bit-identically.
  const auto& servers = world().registry.all();
  std::vector<std::size_t> withdrawn;
  for (std::size_t i = 5; i < servers.size() && withdrawn.size() < 8;
       i += 37) {
    withdrawn.push_back(i);
  }
  path_arena arena;
  std::vector<flat_path> flats;
  for (const std::size_t id : withdrawn) {
    const route_path p = planner_.to_cloud(
        planner_.endpoint_of_host(servers[id].host), vm_,
        service_tier::premium);
    view_.link_cache().register_path(p);
    flats.push_back(view_.flatten(p));
    arena.add(flats.back());
  }
  for (const std::size_t id : withdrawn) world().registry.retire_server(id);

  const hour_stamp at = hour_stamp::from_civil({2020, 8, 9}, 21);
  view_.link_cache().prefill(at);
  arena.resolve(view_.link_cache());
  std::vector<path_metrics> out(arena.size());
  view_.evaluate_batch(arena, at, 0, arena.size(), out.data());
  for (std::size_t p = 0; p < flats.size(); ++p) {
    EXPECT_TRUE(world().registry.retired(withdrawn[p]));
    expect_same_metrics(out[p], view_.evaluate(flats[p], at));
  }
}

TEST_F(NetworkBatchTest, PathsBeyond255HopsMatch) {
  // Synthetic ultra-long path: one real path's hop sequence tiled until
  // it crosses 255 hops (the point where a byte-sized hop index would
  // wrap) — the arena's 32-bit offsets must keep every term identical.
  ASSERT_FALSE(flats_.empty());
  flat_path longest = flats_.front();
  while (longest.hops.size() <= 300) {
    longest.hops.insert(longest.hops.end(), flats_.front().hops.begin(),
                        flats_.front().hops.end());
  }
  ASSERT_GT(longest.hops.size(), 255u);
  path_arena arena;
  arena.add(longest);
  arena.add(flats_.front());

  const hour_stamp at = hour_stamp::from_civil({2020, 6, 20}, 19);
  prefill(at);
  arena.resolve(view_.link_cache());
  std::vector<path_metrics> out(arena.size());
  view_.evaluate_batch(arena, at, 0, arena.size(), out.data());
  expect_same_metrics(out[0], view_.evaluate(longest, at));
  expect_same_metrics(out[1], view_.evaluate(flats_.front(), at));
}

// Condition-cache lookups tallied on this thread so far: the published
// counters plus this thread's unpublished residual (see cache_tally).
struct lookup_totals {
  std::uint64_t hits;
  std::uint64_t misses;
};
lookup_totals lookups() {
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  return {reg.get_counter(obs::family::kCacheHits).value() +
              detail::t_cache_tally.hits,
          reg.get_counter(obs::family::kCacheMisses).value() +
              detail::t_cache_tally.misses};
}

TEST_F(NetworkBatchTest, PrivateCacheServesItsArenaWhateverTheViewHolds) {
  // An arena resolved against a cache of its own (as each campaign's is)
  // reads that cache's table: every hop hits when it is prefilled for the
  // hour, and every hop misses when it is not — whatever the view's own
  // cache holds. Either way the metrics equal the per-path walk.
  const hour_stamp at = hour_stamp::from_civil({2020, 6, 9}, 14);
  condition_cache own(&net_);
  for (const route_path& p : routes_) own.register_path(p);
  arena_.resolve(own);
  const std::uint64_t hops = 2 * arena_.hop_count();  // data + ack per hop
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto sweep = [&](std::uint64_t want_hits, std::uint64_t want_misses) {
    std::vector<path_metrics> out(arena_.size());
    const lookup_totals before = lookups();
    view_.evaluate_batch(arena_, at, 0, arena_.size(), out.data());
    const lookup_totals after = lookups();
    EXPECT_EQ(after.hits - before.hits, want_hits);
    EXPECT_EQ(after.misses - before.misses, want_misses);
    for (std::size_t p = 0; p < flats_.size(); ++p) {
      SCOPED_TRACE("path " + std::to_string(p));
      expect_same_metrics(out[p], view_.evaluate(flats_[p], at));
    }
  };
  own.prefill(at);
  {
    SCOPED_TRACE("view cache empty");
    sweep(hops, 0);
  }
  for (const route_path& p : routes_) view_.link_cache().register_path(p);
  view_.link_cache().prefill(at + 1);
  {
    SCOPED_TRACE("view cache prefilled for another hour");
    sweep(hops, 0);
  }
  view_.link_cache().prefill(at);
  {
    SCOPED_TRACE("view cache prefilled for the same hour");
    sweep(hops, 0);
  }
  own.prefill(at + 2);
  {
    SCOPED_TRACE("own cache stale, view cache prefilled");
    sweep(0, hops);
  }
  obs::set_enabled(was_enabled);
}

TEST_F(NetworkBatchTest, PartialRangesCoverExactlyTheirPaths) {
  const hour_stamp at = hour_stamp::from_civil({2020, 6, 5}, 7);
  prefill(at);
  arena_.resolve(view_.link_cache());
  const std::size_t n = arena_.size();
  ASSERT_GT(n, 3u);
  // Poison the output, evaluate [1, n-1), and check the ends are
  // untouched while the interior matches the per-path walk.
  std::vector<path_metrics> out(n);
  out[0].loss = -7.0;
  out[n - 1].loss = -7.0;
  view_.evaluate_batch(arena_, at, 1, n - 1, out.data());
  EXPECT_EQ(out[0].loss, -7.0);
  EXPECT_EQ(out[n - 1].loss, -7.0);
  for (std::size_t p = 1; p + 1 < n; ++p) {
    expect_same_metrics(out[p], view_.evaluate(flats_[p], at));
  }
}

}  // namespace
}  // namespace clasp
