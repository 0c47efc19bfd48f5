#include "clasp/campaign.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace clasp {
namespace {

using ::clasp::testing::small_platform;

// A dedicated short-window campaign for these tests, deployed once.
campaign_runner& short_campaign() {
  static campaign_runner* runner = [] {
    auto& p = small_platform();
    const hour_range window{hour_stamp::from_civil({2020, 5, 1}, 0),
                            hour_stamp::from_civil({2020, 5, 4}, 0)};
    campaign_runner& r = p.start_topology_campaign("us-east1", window);
    r.run();
    return &r;
  }();
  return *runner;
}

TEST(CampaignTest, VmFleetSizedForHourlyGranularity) {
  campaign_runner& c = short_campaign();
  const std::size_t expected_vms =
      (c.session_count() + c.config().tests_per_vm_hour - 1) /
      c.config().tests_per_vm_hour;
  EXPECT_EQ(c.vm_count(), expected_vms);
  EXPECT_GT(c.session_count(), 0u);
}

TEST(CampaignTest, EveryServerTestedEveryHour) {
  campaign_runner& c = short_campaign();
  const std::size_t hours =
      static_cast<std::size_t>(c.config().window.count());
  EXPECT_EQ(c.tests_run(), c.session_count() * hours);
}

TEST(CampaignTest, MetricsLandInStore) {
  auto& p = small_platform();
  campaign_runner& c = short_campaign();
  tag_filter filter;
  filter.required["campaign"] = "topology";
  filter.required["region"] = "us-east1";
  const auto series = p.store().query("download_mbps", filter);
  EXPECT_EQ(series.size(), c.session_count());
  const std::size_t hours =
      static_cast<std::size_t>(c.config().window.count());
  for (const ts_series* s : series) {
    EXPECT_EQ(s->size(), hours);
    EXPECT_EQ(s->tag("tier").value_or(""), "premium");
    EXPECT_TRUE(s->tag("server").has_value());
    EXPECT_TRUE(s->tag("network").has_value());
  }
  // Companion metrics exist with the same cardinality.
  for (const char* metric : {"upload_mbps", "latency_ms", "download_loss",
                             "upload_loss", "gt_episode"}) {
    EXPECT_EQ(p.store().query(metric, filter).size(), c.session_count())
        << metric;
  }
}

TEST(CampaignTest, BillingAdvanced) {
  auto& p = small_platform();
  campaign_runner& c = short_campaign();
  const cost_report& costs = p.cloud().costs();
  EXPECT_GT(costs.vm_usd, 0.0);
  EXPECT_GT(costs.egress_usd, 0.0);
  EXPECT_GT(costs.storage_usd, 0.0);
  // VM-hours: fleet * hours at the n1-standard-2 rate, plus any other VMs
  // charged in this shared fixture.
  const double campaign_vm_usd = c.vm_count() *
                                 static_cast<double>(c.config().window.count()) *
                                 0.095;
  EXPECT_GE(costs.vm_usd, campaign_vm_usd - 1e-6);
}

TEST(CampaignTest, BucketReceivedArtifacts) {
  auto& p = small_platform();
  campaign_runner& c = short_campaign();
  const storage_bucket& bucket = p.cloud().bucket("us-east1");
  EXPECT_GE(bucket.object_count(),
            c.vm_count() * static_cast<std::size_t>(c.config().window.count()));
  EXPECT_GT(bucket.total_megabytes(), 0.0);
}

TEST(CampaignTest, DeployValidation) {
  auto& p = small_platform();
  campaign_runner fresh(&p.cloud(), &p.view(), &p.registry(), &p.store());
  campaign_config cfg;
  cfg.region = "us-west4";
  EXPECT_THROW(fresh.deploy(cfg, {}), invalid_argument_error);
  cfg.tests_per_vm_hour = 0;
  EXPECT_THROW(fresh.deploy(cfg, {0}), invalid_argument_error);
  EXPECT_THROW(fresh.run(), state_error);  // not deployed
  EXPECT_THROW(fresh.run_hour(hour_stamp{0}), state_error);

  cfg.tests_per_vm_hour = 17;
  cfg.label = "validation";
  fresh.deploy(cfg, {0, 1, 2});
  EXPECT_THROW(fresh.deploy(cfg, {0}), state_error);  // double deploy
}

TEST(CampaignTest, NullDependenciesRejected) {
  auto& p = small_platform();
  EXPECT_THROW(
      campaign_runner(nullptr, &p.view(), &p.registry(), &p.store()),
      invalid_argument_error);
}

TEST(CampaignTest, StagingAnUnevaluatedHourThrows) {
  // Staging reads evaluate_hour's batched path metrics; asking for an
  // hour that was not the last one swept is a typed precondition error
  // naming the hour, never a silent second evaluation path.
  auto& p = small_platform();
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  campaign_config cfg;
  cfg.region = "us-west2";
  cfg.label = "unevaluated-hour";
  const auto us = p.registry().crawl("US");
  runner.deploy(cfg, {us[0], us[1]});
  const hour_stamp at = cfg.window.begin_at;
  campaign_runner::vm_hour_staging staged;
  try {
    runner.stage_vm_hour_into(0, at, staged);
    FAIL() << "expected state_error";
  } catch (const state_error& e) {
    EXPECT_NE(std::string(e.what()).find(at.to_string()), std::string::npos)
        << e.what();
  }
  runner.evaluate_hour(at);
  runner.stage_vm_hour_into(0, at, staged);
  EXPECT_EQ(staged.tests_run, 2u);
  // Only the last swept hour is valid.
  EXPECT_THROW(runner.stage_vm_hour_into(0, at + 1, staged), state_error);
}

TEST(CampaignTest, SerialRunRecordsStageAndCommitSpans) {
  // Serial replay stages the whole hour, then commits it, so both phases
  // show up in the trace: one stage and one commit span per hour.
  auto& p = small_platform();
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  campaign_config cfg;
  cfg.region = "us-west2";
  cfg.label = "serial-spans";
  const auto us = p.registry().crawl("US");
  runner.deploy(cfg, {us[0], us[1], us[2]});
  ASSERT_EQ(runner.workers(), 1u);

  const bool was_enabled = obs::enabled();
  obs::trace_ring::instance().reset();
  obs::set_enabled(true);
  constexpr std::uint64_t kHours = 5;
  for (std::uint64_t i = 0; i < kHours; ++i) {
    runner.run_hour(cfg.window.begin_at + static_cast<int>(i));
  }
  obs::set_enabled(was_enabled);
  const auto rollups = obs::trace_ring::instance().rollups();
  obs::trace_ring::instance().reset();
  EXPECT_EQ(rollups[static_cast<std::size_t>(obs::phase::stage)].count,
            kHours);
  EXPECT_EQ(rollups[static_cast<std::size_t>(obs::phase::commit)].count,
            kHours);
}

// A deployed three-hour campaign on the shared fixture, for the driver
// contract tests below (each passes its own label).
void deploy_short(campaign_runner& runner, const std::string& label) {
  auto& p = small_platform();
  campaign_config cfg;
  cfg.region = "us-west2";
  cfg.label = label;
  const hour_stamp begin = hour_stamp::from_civil({2020, 6, 1}, 0);
  cfg.window = {begin, begin + 3};
  const auto us = p.registry().crawl("US");
  runner.deploy(cfg, {us[0], us[1]});
}

TEST(CampaignTest, RunUntilPastTheWindowEndThrowsAndCommitsNothing) {
  // Hours past the window end are not part of the campaign: running them
  // would put their points in the store and bill their VM-hours.
  auto& p = small_platform();
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  deploy_short(runner, "past-window-end");
  const hour_range window = runner.config().window;
  const hour_stamp stop = window.end_at + 1;
  try {
    runner.run_until(stop);
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find(stop.to_string()), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(runner.cursor(), window.begin_at);
  EXPECT_EQ(runner.tests_run(), 0u);
  tag_filter filter;
  filter.required["campaign"] = "past-window-end";
  for (const ts_series* s : p.store().query("download_mbps", filter)) {
    EXPECT_EQ(s->size(), 0u);
  }
  // The window itself still runs to completion.
  EXPECT_TRUE(runner.run_until(window.end_at));
  EXPECT_EQ(runner.cursor(), window.end_at);
}

TEST(CampaignTest, HourStepThatDoesNotCommitThrowsInsteadOfLooping) {
  auto& p = small_platform();
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  deploy_short(runner, "stalled-step");
  const hour_range window = runner.config().window;
  int steps = 0;
  EXPECT_THROW(runner.run_until(window.end_at, [&](hour_stamp) { ++steps; }),
               state_error);
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(runner.cursor(), window.begin_at);
  // A step that commits its hour drives the campaign like run_hour.
  EXPECT_TRUE(runner.run_until(window.end_at, [&](hour_stamp at) {
    ++steps;
    runner.run_hour(at);
  }));
  EXPECT_EQ(steps, 1 + static_cast<int>(window.count()));
  EXPECT_EQ(runner.tests_run(), runner.session_count() *
                                    static_cast<std::size_t>(window.count()));
}

TEST(CampaignTest, RunUntilWindowEndThenRunBillsStorageOnce) {
  // Private platforms, so the bills and stores compare exactly.
  platform_config cfg;
  cfg.internet = ::clasp::testing::small_internet_config();
  cfg.servers = ::clasp::testing::small_server_config();
  cfg.topology_budgets = {{"us-west2", 8}};
  const hour_stamp begin = hour_stamp::from_civil({2020, 6, 1}, 0);
  const hour_range window{begin, begin + 4};
  struct outcome {
    std::string csv;
    cost_report costs;
  };
  const auto finish = [&](bool until_end_first) {
    clasp_platform p(cfg);
    campaign_runner& c = p.start_topology_campaign("us-west2", window);
    if (until_end_first) {
      const double before = p.cloud().costs().storage_usd;
      EXPECT_TRUE(c.run_until(window.end_at));
      const double billed = p.cloud().costs().storage_usd;
      EXPECT_GT(billed, before);  // the window end bills storage
      EXPECT_TRUE(c.run());
      EXPECT_EQ(p.cloud().costs().storage_usd, billed);  // not twice
    } else {
      EXPECT_TRUE(c.run());
    }
    std::ostringstream csv;
    p.store().export_csv(csv, "download_mbps");
    return outcome{csv.str(), p.cloud().costs()};
  };
  const outcome split = finish(true);
  const outcome whole = finish(false);
  ASSERT_FALSE(whole.csv.empty());
  EXPECT_EQ(split.csv, whole.csv);
  EXPECT_EQ(split.costs.vm_usd, whole.costs.vm_usd);
  EXPECT_EQ(split.costs.egress_usd, whole.costs.egress_usd);
  EXPECT_EQ(split.costs.storage_usd, whole.costs.storage_usd);
}

// A private platform for the shared-platform tests: two regions whose
// fleets, and so whose link sets, differ in size.
platform_config two_region_config() {
  platform_config cfg;
  cfg.internet = ::clasp::testing::small_internet_config();
  cfg.servers = ::clasp::testing::small_server_config();
  cfg.topology_budgets = {{"us-west2", 6}, {"us-east1", 24}};
  return cfg;
}

TEST(CampaignTest, SharedPlatformInterleavedHoursMatchSequential) {
  // Campaigns on one platform each prefill their own condition cache, so
  // the order their hours run in cannot change what either measures.
  const hour_stamp begin = hour_stamp::from_civil({2020, 6, 1}, 0);
  const hour_range window{begin, begin + 6};
  const auto replay = [&](bool interleave) {
    clasp_platform p(two_region_config());
    campaign_runner& west = p.start_topology_campaign("us-west2", window);
    campaign_runner& east = p.start_topology_campaign("us-east1", window);
    if (interleave) {
      for (hour_stamp at = window.begin_at; at < window.end_at; ++at) {
        west.run_hour(at);
        east.run_hour(at);
      }
    } else {
      for (hour_stamp at = window.begin_at; at < window.end_at; ++at) {
        west.run_hour(at);
      }
      for (hour_stamp at = window.begin_at; at < window.end_at; ++at) {
        east.run_hour(at);
      }
    }
    EXPECT_EQ(west.tests_run(), west.session_count() * 6);
    EXPECT_EQ(east.tests_run(), east.session_count() * 6);
    std::ostringstream csv;
    for (const char* metric :
         {"download_mbps", "upload_mbps", "latency_ms", "download_loss",
          "upload_loss", "gt_episode"}) {
      p.store().export_csv(csv, metric);
    }
    return csv.str();
  };
  const std::string interleaved = replay(true);
  ASSERT_NE(interleaved.find("us-west2"), std::string::npos);
  ASSERT_NE(interleaved.find("us-east1"), std::string::npos);
  EXPECT_EQ(interleaved, replay(false));
}

TEST(CampaignTest, HourPrefillsOnlyItsOwnCampaignsLinks) {
  // One hour of a campaign prefills that campaign's links and no other's:
  // the smaller region adds the same count to the prefill-links counter
  // on a platform shared with a larger region as on one of its own.
  const hour_stamp begin = hour_stamp::from_civil({2020, 6, 1}, 0);
  const hour_range window{begin, begin + 2};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::metrics_registry& reg = obs::metrics_registry::instance();
  const obs::counter& links = reg.get_counter(obs::family::kCachePrefillLinks);
  const obs::counter& prefills = reg.get_counter(obs::family::kCachePrefills);
  const auto west_hour_links = [&](bool shared) {
    clasp_platform p(two_region_config());
    campaign_runner& west = p.start_topology_campaign("us-west2", window);
    if (shared) {
      p.start_topology_campaign("us-east1", window).run_hour(begin);
    }
    const std::uint64_t links_before = links.value();
    const std::uint64_t prefills_before = prefills.value();
    west.run_hour(begin);
    EXPECT_EQ(prefills.value() - prefills_before, 1u);
    return links.value() - links_before;
  };
  const std::uint64_t alone = west_hour_links(false);
  const std::uint64_t shared = west_hour_links(true);
  obs::set_enabled(was_enabled);
  EXPECT_GT(alone, 0u);
  EXPECT_EQ(shared, alone);
}

TEST(CampaignTest, DownloadValuesArePlausible) {
  auto& p = small_platform();
  tag_filter filter;
  filter.required["campaign"] = "topology";
  filter.required["region"] = "us-east1";
  for (const ts_series* s : p.store().query("download_mbps", filter)) {
    for (const ts_point& pt : s->points()) {
      EXPECT_GT(pt.value, 0.0);
      EXPECT_LE(pt.value, 1100.0);
    }
  }
}

}  // namespace
}  // namespace clasp
// Appended: failure injection.
namespace clasp {
namespace {

TEST(CampaignOutageTest, VmOutageCreatesGapsWithoutCharges) {
  auto& p = small_platform();
  campaign_runner runner(&p.cloud(), &p.view(), &p.registry(), &p.store());
  campaign_config cfg;
  cfg.region = "us-west2";
  cfg.label = "outage-test";
  cfg.window = hour_range{hour_stamp::from_civil({2020, 6, 1}, 0),
                          hour_stamp::from_civil({2020, 6, 3}, 0)};
  // Two servers on one VM.
  const auto us = p.registry().crawl("US");
  runner.deploy(cfg, {us[0], us[1]});
  ASSERT_EQ(runner.vm_count(), 1u);

  // Bad injections rejected.
  EXPECT_THROW(runner.inject_vm_outage(5, cfg.window),
               invalid_argument_error);
  EXPECT_THROW(
      runner.inject_vm_outage(0, hour_range{cfg.window.begin_at,
                                            cfg.window.begin_at}),
      invalid_argument_error);

  // Take the VM down for the first 12 hours of day 2.
  const hour_range outage{cfg.window.begin_at + 24, cfg.window.begin_at + 36};
  runner.inject_vm_outage(0, outage);

  const double vm_usd_before = p.cloud().costs().vm_usd;
  runner.run();
  const double vm_hours_billed =
      (p.cloud().costs().vm_usd - vm_usd_before) / 0.095;

  // 48 window hours minus 12 outage hours.
  EXPECT_NEAR(vm_hours_billed, 36.0, 1e-6);
  EXPECT_EQ(runner.tests_run(), 2u * 36u);
  EXPECT_EQ(runner.tests_missed(), 2u * 12u);

  // The series really has a gap over the outage.
  tag_filter filter;
  filter.required["campaign"] = "outage-test";
  const auto series = p.store().query("download_mbps", filter);
  ASSERT_EQ(series.size(), 2u);
  for (const ts_series* s : series) {
    EXPECT_EQ(s->size(), 36u);
    EXPECT_TRUE(s->range(outage.begin_at, outage.end_at).empty());
  }
}

}  // namespace
}  // namespace clasp
