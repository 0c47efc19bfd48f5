#include "tsdb/tsdb.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace clasp {
namespace {

hour_stamp h(int n) { return hour_stamp{n}; }

TEST(TsdbTest, WriteCreatesSeriesOnFirstUse) {
  tsdb db;
  db.write("download_mbps", {{"server", "1"}}, h(0), 500.0);
  db.write("download_mbps", {{"server", "1"}}, h(1), 510.0);
  db.write("download_mbps", {{"server", "2"}}, h(0), 300.0);
  EXPECT_EQ(db.series_count(), 2u);
  EXPECT_EQ(db.point_count(), 3u);
}

TEST(TsdbTest, FindExactTags) {
  tsdb db;
  db.write("m", {{"a", "1"}, {"b", "2"}}, h(0), 1.0);
  EXPECT_NE(db.find("m", {{"a", "1"}, {"b", "2"}}), nullptr);
  EXPECT_NE(db.find("m", {{"b", "2"}, {"a", "1"}}), nullptr);  // order-free
  EXPECT_EQ(db.find("m", {{"a", "1"}}), nullptr);
  EXPECT_EQ(db.find("other", {{"a", "1"}, {"b", "2"}}), nullptr);
}

TEST(TsdbTest, QueryWithFilter) {
  tsdb db;
  db.write("m", {{"region", "us-west1"}, {"server", "1"}}, h(0), 1.0);
  db.write("m", {{"region", "us-west1"}, {"server", "2"}}, h(0), 2.0);
  db.write("m", {{"region", "us-east1"}, {"server", "3"}}, h(0), 3.0);

  tag_filter west;
  west.required["region"] = "us-west1";
  EXPECT_EQ(db.query("m", west).size(), 2u);
  EXPECT_EQ(db.query("m").size(), 3u);
  tag_filter none;
  none.required["region"] = "mars";
  EXPECT_TRUE(db.query("m", none).empty());
  EXPECT_TRUE(db.query("missing_metric").empty());
}

TEST(TsdbTest, OutOfOrderAppendRejected) {
  tsdb db;
  db.write("m", {}, h(5), 1.0);
  EXPECT_THROW(db.write("m", {}, h(4), 2.0), invalid_argument_error);
  EXPECT_NO_THROW(db.write("m", {}, h(5), 3.0));  // equal timestamps fine
}

TEST(TsdbTest, RangeQueriesAreHalfOpen) {
  tsdb db;
  for (int i = 0; i < 10; ++i) db.write("m", {}, h(i), i);
  const ts_series* s = db.find("m", {});
  ASSERT_NE(s, nullptr);
  const auto r = s->range(h(3), h(7));
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r.front().value, 3.0);
  EXPECT_DOUBLE_EQ(r.back().value, 6.0);
  EXPECT_TRUE(s->range(h(20), h(30)).empty());
  EXPECT_EQ(s->values_in(h(0), h(10)).size(), 10u);
}

TEST(TsdbTest, TagAccessors) {
  tsdb db;
  db.write("m", {{"tier", "premium"}}, h(0), 1.0);
  const ts_series* s = db.find("m", {{"tier", "premium"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->tag("tier").value_or(""), "premium");
  EXPECT_FALSE(s->tag("region").has_value());
  EXPECT_EQ(s->metric(), "m");
}

TEST(TsdbTest, TagValuesEnumeratesDistinct) {
  tsdb db;
  db.write("m", {{"server", "1"}}, h(0), 1.0);
  db.write("m", {{"server", "2"}}, h(0), 1.0);
  db.write("m", {{"server", "1"}}, h(1), 1.0);
  const auto values = db.tag_values("m", "server");
  EXPECT_EQ(values.size(), 2u);
}

TEST(TsdbTest, SeriesKeyCollisionResistance) {
  // Tags that would concatenate identically must stay distinct.
  tsdb db;
  db.write("m", {{"ab", "c"}}, h(0), 1.0);
  db.write("m", {{"a", "bc"}}, h(0), 2.0);
  EXPECT_EQ(db.series_count(), 2u);
}

TEST(TsdbTest, LargeAppendAndScan) {
  tsdb db;
  for (int i = 0; i < 5000; ++i) {
    db.write("m", {{"s", "x"}}, h(i), static_cast<double>(i % 100));
  }
  const ts_series* s = db.find("m", {{"s", "x"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->size(), 5000u);
  EXPECT_EQ(s->range(h(1000), h(2000)).size(), 1000u);
}

}  // namespace
}  // namespace clasp
// Appended: CSV export tests (kept in this file to share the fixtures).
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

namespace clasp {
namespace {

TEST(TsdbTest, OpenSeriesInternsTagSets) {
  tsdb db;
  const tag_set tags = {{"region", "us-west1"}, {"server", "3"}};
  const series_ref ref = db.open_series("download_mbps", tags);
  // Re-opening resolves to the same ref; the string-keyed path lands in
  // the same series.
  EXPECT_EQ(db.open_series("download_mbps", tags), ref);
  EXPECT_EQ(db.series_count(), 1u);

  db.write(ref, h(0), 1.5);
  db.write("download_mbps", tags, h(1), 2.5);
  db.write(ref, h(2), 3.5);
  const ts_series* s = db.find("download_mbps", tags);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s, &db.series_at(ref));
  ASSERT_EQ(s->size(), 3u);
  EXPECT_EQ(s->points()[1].value, 2.5);
}

TEST(TsdbTest, InternedWriteKeepsTimeOrderContract) {
  tsdb db;
  const series_ref ref = db.open_series("m", {{"a", "b"}});
  db.write(ref, h(5), 1.0);
  EXPECT_THROW(db.write(ref, h(4), 2.0), invalid_argument_error);
  EXPECT_THROW(db.write(series_ref{99}, h(6), 1.0), not_found_error);
  EXPECT_THROW(db.series_at(series_ref{99}), not_found_error);
}

TEST(TsdbTest, EmptySeriesRangeIsEmpty) {
  // open_series creates a point-less series; range() must return an
  // empty span instead of dereferencing the end iterator.
  tsdb db;
  const series_ref ref = db.open_series("m", {{"a", "b"}});
  const ts_series& s = db.series_at(ref);
  EXPECT_TRUE(s.range(h(0), h(100)).empty());
  EXPECT_TRUE(s.values_in(h(0), h(100)).empty());
  // A metric opened but never written still shows up in queries.
  EXPECT_EQ(db.query("m").size(), 1u);
  EXPECT_EQ(db.point_count(), 0u);
}

TEST(TsdbCsvTest, HeaderAndRows) {
  tsdb db;
  db.write("m", {{"region", "us-west1"}, {"server", "3"}}, h(0), 1.5);
  db.write("m", {{"region", "us-west1"}, {"server", "3"}}, h(1), 2.5);
  std::ostringstream os;
  db.export_csv(os, "m");
  const std::string csv = os.str();
  EXPECT_NE(csv.find("hour,value,region,server"), std::string::npos);
  EXPECT_NE(csv.find("0,1.5,us-west1,3"), std::string::npos);
  EXPECT_NE(csv.find("1,2.5,us-west1,3"), std::string::npos);
}

TEST(TsdbCsvTest, QuotesCommasInFields) {
  tsdb db;
  db.write("m", {{"city", "Las Vegas, NV"}}, h(0), 7.0);
  std::ostringstream os;
  db.export_csv(os, "m");
  EXPECT_NE(os.str().find("\"Las Vegas, NV\""), std::string::npos);
}

TEST(TsdbCsvTest, QuotesQuotes) {
  tsdb db;
  db.write("m", {{"name", "the \"best\" server"}}, h(0), 1.0);
  std::ostringstream os;
  db.export_csv(os, "m");
  EXPECT_NE(os.str().find("\"the \"\"best\"\" server\""), std::string::npos);
}

TEST(TsdbCsvTest, FilterRestrictsRows) {
  tsdb db;
  db.write("m", {{"region", "a"}}, h(0), 1.0);
  db.write("m", {{"region", "b"}}, h(0), 2.0);
  tag_filter f;
  f.required["region"] = "a";
  std::ostringstream os;
  db.export_csv(os, "m", f);
  EXPECT_NE(os.str().find(",a"), std::string::npos);
  EXPECT_EQ(os.str().find(",b"), std::string::npos);
}

TEST(TsdbCsvTest, EmptyMetricJustHeader) {
  tsdb db;
  std::ostringstream os;
  db.export_csv(os, "missing");
  EXPECT_EQ(os.str(), "hour,value\n");
}

TEST(TsdbTest, CsvExportMatchesOstreamFormatting) {
  // export_csv formats through to_chars and writes one buffer per
  // series; its bytes must equal the ostream field-by-field writer it
  // replaced, which the CSV identity tests across the suite were
  // recorded with. The reference below is that writer.
  const std::vector<double> values = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      -0.0, 0.0, 1e-7, 123456789.0, 1234567.0, 0.1 + 0.2, -42.125,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), 1e300, 999999.5, 3.0};
  tsdb db;
  const std::vector<tag_set> tag_sets = {
      {{"city", "Las Vegas, NV"}, {"server", "1"}},
      {{"city", "the \"best\" server"}, {"server", "2"}},
      {{"city", "two\nlines"}, {"network", "7"}},
      {{"region", "us-west1"}},
  };
  for (const tag_set& tags : tag_sets) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      db.write("m", tags, h(static_cast<int>(i) - 3), values[i]);
    }
  }

  const auto quote = [](std::ostream& os, const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) {
      os << field;
      return;
    }
    os << '"';
    for (const char c : field) {
      if (c == '"') os << '"';
      os << c;
    }
    os << '"';
  };
  std::ostringstream want;
  const auto matched = db.query("m", {});
  std::set<std::string> keys;
  for (const ts_series* s : matched) {
    for (const auto& [k, v] : s->tags()) keys.insert(k);
  }
  want << "hour,value";
  for (const std::string& k : keys) {
    want << ',';
    quote(want, k);
  }
  want << '\n';
  for (const ts_series* s : matched) {
    for (const ts_point& p : s->points()) {
      want << p.at.hours_since_epoch() << ',' << p.value;
      for (const std::string& k : keys) {
        want << ',';
        quote(want, s->tag(k).value_or(""));
      }
      want << '\n';
    }
  }

  std::ostringstream got;
  db.export_csv(got, "m");
  EXPECT_EQ(got.str(), want.str());
  // Spot-check the special values' spelling, so a change to both writers
  // cannot pass unnoticed.
  for (const char* field : {",inf,", ",-inf,", ",nan,", ",-nan,", ",-0,",
                            ",1e-07,", ",1.23457e+08,", ",\"Las Vegas, NV\"",
                            ",\"the \"\"best\"\" server\""}) {
    EXPECT_NE(got.str().find(field), std::string::npos) << field;
  }
  // The stream's own flags do not leak into the values.
  std::ostringstream fixed;
  fixed << std::fixed << std::setprecision(2);
  db.export_csv(fixed, "m");
  EXPECT_EQ(fixed.str(), want.str());
}

}  // namespace
}  // namespace clasp
