// Embedded tag-indexed time-series store (InfluxDB analogue).
//
// The campaign indexes every measurement as (metric, tags, hour, value).
// Series are identified by metric name plus a sorted tag set; queries
// filter by metric and tag equality and can group results by tag or
// aggregate over time ranges. The store is append-mostly and keeps each
// series as a flat (hour, value) vector sorted by insertion time —
// campaigns append in time order, so range scans are binary searches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/sim_time.hpp"

namespace clasp {

// Sorted tag set ("region" -> "us-west1", "server" -> "123", ...).
using tag_set = std::map<std::string, std::string>;

struct ts_point {
  hour_stamp at;
  double value{0.0};
};

// A single series: metric + tags + points.
class ts_series {
 public:
  ts_series(std::string metric, tag_set tags)
      : metric_(std::move(metric)), tags_(std::move(tags)) {}

  const std::string& metric() const { return metric_; }
  const tag_set& tags() const { return tags_; }
  const std::vector<ts_point>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }

  // Tag value or nullopt.
  std::optional<std::string> tag(const std::string& key) const;

  // Inline: a campaign hour appends hundreds of points through this.
  void append(hour_stamp at, double value) {
    if (!points_.empty() && at < points_.back().at) throw_out_of_order();
    points_.push_back({at, value});
  }

  // Hint that append() is about to run: pulls the vector tail into cache.
  // Purely advisory — correct (and cheap) on an empty series too.
  void prefetch_tail() const {
    __builtin_prefetch(points_.data() + points_.size(), 1);
  }

  // Points with begin <= at < end. Requires time-ordered appends (the
  // store enforces this).
  std::span<const ts_point> range(hour_stamp begin, hour_stamp end) const;

  // All raw values in a range.
  std::vector<double> values_in(hour_stamp begin, hour_stamp end) const;

 private:
  [[noreturn]] static void throw_out_of_order();

  std::string metric_;
  tag_set tags_;
  std::vector<ts_point> points_;
};

// Equality filter used by queries; empty matches everything.
struct tag_filter {
  tag_set required;
  bool matches(const tag_set& tags) const;
};

// Stable handle to a series, resolved once via tsdb::open_series. The
// campaign hot loop writes through refs so appends cost no string
// formatting and no hash-map lookup.
using series_ref = std::uint32_t;

class tsdb {
 public:
  // Append a point; creates the series on first use. Throws
  // invalid_argument_error when `at` precedes the series' last point
  // (campaigns write in time order).
  void write(const std::string& metric, const tag_set& tags, hour_stamp at,
             double value);

  // Intern a tag set: resolve (metric, tags) to a stable ref, creating
  // an empty series on first use. Refs stay valid for the store's
  // lifetime.
  series_ref open_series(const std::string& metric, const tag_set& tags);

  // Append through an interned ref (the campaign fast path). Same
  // time-order contract as the string-keyed overload. Inline: commit
  // merges every staged point of an hour through here.
  void write(series_ref ref, hour_stamp at, double value) {
    if (ref >= series_.size()) throw_bad_ref();
    series_[ref].append(at, value);
  }

  // Advisory cache warm-up for a ref an imminent write() will hit. The
  // commit loop appends to thousands of distinct series per hour, each
  // tail a cold line; prefetching a few refs ahead hides the miss
  // latency. A bad ref is silently ignored (no side effects).
  void prefetch(series_ref ref) const {
    if (ref < series_.size()) series_[ref].prefetch_tail();
  }

  // The series behind a ref (throws not_found_error on a bad ref).
  const ts_series& series_at(series_ref ref) const;

  // All series for a metric matching the filter.
  std::vector<const ts_series*> query(const std::string& metric,
                                      const tag_filter& filter = {}) const;

  // The single series with exactly these tags, or nullptr.
  const ts_series* find(const std::string& metric, const tag_set& tags) const;

  // Distinct values of `key` across a metric's series.
  std::vector<std::string> tag_values(const std::string& metric,
                                      const std::string& key) const;

  std::size_t series_count() const { return series_.size(); }
  std::size_t point_count() const;

  // Grafana-style CSV export: one row per point, tag columns in sorted
  // key order ("hour,value,<tag keys...>"). Rows come from every series
  // of the metric matching the filter. Values are written as a
  // default-formatted ostream writes them (%g, 6 significant digits),
  // whatever the flags of `os`.
  void export_csv(std::ostream& os, const std::string& metric,
                  const tag_filter& filter = {}) const;

  // --- durability (see DESIGN.md, "Durability & crash recovery") ---
  // Binary full snapshot: magic + version, every series in insertion
  // order (so restored series_refs equal the originals), strings carried
  // length-prefixed (non-ASCII tag values round-trip exactly), values as
  // IEEE-754 bit patterns, the whole payload CRC32-framed. restore_from
  // replaces the store's contents and throws invalid_argument_error on a
  // corrupt, truncated or version-mismatched snapshot. The path overloads
  // throw not_found_error when the file cannot be opened.
  void snapshot_to(std::ostream& os) const;
  void snapshot_to(const std::string& path) const;
  void restore_from(std::istream& is);
  void restore_from(const std::string& path);

 private:
  static std::string series_key(const std::string& metric,
                                const tag_set& tags);
  [[noreturn]] static void throw_bad_ref();

  std::vector<ts_series> series_;
  std::unordered_map<std::string, std::size_t> index_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_metric_;
};

}  // namespace clasp
