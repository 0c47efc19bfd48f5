// Span recorder and small measurement helpers for the replay benchmark.
//
// Spans are recorded by the benchmark around its own calls into CLASP's
// public API (the program itself is not instrumented). They stay in memory
// during the run and are written out once at the end. A span's self time
// is its duration minus the time its direct children cover; the children
// of one span never overlap because the recorder runs on the driving
// thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace replaybench {

using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a,
                              clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct span_record {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};   // index of the enclosing span, -1 = root
  std::uint32_t campaign{0};  // campaign id (region index or svc id)
};

class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  // Open a span; returns its index (or -1 when disabled).
  std::int32_t open(const char* name, std::uint32_t campaign = 0) {
    if (!enabled_) return -1;
    span_record s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.campaign = campaign;
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }
  // Rename an open or closed span (the service trace classifies a tick
  // only after it returns).
  void rename(std::int32_t idx, const char* name) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].name = name;
  }

  const std::vector<span_record>& spans() const { return spans_; }

  // Self time in seconds, summed per span name.
  std::map<std::string, double> self_seconds() const;

  // One CSV row per span: name,start_ns,end_ns,parent,workload,campaign.
  void write_csv(const std::string& path, const std::string& workload) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<span_record> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span; a no-op when the tracer is disabled.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, std::uint32_t campaign = 0)
      : t_(t), idx_(t.open(name, campaign)) {}
  ~scoped_span() { t_.close(idx_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::int32_t index() const { return idx_; }

 private:
  tracer& t_;
  std::int32_t idx_;
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

// Word-wise 64-bit digest used for every output check.
class digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { mix(v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdULL;
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

struct file_digest {
  std::uint64_t value{0};
  std::uint64_t bytes{0};
  std::uint64_t rows{0};  // newline count
};
// Digest of a file's bytes; throws std::runtime_error when unreadable.
file_digest digest_file(const std::string& path);

// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace replaybench
