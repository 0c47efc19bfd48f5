#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace replaybench {

std::map<std::string, double> tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const span_record& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span_record& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                   1e-9;
  }
  return out;
}

void tracer::write_csv(const std::string& path,
                       const std::string& workload) const {
  std::ofstream out(path, std::ios::trunc);
  out << "name,start_ns,end_ns,parent,workload,campaign\n";
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const span_record& s : spans_) {
    out << s.name << ',' << (s.start_ns - base) << ',' << (s.end_ns - base)
        << ',' << s.parent << ',' << workload << ',' << s.campaign << '\n';
  }
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

void digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    mix(w);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  mix(tail ^ (static_cast<std::uint64_t>(n - i) << 56));
}

file_digest digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  file_digest out;
  digest d;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    if (n == 0) break;
    d.bytes(buf.data(), n);
    out.bytes += n;
    out.rows += static_cast<std::uint64_t>(
        std::count(buf.data(), buf.data() + n, '\n'));
  }
  out.value = d.value();
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace replaybench
