#include <sys/resource.h>

#include <algorithm>
#include <bit>

#include "bench.hpp"

namespace nnbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void LogHistogram::add(std::uint64_t v) noexcept {
  std::size_t idx;
  if (v < (1u << kSubBits)) {
    idx = static_cast<std::size_t>(v);
  } else {
    const int shift = std::bit_width(v) - 1 - kSubBits;
    const std::uint64_t sub = (v >> shift) - (1u << kSubBits);
    idx = (static_cast<std::size_t>(shift + 1) << kSubBits) +
          static_cast<std::size_t>(sub);
  }
  ++counts_[idx];
  ++n_;
}

double LogHistogram::percentile(double p) const noexcept {
  if (n_ == 0) return 0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(n_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= rank) {
      double lower = static_cast<double>(i);
      double width = 1;
      if (i >= (1u << kSubBits)) {
        const int shift = static_cast<int>(i >> kSubBits) - 1;
        const std::uint64_t sub = i & ((1u << kSubBits) - 1);
        lower = static_cast<double>(((1u << kSubBits) + sub) << shift);
        width = static_cast<double>(std::uint64_t{1} << shift);
      }
      const double within = (rank - static_cast<double>(cum)) /
                            static_cast<double>(c);
      return lower + width * std::clamp(within, 0.0, 1.0);
    }
    cum += c;
  }
  return 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Result::metric(std::string name, double value, std::string unit,
                    double q1, double q3, std::uint64_t n) {
  metrics.push_back({std::move(name), value, std::move(unit), q1, q3, n});
}

void Result::metric(std::string name, const std::vector<double>& samples,
                    double p, std::string unit) {
  metric(std::move(name), percentile(samples, p), std::move(unit),
         percentile(samples, 25), percentile(samples, 75), samples.size());
}

void Result::metric(std::string name, const LogHistogram& h, double p,
                    double scale, std::string unit) {
  metric(std::move(name), h.percentile(p) * scale, std::move(unit),
         h.percentile(25) * scale, h.percentile(75) * scale, h.count());
}

void Result::diagnostic(std::string name, double value, std::string unit,
                        std::uint64_t n) {
  diagnostics.push_back(
      {std::move(name), value, std::move(unit), value, value, n});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

}  // namespace nnbench
