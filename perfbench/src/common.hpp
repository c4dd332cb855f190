/// \file common.hpp
/// \brief Timing, percentile and report helpers shared by the benchmark's
///        workload runner (main.cpp), its traffic model (workloads.cpp) and
///        its traced layer replay (layers.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 100]) of \p v; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// The highest percentile that still has ten samples beyond it, capped at
/// p99 (a tail figure needs a tail sample).  Returns 50
/// when the sample is too small for anything above the median.
inline double supportedTailPercentile(std::size_t n) {
  if (n < 20) return 50.0;
  const double q = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
  return std::clamp(q, 50.0, 99.0);
}

/// One reported figure.  `samples` and `note` only reach the text report;
/// the JSON result line carries name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
  bool available = true;
};

/// FNV-1a 64, the digest primitive for output bytes and ledgers.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const std::uint8_t b = static_cast<std::uint8_t>(v >> (8 * i));
      add(&b, 1);
    }
  }
};

}  // namespace perfbench
