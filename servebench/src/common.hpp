// Shared helpers of the serving benchmark: one clock, percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace sb {

using Clock = std::chrono::steady_clock;

/// Microseconds on the steady clock — the clock InferenceServer stamps
/// its Response timings with, so client and server times share one axis.
inline double to_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}
inline double now_us() { return to_us(Clock::now()); }

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  idx = std::clamp<std::size_t>(idx, 1, v.size()) - 1;
  return v[idx];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace sb
