// Nearest-rank percentiles with their sample count. Deliberately separate
// from util::Samples: the benchmark's figures must not move when the
// program's own statistics helpers change.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0.0;
  std::size_t count = 0;  // samples the value was taken from; 0 = none
};

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. p = 100 is the maximum, so the tail can always
/// reach the worst sample.
inline Percentile nearest_rank(std::vector<double> samples, double p) {
  Percentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  out.value = samples[index];
  return out;
}

inline Percentile p50(const std::vector<double>& samples) {
  return nearest_rank(samples, 50.0);
}

inline Percentile max_of(const std::vector<double>& samples) {
  return nearest_rank(samples, 100.0);
}

}  // namespace perfbench
