// Small descriptive-statistics helpers shared by benches and tests:
// percentile summaries over double samples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace evm::util {

/// One-pass percentile summary of a sample set (see Samples::summarize).
struct SummaryStats {
  std::size_t count = 0;
  double min = 0, mean = 0, stddev = 0;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

/// Percentile summary as a JSON object — the shared shape for bench and
/// campaign reports: {"unit", "count", "min", "mean", "p50", "p90", "p99",
/// "max"}.
Json to_json(const SummaryStats& stats, const std::string& unit);

/// Accumulates samples; summary statistics computed on demand.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  /// p in [0, 1]; the sorted sample's element at index floor(p·(n−1)) —
  /// not nearest-rank, so with fewer than 101 samples p99 never reads the
  /// largest element.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }

  /// All summary statistics with a single sort of the sample set.
  SummaryStats summarize() const;

  /// "p50 1.2  p90 3.4  p99 5.6  max 7.8" with the given unit suffix.
  std::string summary(const std::string& unit = "") const;

  const std::vector<double>& values() const { return values_; }
  void clear() { values_.clear(); }

 private:
  std::vector<double> sorted() const;
  std::vector<double> values_;
};

}  // namespace evm::util
