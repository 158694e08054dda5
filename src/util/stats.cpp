#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace evm::util {
namespace {

/// Percentile rule shared by percentile() and summarize(): the element at
/// index floor(p·(n−1)) of a sorted, non-empty sample, p clamped to [0, 1].
double floor_rank(const std::vector<double>& sorted, double p) {
  p = std::clamp(p, 0.0, 1.0);
  return sorted[static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1))];
}

}  // namespace

Json to_json(const SummaryStats& stats, const std::string& unit) {
  Json j = Json::object();
  j.set("unit", unit);
  j.set("count", stats.count);
  j.set("min", stats.min);
  j.set("mean", stats.mean);
  j.set("p50", stats.p50);
  j.set("p90", stats.p90);
  j.set("p99", stats.p99);
  j.set("max", stats.max);
  return j;
}

std::vector<double> Samples::sorted() const {
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  return v;
}

double Samples::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double sum_sq = 0.0;
  for (double v : values_) sum_sq += (v - m) * (v - m);
  return std::sqrt(sum_sq / static_cast<double>(values_.size() - 1));
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  return floor_rank(sorted(), p);
}

SummaryStats Samples::summarize() const {
  SummaryStats s;
  s.count = values_.size();
  if (values_.empty()) return s;
  const auto v = sorted();
  s.min = v.front();
  s.max = v.back();
  s.mean = mean();
  s.stddev = stddev();
  s.p50 = floor_rank(v, 0.5);
  s.p90 = floor_rank(v, 0.9);
  s.p99 = floor_rank(v, 0.99);
  return s;
}

std::string Samples::summary(const std::string& unit) const {
  const SummaryStats s = summarize();
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50 %.3g%s  p90 %.3g%s  p99 %.3g%s  max %.3g%s",
                s.p50, unit.c_str(), s.p90, unit.c_str(), s.p99, unit.c_str(),
                s.max, unit.c_str());
  return buf;
}

}  // namespace evm::util
