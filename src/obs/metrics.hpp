// Deterministic metrics registry: the always-cheap counter plane of the
// observability layer. Components accumulate into named counters, gauges and
// histograms ("subsystem.metric" names, e.g. "net.rtlink.slots_used"); the
// registry snapshots to an ordered, byte-stable util::Json document — the
// same run always dumps the same bytes, so metric snapshots diff cleanly and
// can sit in determinism tests (tracing on/off must not move a single one).
//
// Everything here is sim-domain data: counts of simulated happenings, never
// wall-clock readings (those live in PhaseProfile, which is deliberately a
// separate type so the deterministic and non-deterministic planes cannot be
// mixed up in one snapshot).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/json.hpp"

namespace evm::obs {

/// Monotonic event count.
struct Counter {
  std::uint64_t value = 0;

  void add(std::uint64_t n = 1) { value += n; }
};

/// Last-write-wins level (queue depth, tree size, ...).
struct Gauge {
  double value = 0.0;

  void set(double v) { value = v; }
};

/// Running summary of a sample stream: count/sum/min/max/mean, deliberately
/// not the raw samples (bounded memory at any event rate).
struct Histogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void record(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
  }
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

class Metrics {
 public:
  /// Look up (creating on first use) the named instrument. References stay
  /// valid for the registry's lifetime; names are conventionally "subsystem.metric".
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Read-only lookups; nullptr when the instrument was never touched.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Byte-stable snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean}}}, every section in
  /// name order (std::map iteration — evm_lint D1-clean by construction).
  /// Untouched sections are emitted as empty objects so the document shape
  /// never depends on which instruments fired.
  util::Json to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace evm::obs
