// Wall-clock profiling hooks: the third observability plane. A Stopwatch
// reads the wall clock through util::TimeSource — the one sanctioned D2
// funnel — and a PhaseProfile collects named phase durations (setup / run /
// teardown) for campaign timing reports and the bench harness.
//
// Wall-clock readings are reporting-only by construction: nothing here can
// feed back into simulation behaviour (no scheduling, no virtual time), so
// the deterministic plane (obs::Metrics, per-run RunMetrics JSON) and this
// non-deterministic one stay physically separate types.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace evm::obs {

/// Monotonic wall-clock stopwatch over util::TimeSource.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(util::TimeSource::wall_ns()) {}

  void reset() { start_ns_ = util::TimeSource::wall_ns(); }
  std::int64_t elapsed_ns() const { return util::TimeSource::wall_ns() - start_ns_; }
  double elapsed_ms() const { return static_cast<double>(elapsed_ns()) / 1e6; }
  double elapsed_s() const { return static_cast<double>(elapsed_ns()) / 1e9; }

 private:
  std::int64_t start_ns_;
};

/// Named wall-clock phases in insertion order. Repeated adds to the same
/// phase accumulate, so a loop can charge many slices to one phase.
class PhaseProfile {
 public:
  void add(const std::string& phase, double ms);
  /// Accumulated time of one phase; 0 when never recorded.
  double ms(const std::string& phase) const;
  bool empty() const { return phases_.empty(); }

  const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

 private:
  std::vector<std::pair<std::string, double>> phases_;
};

}  // namespace evm::obs
