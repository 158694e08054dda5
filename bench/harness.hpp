// Shared benchmark harness: wall-clock timing, calibrated micro-benchmark
// sampling, and machine-readable JSON reports.
//
// Every bench builds a `Reporter`, fills one `Scenario` per measured
// configuration (params + metrics), and calls `write()` at exit, which
// emits `bench/out/<name>.json` (override the directory with the
// EVM_BENCH_OUT environment variable) next to the usual human-readable
// table on stdout.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace evm::bench {

/// The JSON value tree used by bench reports now lives in util (shared with
/// the scenario engine's spec parser and campaign reports).
using Json = util::Json;

// --- timing ------------------------------------------------------------------

/// Calibrated micro-benchmark: times `fn` in batches sized so each batch
/// runs for at least `min_batch_ms`, and returns `samples` per-call
/// durations in nanoseconds. Suitable for ops from ~ns to ~ms.
util::Samples measure_ns(const std::function<void()>& fn, int samples = 25,
                         double min_batch_ms = 2.0);

/// Keeps `value` observable so the optimizer cannot delete the computation.
template <typename T>
inline void do_not_optimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- reporting ---------------------------------------------------------------

class Scenario {
 public:
  explicit Scenario(std::string name) : name_(std::move(name)) {}

  Scenario& param(const std::string& key, Json value);
  Scenario& metric(const std::string& key, Json value);
  /// Expands to a percentile-summary object (see util::to_json).
  Scenario& metric(const std::string& key, const util::Samples& samples,
                   const std::string& unit);

  Json to_json() const;

 private:
  std::string name_;
  Json params_ = Json::object();
  Json metrics_ = Json::object();
};

class Reporter;

/// Result of `time_scenario`: the raw per-call samples plus the scenario
/// they were recorded on, so callers can attach params and derived metrics.
struct TimedScenario {
  util::Samples ns;
  Scenario& scenario;
};

/// Prints the header matching `time_scenario`'s table rows.
void print_time_header();

/// Times `op` (see `measure_ns`), prints a standard "label  p50  p99  max"
/// table row, and records a scenario named `label` with a `latency_ns`
/// percentile summary.
TimedScenario time_scenario(Reporter& report, const std::string& label,
                            const std::function<void()>& op, int samples = 25);

class Reporter {
 public:
  /// `name` is the bench identity: the report lands at `<out>/<name>.json`.
  explicit Reporter(std::string name) : name_(std::move(name)) {}

  /// Adds a scenario; the reference stays valid for the Reporter's lifetime.
  Scenario& scenario(const std::string& name);

  /// Writes `<scenario::report_dir()>/<name>.json` and prints the path;
  /// returns false (with a message on stderr) if the directory or file
  /// cannot be written.
  bool write() const;

 private:
  std::string name_;
  std::deque<Scenario> scenarios_;  // deque: stable references across growth
};

}  // namespace evm::bench
