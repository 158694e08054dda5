// Time-series trace recorder. The HIL harness samples plant variables into
// named series; the scenario runner reads them for its plant-error metrics
// and exports them as CSV (`run_scenario --trace FILE.csv`).
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace evm::sim {

/// One named series of (time, value) samples.
struct Series {
  std::string name;
  std::vector<std::pair<util::TimePoint, double>> samples;
};

class Trace {
 public:
  /// Called on every record() with (series, time, value). Lets a monitor
  /// watch samples as they land (runtime invariant checking) without
  /// re-scanning the trace after the run.
  using SampleObserver =
      std::function<void(const std::string&, util::TimePoint, double)>;

  void record(const std::string& series, util::TimePoint t, double value);

  /// Install (or clear, with nullptr) the sample observer.
  void set_observer(SampleObserver observer) { observer_ = std::move(observer); }

  const Series* find(const std::string& series) const;
  std::vector<std::string> series_names() const;
  std::size_t total_samples() const;

  /// Long-format CSV of the raw samples: `series,time_s,value`, one row per
  /// sample, series in name order. No resampling, so offline plotting sees
  /// exactly what was recorded. Series names containing CSV metacharacters
  /// are emitted as JSON string literals (util::Json::escape — the shared
  /// escaping path) so they cannot corrupt the column structure.
  void to_csv(std::ostream& os) const;

  void clear();

 private:
  std::map<std::string, Series> series_;
  SampleObserver observer_;
};

}  // namespace evm::sim
