#include "obs/metrics.hpp"

namespace evm::obs {

using util::Json;

const Counter* Metrics::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Metrics::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Metrics::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

Json Metrics::to_json() const {
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) {
    counters.set(name, static_cast<std::int64_t>(c.value));
  }
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g.value);
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json entry = Json::object();
    entry.set("count", static_cast<std::int64_t>(h.count));
    entry.set("sum", h.sum);
    entry.set("min", h.min);
    entry.set("max", h.max);
    entry.set("mean", h.mean());
    histograms.set(name, std::move(entry));
  }
  Json root = Json::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root;
}

}  // namespace evm::obs
