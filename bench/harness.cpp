#include "harness.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/phase_timer.hpp"
#include "scenario/campaign.hpp"

namespace evm::bench {

// --- timing ------------------------------------------------------------------

util::Samples measure_ns(const std::function<void()>& fn, int samples,
                         double min_batch_ms) {
  // Calibrate the batch size: grow until one batch meets the time floor, so
  // per-call cost is measured well above clock granularity.
  std::size_t batch = 1;
  for (;;) {
    const obs::Stopwatch sw;
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double ms = sw.elapsed_ms();
    if (ms >= min_batch_ms || batch >= (1u << 24)) break;
    if (ms <= 0.01) {
      batch *= 32;
    } else {
      batch = static_cast<std::size_t>(
          static_cast<double>(batch) * (min_batch_ms / ms) * 1.3 + 1.0);
    }
  }

  util::Samples per_call_ns;
  for (int s = 0; s < samples; ++s) {
    const obs::Stopwatch sw;
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call_ns.add(static_cast<double>(sw.elapsed_ns()) / static_cast<double>(batch));
  }
  return per_call_ns;
}

// --- reporting ---------------------------------------------------------------

void print_time_header() {
  char row[160];
  std::snprintf(row, sizeof(row), "  %-34s%14s%14s%14s\n", "scenario", "p50",
                "p99", "max");
  std::cout << row;
}

TimedScenario time_scenario(Reporter& report, const std::string& label,
                            const std::function<void()>& op, int samples) {
  util::Samples ns = measure_ns(op, samples);
  const util::SummaryStats s = ns.summarize();
  char row[160];
  std::snprintf(row, sizeof(row), "  %-34s%11.0f ns%11.0f ns%11.0f ns\n",
                label.c_str(), s.p50, s.p99, s.max);
  std::cout << row;
  Scenario& scenario = report.scenario(label).metric("latency_ns", ns, "ns");
  return {std::move(ns), scenario};
}

Scenario& Scenario::param(const std::string& key, Json value) {
  params_.set(key, std::move(value));
  return *this;
}

Scenario& Scenario::metric(const std::string& key, Json value) {
  metrics_.set(key, std::move(value));
  return *this;
}

Scenario& Scenario::metric(const std::string& key, const util::Samples& samples,
                           const std::string& unit) {
  metrics_.set(key, util::to_json(samples.summarize(), unit));
  return *this;
}

Json Scenario::to_json() const {
  Json j = Json::object();
  j.set("name", name_);
  j.set("params", params_);
  j.set("metrics", metrics_);
  return j;
}

Scenario& Reporter::scenario(const std::string& name) {
  scenarios_.emplace_back(name);
  return scenarios_.back();
}

bool Reporter::write() const {
  Json root = Json::object();
  root.set("bench", name_);
  root.set("schema", 1);
  Json list = Json::array();
  for (const auto& s : scenarios_) list.push(s.to_json());
  root.set("scenarios", list);

  const std::filesystem::path dir(scenario::report_dir());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "bench harness: cannot create " << dir << ": " << ec.message()
              << "\n";
    return false;
  }
  const std::filesystem::path path = dir / (name_ + ".json");
  std::ofstream out(path);
  out << root.dump() << "\n";
  out.close();
  if (!out) {
    std::cerr << "bench harness: cannot write " << path << "\n";
    return false;
  }
  std::cout << "\n[bench json] " << path.string() << "\n";
  return true;
}

}  // namespace evm::bench
