#include "sim/trace.hpp"

#include <iomanip>

#include "util/json.hpp"

namespace evm::sim {

void Trace::record(const std::string& series, util::TimePoint t, double value) {
  auto& s = series_[series];
  if (s.name.empty()) s.name = series;
  s.samples.emplace_back(t, value);
  if (observer_) observer_(series, t, value);
}

const Series* Trace::find(const std::string& series) const {
  auto it = series_.find(series);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> Trace::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, unused] : series_) names.push_back(name);
  return names;
}

std::size_t Trace::total_samples() const {
  std::size_t n = 0;
  for (const auto& [unused, s] : series_) n += s.samples.size();
  return n;
}

namespace {

/// CSV field for a series name. Names carrying CSV metacharacters (or JSON
/// string specials) are emitted as their JSON string literal through the one
/// shared escaping path — util::Json::escape, the exact writer the obs trace
/// exporters use — so a hostile name ("a,b" or one with quotes/newlines)
/// cannot add columns or rows to the artifact.
std::string csv_field(const std::string& name) {
  const bool hostile = name.find_first_of(",\"\n\r\\") != std::string::npos;
  return hostile ? util::Json::escape(name) : name;
}

}  // namespace

void Trace::to_csv(std::ostream& os) const {
  os << "series,time_s,value\n";
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::setprecision(9);
  os.unsetf(std::ios::floatfield);
  for (const auto& [name, s] : series_) {
    const std::string field = csv_field(name);
    for (const auto& [t, v] : s.samples) {
      os << field << ',' << t.to_seconds() << ',' << v << '\n';
    }
  }
  os.flags(flags);
  os.precision(precision);
}

void Trace::clear() { series_.clear(); }

}  // namespace evm::sim
