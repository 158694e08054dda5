#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "percentile.hpp"
#include "util/time.hpp"

namespace perfbench {

using evm::util::Json;

std::size_t SpanRecorder::begin(std::string name) {
  const std::int64_t now = evm::util::TimeSource::wall_ns();
  const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  const std::size_t id = add(std::move(name), now, now, parent);
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::size_t id) {
  spans_.at(id).end_ns = evm::util::TimeSource::wall_ns();
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything opened after it.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::size_t SpanRecorder::add(std::string name, std::int64_t start_ns,
                              std::int64_t end_ns, long parent) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

double SpanRecorder::self_ms(std::size_t id) const {
  const Span& parent = spans_.at(id);
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& s : spans_) {
    if (s.parent != static_cast<long>(id)) continue;
    children.emplace_back(std::max(s.start_ns, parent.start_ns),
                          std::min(s.end_ns, parent.end_ns));
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : children) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - covered) / 1e6;
}

std::string SpanRecorder::table() const {
  std::vector<std::string> names;
  for (const Span& s : spans_) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "  %-24s %6s %12s %12s %12s\n", "span",
                "count", "total_ms", "self_ms", "p50_ms");
  out += line;
  for (const std::string& name : names) {
    double total = 0.0;
    double self = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      total += spans_[i].ms();
      self += self_ms(i);
    }
    const Percentile mid = p50(durations_ms(name));
    std::snprintf(line, sizeof line, "  %-24s %6zu %12.3f %12.3f %12.3f\n",
                  name.c_str(), mid.count, total, self, mid.value);
    out += line;
  }
  return out;
}

Json SpanRecorder::to_chrome_json() const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns - origin) / 1e3);
    e.set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e.set("pid", 1);
    e.set("tid", 1);
    Json args = Json::object();
    args.set("id", i);
    args.set("parent", static_cast<std::int64_t>(s.parent));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

}  // namespace perfbench
