// Opt-in sim-time event tracing: the structured-event plane of the
// observability layer. Components holding a TraceRecorder pointer record
// typed instants and spans (slot TX, frame RX, head election, promotion,
// crash/restart, dissemination relays) with *virtual-time* timestamps and a
// per-node track id. Recording is pure appending — no RNG, no scheduling,
// no time reads — so enabling it cannot perturb a deterministic run (a test
// asserts metrics are byte-identical with tracing on and off).
//
// Two exports:
//  - to_chrome_json(): the Chrome trace-event format ("traceEvents" array
//    with ph/ts/pid/tid), loadable in Perfetto or chrome://tracing; sim
//    nanoseconds map to trace microseconds, nodes map to threads.
//  - to_jsonl(): one compact JSON object per line in recording order, the
//    diff-friendly form (two runs of the same seed produce identical bytes).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/time.hpp"

namespace evm::obs {

class TraceRecorder {
 public:
  /// Zero-duration happening on node `tid` at sim time `t`. `cat` groups
  /// related events ("net.rtlink", "core.service"); `args` is an optional
  /// JSON object of event details (pass util::Json() for none).
  void instant(std::int64_t tid, const std::string& cat, const std::string& name,
               util::TimePoint t, util::Json args = util::Json());

  /// Span on node `tid` covering [start, start + dur) in sim time.
  void complete(std::int64_t tid, const std::string& cat, const std::string& name,
                util::TimePoint start, util::Duration dur,
                util::Json args = util::Json());

  /// Human-readable track name for node `tid` (topology role names); emitted
  /// as Chrome "thread_name" metadata so Perfetto labels the tracks.
  void set_track(std::int64_t tid, const std::string& name);

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — track-name metadata
  /// first, then every recorded event in recording order.
  util::Json to_chrome_json() const;

  /// One compact JSON object per event per line, recording order. Keys:
  /// ph, tid, cat, name, ts_ns (+ dur_ns for spans, args when present).
  std::string to_jsonl() const;

 private:
  struct Event {
    char ph;  // 'i' instant, 'X' complete
    std::int64_t tid;
    std::string cat;
    std::string name;
    std::int64_t ts_ns;
    std::int64_t dur_ns;
    util::Json args;
  };

  std::vector<Event> events_;
  std::map<std::int64_t, std::string> tracks_;
};

}  // namespace evm::obs
