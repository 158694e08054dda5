#include "obs/trace_recorder.hpp"

namespace evm::obs {

using util::Json;

void TraceRecorder::instant(std::int64_t tid, const std::string& cat,
                            const std::string& name, util::TimePoint t,
                            Json args) {
  events_.push_back(Event{'i', tid, cat, name, t.ns(), 0, std::move(args)});
}

void TraceRecorder::complete(std::int64_t tid, const std::string& cat,
                             const std::string& name, util::TimePoint start,
                             util::Duration dur, Json args) {
  events_.push_back(Event{'X', tid, cat, name, start.ns(), dur.ns(), std::move(args)});
}

void TraceRecorder::set_track(std::int64_t tid, const std::string& name) {
  tracks_[tid] = name;
}

Json TraceRecorder::to_chrome_json() const {
  Json list = Json::array();
  // Track-name metadata first: Perfetto applies thread names regardless of
  // position, but leading with them keeps the file self-describing.
  for (const auto& [tid, name] : tracks_) {
    Json meta_args = Json::object();
    meta_args.set("name", name);
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", tid);
    meta.set("args", std::move(meta_args));
    list.push(std::move(meta));
  }
  for (const Event& e : events_) {
    Json entry = Json::object();
    entry.set("name", e.name);
    entry.set("cat", e.cat);
    entry.set("ph", std::string(1, e.ph));
    // Chrome traces use microseconds; keep sub-µs precision as a fraction.
    entry.set("ts", static_cast<double>(e.ts_ns) / 1e3);
    if (e.ph == 'X') entry.set("dur", static_cast<double>(e.dur_ns) / 1e3);
    entry.set("pid", 1);
    entry.set("tid", e.tid);
    if (e.ph == 'i') entry.set("s", "t");  // instant scope: thread
    if (!e.args.is_null()) entry.set("args", e.args);
    list.push(std::move(entry));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(list));
  root.set("displayTimeUnit", "ms");
  return root;
}

std::string TraceRecorder::to_jsonl() const {
  std::string out;
  for (const Event& e : events_) {
    Json entry = Json::object();
    entry.set("ph", std::string(1, e.ph));
    entry.set("tid", e.tid);
    entry.set("cat", e.cat);
    entry.set("name", e.name);
    entry.set("ts_ns", e.ts_ns);
    if (e.ph == 'X') entry.set("dur_ns", e.dur_ns);
    if (!e.args.is_null()) entry.set("args", e.args);
    out += entry.dump_compact();
    out += '\n';
  }
  return out;
}

}  // namespace evm::obs
