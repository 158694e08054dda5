// In-memory span recorder for the traced run. Spans are opened by the
// benchmark's own code around calls into one layer's public functions
// (name "<layer>.<call>"), carry start, end and the span that caused them,
// and are written out once, when the run ends. Wall time is read through
// util::TimeSource, the one sanctioned clock (evm_lint rule D2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long parent = -1;  // index into the recorder's spans; -1 for a root

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanRecorder {
 public:
  /// Open a span under the innermost open one; returns its index.
  std::size_t begin(std::string name);
  void end(std::size_t id);
  /// Record a finished span whose interval was measured elsewhere (the
  /// runner's own phase profile) under `parent` (-1 for a root).
  std::size_t add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                  long parent);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Duration minus the part of the interval its children cover.
  double self_ms(std::size_t id) const;

  /// One row per span name, in first-seen order: count, total, self, p50.
  std::string table() const;
  /// Chrome trace-event JSON (Perfetto loads it): one complete ("X") event
  /// per span with its id and parent id in args.
  evm::util::Json to_chrome_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span: open on construction, closed when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.begin(std::move(name))) {}
  ~ScopedSpan() { recorder_.end(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t id_;
};

}  // namespace perfbench
