// Self-tests of the benchmark's own pieces: the percentile helper, the
// seeded workload generator, the span recorder and the host speed probe. Exit status 0 when every
// check passes; each failure prints its file:line.
//
//   python3 perfbench/run.py --self-test

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "host_probe.hpp"
#include "percentile.hpp"
#include "scenario/spec.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void test_percentiles() {
  // The Fig. 6 case: one slow failover among five must set the max.
  const std::vector<double> fig6 = {2.04, 2.04, 2.04, 4.04, 2.04};
  CHECK(perfbench::p50(fig6).value == 2.04);
  CHECK(perfbench::p50(fig6).count == 5);
  CHECK(perfbench::max_of(fig6).value == 4.04);
  CHECK(perfbench::max_of(fig6).count == 5);

  CHECK(perfbench::p50({}).count == 0);
  CHECK(perfbench::max_of({7.0}).value == 7.0);
  CHECK(perfbench::p50({4.0, 1.0, 3.0, 2.0}).value == 2.0);
  CHECK(perfbench::nearest_rank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90.0).value == 9.0);
  CHECK(perfbench::nearest_rank({1, 2, 3}, 0.0).value == 1.0);
}

void test_workloads() {
  for (const std::string& name : perfbench::workload_names()) {
    const perfbench::Workload a = perfbench::make_workload(name, 42);
    const perfbench::Workload b = perfbench::make_workload(name, 42);
    const perfbench::Workload other = perfbench::make_workload(name, 43);
    CHECK(!a.campaigns.empty());
    CHECK(a.campaigns.size() == b.campaigns.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.campaigns.size(); ++i) {
      CHECK(a.campaigns[i].spec_json == b.campaigns[i].spec_json);
      CHECK(a.campaigns[i].base_seed == b.campaigns[i].base_seed);
      CHECK(a.campaigns[i].seeds == b.campaigns[i].seeds);
      differs = differs || a.campaigns[i].spec_json != other.campaigns[i].spec_json ||
                a.campaigns[i].base_seed != other.campaigns[i].base_seed;

      auto json = evm::util::Json::parse(a.campaigns[i].spec_json);
      CHECK(json.ok());
      if (!json) continue;
      auto spec = evm::scenario::ScenarioSpec::from_json(*json);
      CHECK(spec.ok());
      if (!spec) continue;
      CHECK(spec->validate().ok());
      const evm::testbed::TopologySpec topo = spec->topology();
      int faults = 0;
      for (const auto& e : spec->events) {
        if (e.kind == evm::scenario::EventKind::kPrimaryFault) ++faults;
        // Outages must hit links the world really has; an outage on a
        // non-adjacent pair would silently do nothing.
        if (e.kind == evm::scenario::EventKind::kLinkOutage) CHECK(topo.has_link(e.a, e.b));
      }
      CHECK(faults == 1);
    }
    CHECK(differs);
  }
  bool threw = false;
  try {
    (void)perfbench::make_workload("no_such_workload", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_spans() {
  perfbench::SpanRecorder nested;
  const std::size_t outer = nested.begin("bench.seed");
  const std::size_t inner = nested.begin("scenario.validate");
  nested.end(inner);
  nested.end(outer);
  CHECK(nested.spans()[outer].parent == -1);
  CHECK(nested.spans()[inner].parent == static_cast<long>(outer));
  CHECK(nested.spans()[inner].start_ns >= nested.spans()[outer].start_ns);
  CHECK(nested.spans()[inner].end_ns <= nested.spans()[outer].end_ns);

  // Parent [0, 10 ms]; children [1, 3] and [2, 6] overlap, so together
  // they cover 5 ms and the parent's self time is 5 ms.
  perfbench::SpanRecorder rec;
  const std::size_t p = rec.add("scenario.runner", 0, 10'000'000, -1);
  rec.add("scenario.setup", 1'000'000, 3'000'000, static_cast<long>(p));
  rec.add("scenario.run", 2'000'000, 6'000'000, static_cast<long>(p));
  CHECK(rec.self_ms(p) == 5.0);
  CHECK(rec.self_ms(p + 1) == 2.0);
  CHECK(rec.durations_ms("scenario.run").size() == 1);
  CHECK(rec.durations_ms("scenario.run")[0] == 4.0);

  const evm::util::Json chrome = rec.to_chrome_json();
  const evm::util::Json* events = chrome.find("traceEvents");
  CHECK(events != nullptr && events->size() == 3);
  if (events != nullptr && events->size() == 3) {
    CHECK(events->at(2).find("args")->find("parent")->as_int() == static_cast<long>(p));
    CHECK(events->at(2).find("cat")->as_string() == "scenario");
    CHECK(events->at(2).find("dur")->as_double() == 4000.0);
  }
}

void test_host_probe() {
  // The kernel does the same work every time, reusing its arena.
  perfbench::HostProbe probe;
  CHECK(probe.run() == perfbench::HostProbe::kChecksum);
  std::uint64_t checksum = 0;
  CHECK(probe.measure_ms(checksum) > 0.0);
  CHECK(checksum == perfbench::HostProbe::kChecksum);
}

}  // namespace

int main() {
  test_percentiles();
  test_workloads();
  test_spans();
  test_host_probe();
  if (g_failures == 0) std::printf("perfbench self-tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
