// E12 (extension) — the simulator's cancel path under churn. Topology
// churn cancels thousands of pending retransmit/evidence timers, so this
// sim-core microbench times schedule + cancel + drain as the pending set
// grows, and runs the same storm through a reference build of the retired
// binary-heap engine. The failover-under-churn story itself is a scenario:
// scenarios/churn_storm.json (60 outages/min) and burst_loss_churn.json.
#include <functional>
#include <iostream>
#include <queue>
#include <vector>

#include "harness.hpp"
#include "sim/simulator.hpp"

using namespace evm;

namespace {

// Reference engine for the heap-vs-calendar row below: the retired global
// binary heap (std::priority_queue of heap-allocated std::function events,
// cancellation marks consulted once per pop). Same observable semantics as
// sim::Simulator for this workload, the old cost model — O(log total-pending)
// per operation plus one allocation per event.
class RefHeapQueue {
 public:
  std::uint64_t schedule(std::int64_t when_ns, std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    heap_.push(HeapEvent{when_ns, id, std::move(fn)});
    cancelled_.push_back(false);
    return id;
  }
  void cancel(std::uint64_t id) { cancelled_[id] = true; }
  void run_all() {
    while (!heap_.empty()) {
      const HeapEvent& top = heap_.top();
      if (!cancelled_[top.seq]) top.fn();
      heap_.pop();
    }
  }

 private:
  struct HeapEvent {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator<(const HeapEvent& other) const {
      if (when_ns != other.when_ns) return when_ns > other.when_ns;
      return seq > other.seq;  // min-heap, FIFO tie-break
    }
  };
  std::priority_queue<HeapEvent> heap_;
  std::vector<bool> cancelled_;  // dense by seq (stand-in for the hash set)
  std::uint64_t next_id_ = 0;
};

}  // namespace

int main() {
  std::cout << "=== E12 (extension): simulator cancel path under churn ===\n";
  bench::Reporter report("churn");
  // Churn cancels thousands of pending retransmit/evidence timers; the
  // calendar engine marks the node dead in place through its handle (O(1),
  // no search, no hash probe). This microbench keeps the cancel path honest:
  // per-op cost must stay flat as the pending set grows.
  std::cout << "\nSimulator cancel path (schedule + cancel + drain):\n";
  bench::print_time_header();
  for (int pending : {1000, 10000}) {
    auto timed = bench::time_scenario(
        report, "cancel_drain_" + std::to_string(pending) + "_pending",
        [pending] {
          sim::Simulator sim(1);
          std::vector<sim::EventHandle> handles;
          handles.reserve(static_cast<std::size_t>(pending));
          for (int i = 0; i < pending; ++i) {
            handles.push_back(
                sim.schedule_after(util::Duration::micros(i), [] {}));
          }
          for (const auto& h : handles) sim.cancel(h);
          sim.run_all();
        },
        10);
    timed.scenario.param("pending_events", pending);
  }

  // Heap-vs-calendar: the identical schedule/cancel/drain storm through a
  // reference build of the retired binary-heap engine and through the
  // calendar queue, timed back to back. The calendar must win — it pools
  // nodes (no per-event allocation), cancels through the handle instead of
  // marking-and-popping, and pays O(1) per schedule instead of O(log n).
  std::cout << "\nHeap vs calendar (schedule + 50% cancel + drain, 20k events):\n";
  bench::print_time_header();
  constexpr int kStormEvents = 20000;
  auto heap_row = bench::time_scenario(
      report, "storm_heap_engine",
      [] {
        RefHeapQueue queue;
        std::vector<std::uint64_t> ids;
        ids.reserve(kStormEvents);
        for (int i = 0; i < kStormEvents; ++i) {
          // Spread over ~20 ms so many slots are in play for the calendar.
          ids.push_back(queue.schedule(static_cast<std::int64_t>(i) * 1000, [] {}));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) queue.cancel(ids[i]);
        queue.run_all();
      },
      10);
  heap_row.scenario.param("engine", "binary_heap_reference")
      .param("events", kStormEvents);
  auto cal_row = bench::time_scenario(
      report, "storm_calendar_engine",
      [] {
        sim::Simulator sim(1);
        std::vector<sim::EventHandle> handles;
        handles.reserve(kStormEvents);
        for (int i = 0; i < kStormEvents; ++i) {
          handles.push_back(sim.schedule_after(util::Duration::micros(i), [] {}));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
        sim.run_all();
      },
      10);
  cal_row.scenario.param("engine", "calendar_queue").param("events", kStormEvents);

  return report.write() ? 0 : 1;
}
