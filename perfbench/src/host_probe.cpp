#include "host_probe.hpp"

#include <functional>
#include <memory_resource>
#include <queue>
#include <unordered_map>
#include <utility>

#include "obs/phase_timer.hpp"

namespace perfbench {

namespace {

constexpr int kInitialEvents = 2000;
constexpr int kSteps = 60000;
constexpr int kKeys = 50000;
// The reservations in run() keep the heap and the map from reallocating;
// a run uses about a quarter of the arena.
constexpr std::size_t kArenaBytes = 8u << 20;

}  // namespace

HostProbe::HostProbe() : arena_(kArenaBytes) {}

std::uint64_t HostProbe::run() {
  using Event = std::pair<std::int64_t, int>;
  std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::vector<Event> storage(&arena);
  storage.reserve(kInitialEvents);
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> events(
      std::greater<>(), std::move(storage));
  std::pmr::unordered_map<int, std::int64_t> state(&arena);
  state.reserve(kKeys);
  for (int i = 0; i < kInitialEvents; ++i) events.push({i, i});
  std::uint64_t x = 1;  // xorshift64
  std::uint64_t checksum = 0;
  for (int step = 0; step < kSteps; ++step) {
    const Event e = events.top();
    events.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state[static_cast<int>(x % kKeys)] += e.first;
    checksum += state.size();
    events.push({e.first + static_cast<std::int64_t>(x % 1000), e.second});
  }
  return checksum;
}

double HostProbe::measure_ms(std::uint64_t& checksum) {
  (void)run();
  const evm::obs::Stopwatch watch;
  checksum = run();
  return watch.elapsed_ms();
}

}  // namespace perfbench
