// Seeded workload generator. A workload seed expands into a list of
// campaigns — one ScenarioSpec JSON document plus a run of consecutive run
// seeds each — and that JSON text is the only input the program under test
// sees. The same workload seed always yields byte-identical documents.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Campaign {
  /// ScenarioSpec JSON, parsed by ScenarioSpec::from_json at run time.
  std::string spec_json;
  std::uint64_t base_seed = 1;
  std::size_t seeds = 1;
};

struct Workload {
  std::string name;
  std::vector<Campaign> campaigns;
};

/// Names accepted by make_workload. BENCHMARK.json lists the first two;
/// mesh300_lossy runs by hand only (see perfbench/README.md).
const std::vector<std::string>& workload_names();

/// Expand `name` under `seed`; throws std::invalid_argument for an unknown
/// workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
