#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "testbed/topology_spec.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using evm::util::Json;
using evm::util::Rng;

namespace {

// fig5_failover: many cheap seeds, so the failover-latency tail is sampled.
constexpr std::size_t kFig5Campaigns = 24;
constexpr std::size_t kFig5SeedsPerCampaign = 8;
// grid1000_failover: few seeds of the one expensive world.
constexpr std::size_t kGridSeeds = 3;
// mesh300_lossy: each campaign draws its own outage pattern. Its failover
// times cluster near 20 s (about two runs in three), 35 s and 50 s; 48 runs
// keep the median on the first cluster, where 12 let it land on the second
// for about one workload seed in ten.
constexpr std::size_t kMeshCampaigns = 48;
constexpr std::size_t kMeshSeedsPerCampaign = 1;
constexpr std::size_t kMeshWidth = 20;
constexpr std::size_t kMeshHeight = 15;
constexpr double kMeshLinkLoss = 0.02;
constexpr double kMeshHorizonS = 600.0;
constexpr int kMeshOutages = 40;

/// Millisecond-rounded draw, so the spec text stays short and exact.
double draw_ms(Rng& rng, double lo, double hi) {
  return std::round(rng.uniform(lo, hi) * 1000.0) / 1000.0;
}

/// Run seeds stay below 2^31 so they survive the JSON number round trip
/// of RunMetrics::to_json exactly.
std::uint64_t draw_base_seed(Rng& rng) { return 1 + rng.next_below(1u << 30); }

Json primary_fault(double at_s) {
  Json e = Json::object();
  e.set("at_s", at_s);
  e.set("do", "primary_fault");
  e.set("value", 75.0);
  return e;
}

/// The paper's six-node Fig. 5 testbed with 5% i.i.d. loss on every link;
/// the primary mis-actuates at a seed-drawn time (the Fig. 6(b) story on a
/// compressed timescale, as in scenarios/fig6_failover.json).
Campaign fig5_campaign(Rng& rng, std::size_t index) {
  Json spec = Json::object();
  spec.set("name", "fig5_failover_" + std::to_string(index));
  spec.set("horizon_s", 120.0);
  Json testbed = Json::object();
  testbed.set("evidence_threshold", 8);
  testbed.set("dormant_delay_s", 5.0);
  testbed.set("link_loss", 0.05);
  spec.set("testbed", std::move(testbed));
  Json record = Json::array();
  record.push("LTS.LiquidPercentLevel");
  spec.set("record", std::move(record));
  Json events = Json::array();
  events.push(primary_fault(draw_ms(rng, 10.0, 60.0)));
  spec.set("events", std::move(events));
  return {spec.dump(), draw_base_seed(rng), kFig5SeedsPerCampaign};
}

/// The 40x25 scale_sweep_1000 world, lossless, over its full 360 s horizon
/// with the same crash-restart plus primary-fault story.
Campaign grid1000_campaign(Rng& rng) {
  Json spec = Json::object();
  spec.set("name", "grid1000_failover");
  spec.set("horizon_s", 360.0);
  Json testbed = Json::object();
  testbed.set("control_period_ms", 12000.0);
  testbed.set("evidence_threshold", 3);
  testbed.set("dormant_delay_s", 24.0);
  testbed.set("promotion_timeout_s", 90.0);
  testbed.set("head_beacon_s", 4.0);
  testbed.set("head_bound_tree_unicast", true);
  testbed.set("mac_unicast_priority", true);
  spec.set("testbed", std::move(testbed));
  Json topology = Json::object();
  topology.set("generator", "grid");
  topology.set("width", 40);
  topology.set("height", 25);
  topology.set("controllers", 2);
  spec.set("topology", std::move(topology));
  Json record = Json::array();
  record.push("LTS.LiquidPercentLevel");
  spec.set("record", std::move(record));
  Json events = Json::array();
  Json crash = Json::object();
  crash.set("at_s", 60.0);
  crash.set("do", "node_crash");
  crash.set("node", "relay_3");
  events.push(std::move(crash));
  Json restart = Json::object();
  restart.set("at_s", 84.0);
  restart.set("do", "node_restart");
  restart.set("node", "relay_3");
  events.push(std::move(restart));
  events.push(primary_fault(120.0));
  spec.set("events", std::move(events));
  return {spec.dump(), draw_base_seed(rng), kGridSeeds};
}

/// A 20x15 grid with 2% loss on every link and seed-drawn outages. Outages
/// are drawn from the generated grid's own link list, so every one of them
/// hits a real adjacent pair.
Campaign mesh300_campaign(Rng& rng, std::size_t index) {
  const evm::testbed::TopologySpec grid = evm::testbed::grid_topology(
      kMeshWidth, kMeshHeight, 2, kMeshLinkLoss);
  Json spec = Json::object();
  spec.set("name", "mesh300_lossy_" + std::to_string(index));
  spec.set("horizon_s", kMeshHorizonS);
  Json testbed = Json::object();
  testbed.set("control_period_ms", 4000.0);
  testbed.set("evidence_threshold", 4);
  testbed.set("dormant_delay_s", 16.0);
  testbed.set("promotion_timeout_s", 8.0);
  testbed.set("head_beacon_s", 4.0);
  testbed.set("mac_unicast_priority", true);
  spec.set("testbed", std::move(testbed));
  Json topology = Json::object();
  topology.set("generator", "grid");
  topology.set("width", kMeshWidth);
  topology.set("height", kMeshHeight);
  topology.set("controllers", 2);
  topology.set("link_loss", kMeshLinkLoss);
  spec.set("topology", std::move(topology));
  Json record = Json::array();
  record.push("LTS.LiquidPercentLevel");
  spec.set("record", std::move(record));
  Json events = Json::array();
  events.push(primary_fault(draw_ms(rng, 60.0, 120.0)));
  for (int i = 0; i < kMeshOutages; ++i) {
    const auto& link = grid.links[rng.next_below(grid.links.size())];
    Json outage = Json::object();
    outage.set("at_s", draw_ms(rng, 10.0, kMeshHorizonS - 40.0));
    outage.set("do", "link_outage");
    outage.set("a", static_cast<std::int64_t>(link.a));
    outage.set("b", static_cast<std::int64_t>(link.b));
    outage.set("duration_s", draw_ms(rng, 4.0, 20.0));
    events.push(std::move(outage));
  }
  spec.set("events", std::move(events));
  return {spec.dump(), draw_base_seed(rng), kMeshSeedsPerCampaign};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "fig5_failover", "grid1000_failover", "mesh300_lossy"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  // Each workload gets its own stream, so adding one never reshuffles the
  // inputs of another.
  std::uint64_t salt = 0;
  for (const char c : name) salt = salt * 131 + static_cast<unsigned char>(c);
  Rng rng(Rng::mix(seed, salt));
  Workload w;
  w.name = name;
  if (name == "fig5_failover") {
    for (std::size_t i = 0; i < kFig5Campaigns; ++i) {
      w.campaigns.push_back(fig5_campaign(rng, i));
    }
  } else if (name == "grid1000_failover") {
    w.campaigns.push_back(grid1000_campaign(rng));
  } else if (name == "mesh300_lossy") {
    for (std::size_t i = 0; i < kMeshCampaigns; ++i) {
      w.campaigns.push_back(mesh300_campaign(rng, i));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
