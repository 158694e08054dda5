// The paper's evaluation testbed (Fig. 5): a Honeywell-Unisim-style natural
// gas plant in hardware-in-loop co-simulation with six FireFly-class nodes —
// gateway, sensor, two-or-three controllers and an actuator — joined into
// one Virtual Component over RT-Link. Since the topology redesign this is a
// thin wrapper over TestbedBuilder: the world comes from config.topology
// when set, else from default_fig5_topology(). The scenario runner, the
// integration tests and the examples all build on this harness; the Fig. 6(b)
// story itself is scenarios/fig6_paper.json.
#pragma once

#include <utility>

#include "testbed/testbed_builder.hpp"

namespace evm::testbed {

/// Node ids of the default Fig. 5 world (mirroring the paper's labels).
struct TestbedIds {
  static constexpr net::NodeId kGateway = 1;  // ModBus bridge + VC head
  static constexpr net::NodeId kSensor = 2;   // S1: LTS liquid level
  static constexpr net::NodeId kCtrlA = 3;    // primary controller
  static constexpr net::NodeId kCtrlB = 4;    // backup controller
  static constexpr net::NodeId kCtrlC = 5;    // optional second backup
  static constexpr net::NodeId kActuator = 6; // A1: LTS drain valve
};

class GasPlantTestbed : public TestbedBuilder {
 public:
  explicit GasPlantTestbed(GasPlantTestbedConfig config = {})
      : TestbedBuilder(std::move(config)) {}
};

}  // namespace evm::testbed
