// Integration: the EVM supervising the *discrete* automation domain — an
// assembly line whose station-speed controller runs as a replicated VC
// function over the wireless network. Shows the runtime is agnostic to the
// controlled process (continuous gas plant vs discrete workcell).
#include <gtest/gtest.h>

#include <memory>

#include "core/control_programs.hpp"
#include "core/service.hpp"
#include "plant/workcell.hpp"

namespace evm::core {
namespace {

constexpr plant::UnitType kRed = 0;
constexpr FunctionId kSpeedLoop = 1;
constexpr std::uint8_t kQueueStream = 0;
constexpr std::uint8_t kSpeedChannel = 0;

struct WorkcellEvmFixture : ::testing::Test {
  sim::Simulator sim{77};
  net::Topology topo = net::Topology::full_mesh({1, 2, 3});
  net::Medium medium{sim, topo};
  net::RtLinkSchedule schedule{6, util::Duration::millis(5)};
  net::TimeSync sync{sim, {}};
  plant::AssemblyLine line{sim, 2};
  VcDescriptor vc;
  std::map<net::NodeId, std::unique_ptr<Node>> nodes;
  std::map<net::NodeId, std::unique_ptr<EvmService>> services;

  WorkcellEvmFixture() {
    line.define_unit(kRed, {"red",
                            {util::Duration::seconds(8), util::Duration::seconds(8)}});

    vc.id = 5;
    vc.head = 1;
    vc.members = {1, 2, 3};
    ControlFunction fn;
    fn.id = kSpeedLoop;
    fn.name = "takt-speed";
    fn.sensor_stream = kQueueStream;
    fn.actuator_channel = kSpeedChannel;
    fn.task.name = "takt-speed";
    fn.task.period = util::Duration::millis(500);
    fn.task.wcet = util::Duration::millis(2);
    fn.task.priority = 8;
    fn.output_min = 0.5;
    fn.output_max = 3.0;
    fn.deviation_threshold = 0.3;
    fn.evidence_threshold = 6;
    fn.silence_threshold = 6;
    // Bang-bang takt controller in bytecode: if the input queue exceeds 3
    // units, run the stations at double speed, else nominal.
    fn.algorithm = *make_bang_bang(kSpeedLoop, kQueueStream, kSpeedChannel,
                                   /*threshold=*/3.0, /*low(above)=*/2.0,
                                   /*high(below)=*/1.0);
    vc.functions[kSpeedLoop] = fn;
    vc.replicas[kSpeedLoop] = {2, 3};  // controller + backup

    int slot = 0;
    for (net::NodeId id : {1, 2, 3}) {
      NodeConfig config;
      config.id = id;
      nodes[id] = std::make_unique<Node>(sim, medium, schedule, sync, config);
      schedule.assign_tx(slot++, id);
      services[id] = std::make_unique<EvmService>(
          *nodes[id], vc, FailoverPolicy{util::Duration::seconds(30)});
    }
    schedule.assign_tx(slot++, 1);

    // The gateway node (1) senses the line and drives the station speeds.
    nodes[1]->bind_sensor(kQueueStream, [this] {
      return static_cast<double>(line.input_queue_depth());
    });
    services[1]->set_actuation_handler([this](const ActuationMsg& msg) {
      line.set_station_speed(0, msg.value);
      line.set_station_speed(1, msg.value);
    });
  }

  void start() {
    sync.start();
    for (auto& [id, svc] : services) {
      (void)id;
      ASSERT_TRUE(svc->start());
    }
    ASSERT_TRUE(services[1]->add_sensor_publisher(kQueueStream, kQueueStream,
                                                  util::Duration::millis(500)));
  }
  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }
};

TEST_F(WorkcellEvmFixture, TaktControllerReactsToBacklog) {
  double max_speed_commanded = 0.0;
  services[1]->set_actuation_handler([&, this](const ActuationMsg& msg) {
    max_speed_commanded = std::max(max_speed_commanded, msg.value);
    line.set_station_speed(0, msg.value);
    line.set_station_speed(1, msg.value);
  });
  start();
  // Feed faster than nominal capacity: backlog builds, the wireless
  // bang-bang controller must switch the stations to double speed.
  line.start_pattern({kRed}, util::Duration::seconds(5));
  run_for(util::Duration::seconds(120));
  EXPECT_GT(services[2]->cycles_run(kSpeedLoop), 100u);
  // The controller observed the backlog and sped the line up (bang-bang
  // oscillates afterwards, so check the peak command, not the latest).
  EXPECT_NEAR(max_speed_commanded, 2.0, 1e-9);
  // With 2x speed (4 s/station) the line keeps up with the 5 s takt.
  run_for(util::Duration::seconds(300));
  EXPECT_LT(line.input_queue_depth(), 8u);
  EXPECT_GT(line.stats().completed, 50u);
}

TEST_F(WorkcellEvmFixture, SupervisionSurvivesControllerCrash) {
  start();
  line.start_pattern({kRed}, util::Duration::seconds(5));
  run_for(util::Duration::seconds(30));
  ASSERT_EQ(services[2]->mode(kSpeedLoop), ControllerMode::kActive);

  nodes[2]->fail();  // the takt controller dies mid-shift
  run_for(util::Duration::seconds(30));
  EXPECT_EQ(services[3]->mode(kSpeedLoop), ControllerMode::kActive);

  // The line keeps moving under the backup's control.
  const auto completed_at_failover = line.stats().completed;
  run_for(util::Duration::seconds(120));
  EXPECT_GT(line.stats().completed, completed_at_failover + 10);
}

TEST_F(WorkcellEvmFixture, StationFaultReflectsInBacklogStream) {
  start();
  line.start_pattern({kRed}, util::Duration::seconds(6));
  run_for(util::Duration::seconds(30));
  line.fault_station(1);
  run_for(util::Duration::seconds(60));
  // Backlog grows behind the fault and the data plane carries it to the
  // controllers.
  EXPECT_GT(services[2]->stream_value(kQueueStream), 3.0);
  line.repair_station(1);
  run_for(util::Duration::seconds(200));
  EXPECT_LT(line.input_queue_depth(), 6u);
}

}  // namespace
}  // namespace evm::core
