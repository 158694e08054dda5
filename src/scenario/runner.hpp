// Instantiates one scenario deterministically from (spec, seed): builds a
// GasPlantTestbed, compiles the fault schedule onto the simulator and a
// TopologyScript, runs to the horizon and collects metrics — failover
// latency, missed deadlines, packet loss, plant regulation error — plus the
// full plant time-series in a sim::Trace for CSV/JSON export.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace_recorder.hpp"
#include "scenario/spec.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

namespace evm::scenario {

class InvariantMonitor;

/// Metrics of one (spec, seed) run. Pure function of its inputs: the same
/// spec and seed always produce a byte-identical `to_json().dump()`.
struct RunMetrics {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;  // set when the run threw instead of completing

  double fault_injected_s = -1.0;    // first scheduled fault; -1 when none
  double failover_at_s = -1.0;       // first head failover action
  double failover_latency_s = -1.0;  // failover_at_s - fault_injected_s
  std::size_t failover_count = 0;
  std::size_t head_successions = 0;
  bool backup_active = false;  // a backup replica ended the run Active

  std::uint64_t missed_deadlines = 0;  // summed over every node's kernel
  std::uint64_t task_releases = 0;

  std::size_t packets_delivered = 0;
  std::size_t packets_lost = 0;
  std::size_t packets_collided = 0;
  double packet_loss_rate = 0.0;  // (lost + collided) / offered

  // Dissemination cost of the broadcast plane (sensor stream, heartbeats,
  // actuation, head beacons). Derived from the world: "tree" on multi-hop
  // worlds, where relaying is scoped to the dissemination tree's interior;
  // "single_hop" on the Fig. 5 mesh (no relaying at all).
  std::string dissemination;
  std::size_t bcast_datagrams = 0;      // unique broadcasts originated
  std::size_t bcast_transmissions = 0;  // originations + relay re-sends
  /// RT-Link slots consumed per unique broadcast datagram (about the tree's
  /// interior size on multi-hop worlds, 1 on the Fig. 5 mesh).
  double slots_per_broadcast = 0.0;
  /// Beacon slots reclaimed by piggy-backing: explicit head beacons the
  /// head withheld (its own frames carried the tag) plus beacon-probe
  /// relays interior nodes skipped (their data frames covered the link).
  std::size_t beacons_suppressed = 0;

  double level_rmse_pct = 0.0;     // RMS |level - setpoint| over the run
  double level_max_dev_pct = 0.0;  // worst excursion from setpoint
  double final_level_pct = 0.0;
  std::string ctrl_a_mode;
  std::string ctrl_b_mode;

  std::size_t sim_events = 0;
  std::size_t topology_mutations = 0;
  /// TDMA slots the horizon covers (horizon / slot length). Derived from
  /// the spec alone, so it serializes; wall-clock throughput is reported as
  /// sim_slots / wall seconds in the campaign's "timing" block.
  std::uint64_t sim_slots = 0;

  // --- Wall-clock profile (observability; NOT serialized) ------------------
  // to_json() is contractually a pure function of (spec, seed), and wall
  // time is machine-dependent — campaign_report() aggregates these fields
  // into its own "timing" block instead of serializing them per run.
  double wall_setup_ms = 0.0;
  double wall_run_ms = 0.0;
  double wall_teardown_ms = 0.0;
  double wall_ms = 0.0;

  util::Json to_json() const;
};

class ScenarioRunner {
 public:
  /// `spec` must outlive the runner; it is read-only and safe to share
  /// across concurrently running runners (the campaign engine does).
  ScenarioRunner(const ScenarioSpec& spec, std::uint64_t seed);
  ~ScenarioRunner();

  /// Attach a runtime invariant monitor before run(). The runner feeds it
  /// periodic liveness/counter probes, streams plant samples into it via the
  /// trace observer, and finalizes it with the collected metrics. The
  /// monitor must outlive the runner. Monitored runs dispatch extra probe
  /// events, so their `sim_events` differs from unmonitored runs of the same
  /// (spec, seed); everything else is identical.
  void attach_monitor(InvariantMonitor* monitor) { monitor_ = monitor; }

  /// Opt-in event tracing: typed spans/instants from the built world land in
  /// `recorder` (must outlive run(); nullptr disables). Tracing never changes
  /// the run's metrics — test_obs proves the byte-identity.
  void set_trace_recorder(obs::TraceRecorder* recorder) { recorder_ = recorder; }

  /// Build the testbed, apply the schedule, run to the horizon, collect.
  /// Call once. Never throws: failures land in RunMetrics::error.
  RunMetrics run();

  /// Plant time-series of the completed run (valid after run()).
  const sim::Trace& trace() const;

  /// Deterministic metrics snapshot of the completed run (valid after
  /// run(); see the README's "Observability" metric table).
  const obs::Metrics& metrics() const { return metrics_; }

  /// Wall-clock profile of run(): setup / run / teardown phases (valid
  /// after run(); machine-dependent, never serialized into RunMetrics).
  const obs::PhaseProfile& phases() const { return phases_; }

 private:
  void schedule_events();
  void schedule_churn();
  void probe_once();
  RunMetrics collect();

  const ScenarioSpec& spec_;
  std::uint64_t seed_;
  /// Resolved world (spec topology or the default Fig. 5 testbed); the
  /// source of every node set the runner iterates.
  testbed::TopologySpec topo_;
  std::unique_ptr<testbed::GasPlantTestbed> testbed_;
  std::unique_ptr<net::TopologyScript> script_;
  InvariantMonitor* monitor_ = nullptr;
  obs::TraceRecorder* recorder_ = nullptr;
  obs::Metrics metrics_;
  obs::PhaseProfile phases_;
  double fault_injected_s_ = -1.0;
};

}  // namespace evm::scenario
