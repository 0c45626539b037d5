// Fabric failure detection and rerouting (PR 10).
//
// The manager plays the role of every switch's local CPU plus a
// fabric-wide route controller: each probe interval it injects a kProbe
// onto every (rack, spine) uplink from the leaf side; the spine turns the
// probe around as a kProbeAck on its ingress port (rmt::SwitchDevice CPU
// path), so a completed round trip proves both directions of the link
// alive — a gray link that eats either leg starves the prober of acks.
// An uplink whose last ack is older than `detection_window` is declared
// dead; the manager then recomputes every leaf's next-hop table: traffic
// toward address A normally crosses spine A % S, and on failure slides
// cyclically to the next spine whose *both* legs (sender leaf -> spine,
// spine -> destination leaf) are alive. When no spine connects the two
// racks the route is pinned back to its preferred (dead) uplink, where the
// link discards the traffic and the drops are counted as blackholed —
// packet conservation still balances. A late ack on a dead link brings it
// back: routes are recomputed again and restored paths drain normally.
//
// Probes share link bandwidth with data, so failover is opt-in per run
// (testbed config fabric.failover) and absent from the config fingerprint
// when disabled.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "fabric/topology.h"
#include "sim/simulator.h"

namespace orbit::telemetry {
class FlightRecorder;
class Registry;
}  // namespace orbit::telemetry

namespace orbit::fabric {

struct FailoverConfig {
  SimTime probe_interval = 100 * kMicrosecond;
  // An uplink with no ack for this long is declared dead. Must cover at
  // least one probe round trip plus queueing slack; see docs/FAULTS.md
  // for tuning guidance.
  SimTime detection_window = 500 * kMicrosecond;
};

class FailoverManager {
 public:
  FailoverManager(sim::Simulator* sim, FabricTopology* topo,
                  const FailoverConfig& config);

  // Registers the per-leaf ack handlers and starts the probe timer.
  void Start();

  bool link_alive(int rack, int spine) const {
    return alive_[static_cast<size_t>(rack)][static_cast<size_t>(spine)];
  }

  struct Stats {
    uint64_t probes_sent = 0;
    uint64_t acks_received = 0;
    uint64_t links_declared_dead = 0;
    uint64_t links_recovered = 0;
    uint64_t reroutes = 0;  // next-hop table rewrites applied to leaves
  };
  const Stats& stats() const { return stats_; }

  // Counters under "fabric.failover.*"; may be null.
  void RegisterTelemetry(telemetry::Registry* registry);
  // Every liveness transition is noted and triggers a post-mortem dump.
  void SetFlightRecorder(telemetry::FlightRecorder* recorder);

 private:
  void Tick();
  void OnAck(int rack, int port);
  void SetLinkState(int rack, int spine, bool alive);
  // Recomputes every leaf's next-hop for every remote address from the
  // current liveness matrix.
  void RecomputeRoutes();

  sim::Simulator* sim_;
  FabricTopology* topo_;
  FailoverConfig config_;
  std::vector<std::vector<bool>> alive_;        // [rack][spine]
  std::vector<std::vector<SimTime>> last_ack_;  // [rack][spine]
  std::vector<std::vector<int>> port_to_spine_; // [rack][leaf port] -> spine
  std::unique_ptr<sim::PeriodicTask> timer_;
  Stats stats_;
  uint64_t blackholed_routes_ = 0;
  telemetry::FlightRecorder* flight_ = nullptr;
  uint32_t flight_comp_ = 0;
};

}  // namespace orbit::fabric
