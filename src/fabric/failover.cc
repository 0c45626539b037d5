#include "fabric/failover.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "sim/packet.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"

namespace orbit::fabric {

FailoverManager::FailoverManager(sim::Simulator* sim, FabricTopology* topo,
                                 const FailoverConfig& config)
    : sim_(sim), topo_(topo), config_(config) {
  ORBIT_CHECK(sim != nullptr && topo != nullptr);
  ORBIT_CHECK(config.probe_interval > 0);
  ORBIT_CHECK_MSG(config.detection_window >= config.probe_interval,
                  "detection window shorter than one probe interval");
  const size_t racks = static_cast<size_t>(topo_->num_racks());
  const size_t spines = static_cast<size_t>(topo_->num_spines());
  alive_.assign(racks, std::vector<bool>(spines, true));
  last_ack_.assign(racks, std::vector<SimTime>(spines, 0));
  port_to_spine_.assign(racks, {});
  for (size_t r = 0; r < racks; ++r) {
    for (size_t s = 0; s < spines; ++s) {
      const int port =
          topo_->leaf_uplink_port(static_cast<int>(r), static_cast<int>(s));
      if (static_cast<size_t>(port) >= port_to_spine_[r].size())
        port_to_spine_[r].resize(static_cast<size_t>(port) + 1, -1);
      port_to_spine_[r][static_cast<size_t>(port)] = static_cast<int>(s);
    }
  }
}

void FailoverManager::Start() {
  for (int r = 0; r < topo_->num_racks(); ++r) {
    topo_->leaf(r).set_probe_ack_handler(
        [this, r](int port) { OnAck(r, port); });
  }
  timer_ = std::make_unique<sim::PeriodicTask>(sim_, config_.probe_interval,
                                               [this] { Tick(); });
  timer_->Start();
}

void FailoverManager::Tick() {
  const SimTime now = sim_->now();
  bool changed = false;
  for (int r = 0; r < topo_->num_racks(); ++r) {
    for (int s = 0; s < topo_->num_spines(); ++s) {
      // Detection first: a link that went quiet is declared dead before
      // this round's probe could possibly refresh it.
      if (alive_[static_cast<size_t>(r)][static_cast<size_t>(s)] &&
          now - last_ack_[static_cast<size_t>(r)][static_cast<size_t>(s)] >
              config_.detection_window) {
        SetLinkState(r, s, false);
        changed = true;
      }
      sim::PacketPtr probe =
          sim::NewPacket(kInvalidAddr, kInvalidAddr, /*sport=*/0, /*dport=*/0);
      probe->msg.op = proto::Op::kProbe;
      ++stats_.probes_sent;
      // From the leaf side: endpoint a of every uplink is the leaf
      // (FabricTopology's build order), so direction 0 is leaf -> spine.
      topo_->uplink(r, s)->Send(/*from=*/0, std::move(probe));
    }
  }
  if (changed) RecomputeRoutes();
}

void FailoverManager::OnAck(int rack, int port) {
  const auto& map = port_to_spine_[static_cast<size_t>(rack)];
  if (static_cast<size_t>(port) >= map.size()) return;
  const int spine = map[static_cast<size_t>(port)];
  if (spine < 0) return;
  ++stats_.acks_received;
  last_ack_[static_cast<size_t>(rack)][static_cast<size_t>(spine)] =
      sim_->now();
  if (!alive_[static_cast<size_t>(rack)][static_cast<size_t>(spine)]) {
    SetLinkState(rack, spine, true);
    RecomputeRoutes();
  }
}

void FailoverManager::SetLinkState(int rack, int spine, bool alive) {
  alive_[static_cast<size_t>(rack)][static_cast<size_t>(spine)] = alive;
  if (alive)
    ++stats_.links_recovered;
  else
    ++stats_.links_declared_dead;
  if (flight_ != nullptr) {
    flight_->Note(flight_comp_, sim_->now(),
                  alive ? "uplink_recovered" : "uplink_dead",
                  static_cast<uint64_t>(rack), static_cast<uint64_t>(spine));
    flight_->TriggerDump(
        sim_->now(), std::string("failover: rack ") + std::to_string(rack) +
                         " spine " + std::to_string(spine) +
                         (alive ? " recovered" : " dead"));
  }
}

void FailoverManager::RecomputeRoutes() {
  const int spines = topo_->num_spines();
  uint64_t blackholed = 0;
  topo_->ForEachHost([&](Addr addr, int home) {
    const int preferred = topo_->SpineFor(addr);
    for (int r = 0; r < topo_->num_racks(); ++r) {
      if (r == home) continue;  // access-port route, never rerouted
      // First spine (cyclically from the static choice) with both legs
      // alive; with everything up this is exactly the static route.
      int chosen = -1;
      for (int i = 0; i < spines; ++i) {
        const int s = (preferred + i) % spines;
        if (link_alive(r, s) && link_alive(home, s)) {
          chosen = s;
          break;
        }
      }
      if (chosen < 0) {
        // No path: pin the route back to its preferred uplink so the loss
        // is visible as link-down drops (blackholed_packets), not a
        // routing-table inconsistency.
        chosen = preferred;
        ++blackholed;
      }
      const int port = topo_->leaf_uplink_port(r, chosen);
      if (topo_->leaf(r).RouteOf(addr) != port) {
        // The leaf's program follows the route (clone groups included).
        topo_->leaf(r).AddRoute(addr, port);
        ++stats_.reroutes;
      }
    }
  });
  blackholed_routes_ = blackholed;
}

void FailoverManager::RegisterTelemetry(telemetry::Registry* registry) {
  if (registry == nullptr) return;
  const std::string who = "FailoverManager::RegisterTelemetry";
  registry->AddCounter("fabric.failover.probes_sent",
                       [this] { return stats_.probes_sent; }, who);
  registry->AddCounter("fabric.failover.acks_received",
                       [this] { return stats_.acks_received; }, who);
  registry->AddCounter("fabric.failover.links_declared_dead",
                       [this] { return stats_.links_declared_dead; }, who);
  registry->AddCounter("fabric.failover.links_recovered",
                       [this] { return stats_.links_recovered; }, who);
  registry->AddCounter("fabric.failover.reroutes",
                       [this] { return stats_.reroutes; }, who);
  registry->AddCounter("fabric.failover.blackholed_packets",
                       [this] { return topo_->blackholed_packets(); }, who);
  registry->AddGauge("fabric.failover.blackholed_routes",
                     [this] { return blackholed_routes_; }, who);
}

void FailoverManager::SetFlightRecorder(telemetry::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr) flight_comp_ = flight_->Component("failover");
}

}  // namespace orbit::fabric
