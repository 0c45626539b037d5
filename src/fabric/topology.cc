#include "fabric/topology.h"

#include <algorithm>

#include "common/check.h"

namespace orbit::fabric {

FabricTopology::FabricTopology(sim::Simulator* sim, sim::Network* net,
                               const TopologySpec& spec)
    : sim_(sim), net_(net), spec_(spec) {
  ORBIT_CHECK_MSG(spec.num_racks >= 1, "fabric needs at least one rack");
  ORBIT_CHECK_MSG(spec.num_spines >= 1 || spec.num_racks == 1,
                  "racks can only reach each other through a spine");

  leaves_.reserve(static_cast<size_t>(spec.num_racks));
  for (int r = 0; r < spec.num_racks; ++r)
    leaves_.push_back(std::make_unique<rmt::SwitchDevice>(
        sim_, net_, spec.num_spines == 0 ? "tor" : "leaf" + std::to_string(r),
        spec.asic));
  spines_.reserve(static_cast<size_t>(spec.num_spines));
  for (int s = 0; s < spec.num_spines; ++s)
    spines_.push_back(std::make_unique<rmt::SwitchDevice>(
        sim_, net_, "spine" + std::to_string(s), spec.asic));

  // Uplink mesh in (rack, spine) order — link creation order is part of
  // the deterministic build (it fixes per-link loss-seed mixing and the
  // telemetry link indices).
  leaf_uplink_port_.assign(static_cast<size_t>(spec.num_racks),
                           std::vector<int>(static_cast<size_t>(spec.num_spines), -1));
  spine_down_port_.assign(static_cast<size_t>(spec.num_spines),
                          std::vector<int>(static_cast<size_t>(spec.num_racks), -1));
  uplinks_.assign(static_cast<size_t>(spec.num_racks),
                  std::vector<sim::Link*>(static_cast<size_t>(spec.num_spines),
                                          nullptr));
  for (int r = 0; r < spec.num_racks; ++r) {
    for (int s = 0; s < spec.num_spines; ++s) {
      const auto at = net_->Connect(leaves_[static_cast<size_t>(r)].get(),
                                    spines_[static_cast<size_t>(s)].get(),
                                    spec.uplink);
      leaf_uplink_port_[static_cast<size_t>(r)][static_cast<size_t>(s)] =
          at.port_a;
      spine_down_port_[static_cast<size_t>(s)][static_cast<size_t>(r)] =
          at.port_b;
      uplinks_[static_cast<size_t>(r)][static_cast<size_t>(s)] = at.link;
    }
  }
}

void FabricTopology::ForEachHost(
    const std::function<void(Addr, int rack)>& fn) const {
  std::vector<Addr> addrs;
  addrs.reserve(host_rack_.size());
  for (const auto& [addr, rack] : host_rack_) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  for (Addr addr : addrs) fn(addr, host_rack_.at(addr));
}

sim::Network::Attachment FabricTopology::AttachHost(
    sim::Node* host, Addr addr, int rack, const sim::LinkConfig& link) {
  ORBIT_CHECK_MSG(rack >= 0 && rack < spec_.num_racks,
                  "AttachHost: rack " << rack << " out of range");
  ORBIT_CHECK_MSG(host_rack_.count(addr) == 0,
                  "AttachHost: addr " << addr << " already attached");
  const auto at =
      net_->Connect(host, leaves_[static_cast<size_t>(rack)].get(), link);

  // Owning leaf: direct. Spines: toward the owning leaf. Other leaves:
  // into the uplink toward this address's spine (a second rack implies a
  // spine, so a spineless single rack never asks SpineFor).
  leaf(rack).AddRoute(addr, at.port_b);
  for (int s = 0; s < spec_.num_spines; ++s)
    spine(s).AddRoute(addr,
                      spine_down_port_[static_cast<size_t>(s)][static_cast<size_t>(rack)]);
  for (int r = 0; r < spec_.num_racks; ++r) {
    if (r == rack) continue;
    leaf(r).AddRoute(addr, leaf_uplink_port(r, SpineFor(addr)));
  }

  host_rack_[addr] = rack;
  return at;
}

uint64_t FabricTopology::blackholed_packets() const {
  uint64_t total = 0;
  for (const auto& rack : uplinks_)
    for (const sim::Link* link : rack)
      total += link->stats(0).down_drops + link->stats(1).down_drops;
  return total;
}

}  // namespace orbit::fabric
