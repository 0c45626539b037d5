// Declarative leaf–spine topology (paper §3.9 multi-rack deployment,
// TurboKV-style fabric partitioning).
//
// N racks, each fronted by one leaf (ToR) switch; S spines interconnect
// the leaves with a full bipartite mesh of uplinks. Exactly one switch on
// any path — the destination's leaf — applies cache logic; spines attach
// no program and forward by deterministic static routes: traffic toward
// address A always crosses spine A % S, so a given (source rack,
// destination) pair uses one fixed path and results are reproducible
// regardless of execution order.
//
// The builder owns the switch devices and the route state. Hosts attach
// through AttachHost(), which wires the access link and installs the
// address on every switch: the owning leaf routes it to the access port,
// every spine routes it to the owning leaf's downlink, and every other
// leaf routes it into the uplink toward the address's spine. A leaf's
// program sees each route it is given (OrbitCache points its PRE clone
// group for the address the same way), so attach programs first.
//
// A spineless topology is one rack: the paper's §5.1 single-ToR testbed.
// Its lone leaf keeps the single switch's name, "tor".
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rmt/switch.h"
#include "sim/network.h"

namespace orbit::fabric {

struct TopologySpec {
  int num_racks = 2;
  int num_spines = 1;          // 0 only for a single rack
  rmt::AsicConfig asic;        // every leaf and spine uses the same ASIC
  sim::LinkConfig uplink;      // each leaf<->spine link
};

class FabricTopology {
 public:
  FabricTopology(sim::Simulator* sim, sim::Network* net,
                 const TopologySpec& spec);

  int num_racks() const { return spec_.num_racks; }
  int num_spines() const { return spec_.num_spines; }
  rmt::SwitchDevice& leaf(int r) { return *leaves_[static_cast<size_t>(r)]; }
  rmt::SwitchDevice& spine(int s) { return *spines_[static_cast<size_t>(s)]; }

  // Deterministic static route choice: all traffic toward `addr` crosses
  // this spine.
  int SpineFor(Addr addr) const {
    return static_cast<int>(addr % static_cast<Addr>(spec_.num_spines));
  }

  // Connects `host` to rack `rack`'s leaf and installs `addr`'s routes on
  // every leaf and spine. Returns the access-link attachment (port_a is the
  // host side, port_b the leaf side).
  sim::Network::Attachment AttachHost(sim::Node* host, Addr addr, int rack,
                                      const sim::LinkConfig& link);

  // The (rack, spine) uplink and its port numbers — fault injection brings
  // links down, the failover manager probes them and rewires next-hops.
  sim::Link* uplink(int rack, int spine) const {
    return uplinks_[static_cast<size_t>(rack)][static_cast<size_t>(spine)];
  }
  int leaf_uplink_port(int rack, int spine) const {
    return leaf_uplink_port_[static_cast<size_t>(rack)]
                            [static_cast<size_t>(spine)];
  }
  // Packets discarded at down uplinks (both directions, all uplinks): the
  // data lost to blackholes, spine crashes and partitions.
  uint64_t blackholed_packets() const;

  // Visits every attached host as (addr, owning rack), in address order —
  // deterministic, so route recomputation is reproducible.
  void ForEachHost(const std::function<void(Addr, int rack)>& fn) const;

 private:
  sim::Simulator* sim_;
  sim::Network* net_;
  TopologySpec spec_;
  std::vector<std::unique_ptr<rmt::SwitchDevice>> leaves_;
  std::vector<std::unique_ptr<rmt::SwitchDevice>> spines_;
  std::vector<std::vector<int>> leaf_uplink_port_;  // [rack][spine] on leaf
  std::vector<std::vector<int>> spine_down_port_;   // [spine][rack] on spine
  std::vector<std::vector<sim::Link*>> uplinks_;    // [rack][spine]
  std::unordered_map<Addr, int> host_rack_;  // attached addr -> rack
};

}  // namespace orbit::fabric
