// Topology wiring: owns links, assigns ports, and gives nodes a uniform
// "send on my port N" interface.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/link.h"

namespace orbit::sim {

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}

  struct Attachment {
    int port_a = -1;  // port index assigned on node a
    int port_b = -1;  // port index assigned on node b
    Link* link = nullptr;
  };

  // Creates a link between a and b, assigning the next free port index on
  // each side.
  Attachment Connect(Node* a, Node* b, const LinkConfig& config);

  // Sends `pkt` out of `node`'s port `port`. `extra_delay` models local
  // processing before the packet reaches the wire.
  void Send(Node* node, int port, PacketPtr pkt, SimTime extra_delay = 0);

  int num_ports(Node* node) const;

  // Link enumeration, in creation order (telemetry names per-link counters
  // by this index, which is stable for a deterministic build order).
  size_t num_links() const { return links_.size(); }
  const Link* link(size_t i) const { return links_[i].get(); }
  // Non-const access for attach-time instrumentation (INT hop ids).
  Link* mutable_link(size_t i) { return links_[i].get(); }

 private:
  struct PortSlot {
    Link* link = nullptr;
    int end = -1;  // which link endpoint this node is
  };

  Simulator* sim_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<Node*, std::vector<PortSlot>> ports_;
};

}  // namespace orbit::sim
