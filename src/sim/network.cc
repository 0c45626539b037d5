#include "sim/network.h"

#include "common/check.h"
#include "common/hash.h"
#include "sim/node.h"

namespace orbit::sim {

Network::Attachment Network::Connect(Node* a, Node* b,
                                     const LinkConfig& config) {
  auto& ports_a = ports_[a];
  auto& ports_b = ports_[b];
  Attachment at;
  at.port_a = static_cast<int>(ports_a.size());
  at.port_b = static_cast<int>(ports_b.size());
  // Decorrelate loss across links: mix the link's creation index (a
  // deterministic identity — topologies are built in a fixed order) into
  // the configured seed so lossy links never drop the same-numbered
  // packets in lockstep. Lossless links never draw the RNG, so this is
  // byte-neutral when no loss model is enabled.
  LinkConfig cfg = config;
  cfg.loss_seed = Mix64(config.loss_seed ^ Mix64(links_.size() + 1));
  links_.push_back(
      std::make_unique<Link>(sim_, a, at.port_a, b, at.port_b, cfg));
  at.link = links_.back().get();
  ports_a.push_back(PortSlot{at.link, 0});
  ports_b.push_back(PortSlot{at.link, 1});
  return at;
}

void Network::Send(Node* node, int port, PacketPtr pkt, SimTime extra_delay) {
  auto it = ports_.find(node);
  ORBIT_CHECK_MSG(it != ports_.end(), "node has no ports: " << node->name());
  ORBIT_CHECK_MSG(port >= 0 && port < static_cast<int>(it->second.size()),
                  node->name() << " has no port " << port);
  const PortSlot& slot = it->second[static_cast<size_t>(port)];
  slot.link->Send(slot.end, std::move(pkt), extra_delay);
}

int Network::num_ports(Node* node) const {
  auto it = ports_.find(node);
  return it == ports_.end() ? 0 : static_cast<int>(it->second.size());
}

}  // namespace orbit::sim
