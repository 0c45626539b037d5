// Multi-rack deployment walkthrough (paper §3.9).
//
// Two racks behind a spine, assembled with fabric::FabricTopology as the
// testbed assembles every run: each leaf (ToR) runs OrbitCache for its own
// rack's storage servers and the spine runs no program, so for any request
// path exactly one switch applies the cache logic. A rack-0 client reads
// items from both racks; the printout shows where each reply came from and
// what the extra spine hops cost.
//
//   ./build/examples/multi_rack
#include <cstdio>
#include <unordered_map>

#include "apps/server.h"
#include "fabric/topology.h"
#include "orbitcache/program.h"
#include "sim/network.h"
#include "sim/simulator.h"

using namespace orbit;

namespace {

constexpr L4Port kPort = 5008;
constexpr Addr kClientAddr = 1, kSrv0 = 101, kSrv1 = 201, kCtrl = 900;

class EchoClient : public sim::Node {
 public:
  explicit EchoClient(sim::Simulator* sim) : sim_(sim) {}
  void OnPacket(sim::PacketPtr pkt, int) override {
    auto it = sent_.find(pkt->msg.seq);
    if (it == sent_.end()) return;
    std::printf("  seq %-3u %-18s %7.2f us  %s\n", pkt->msg.seq,
                pkt->msg.key.c_str(),
                static_cast<double>(sim_->now() - it->second) / 1e3,
                pkt->msg.cached ? "[ToR cache]" : "[storage server]");
    sent_.erase(it);
  }
  std::string name() const override { return "client"; }
  void Note(uint32_t seq, SimTime at) { sent_[seq] = at; }

 private:
  sim::Simulator* sim_;
  std::unordered_map<uint32_t, SimTime> sent_;
};

}  // namespace

int main() {
  sim::Simulator sim;
  sim::Network net(&sim);
  fabric::TopologySpec spec;
  spec.num_racks = 2;
  spec.num_spines = 1;
  fabric::FabricTopology topo(&sim, &net, spec);
  oc::OrbitConfig ocfg;
  ocfg.capacity = 8;
  oc::OrbitProgram prog0(&topo.leaf(0), ocfg), prog1(&topo.leaf(1), ocfg);
  topo.leaf(0).SetProgram(&prog0);
  topo.leaf(1).SetProgram(&prog1);

  EchoClient client(&sim);
  EchoClient ctrl(&sim);  // fetch-ack sink
  app::ServerConfig s0cfg;
  s0cfg.addr = kSrv0;
  s0cfg.srv_id = 0;
  s0cfg.service_rate_rps = 0;
  app::ServerNode srv0(&sim, &net, 0, s0cfg, [](const Key&) { return 512u; });
  app::ServerConfig s1cfg = s0cfg;
  s1cfg.addr = kSrv1;
  s1cfg.srv_id = 1;
  app::ServerNode srv1(&sim, &net, 0, s1cfg, [](const Key&) { return 512u; });

  // AttachHost wires each access link and installs the host's route on
  // every leaf and spine. Each leaf's program points the host's clone
  // group along that route, so cache packets fork toward the client and
  // the controller through the access port on leaf 0 and through the
  // uplink on leaf 1.
  topo.AttachHost(&client, kClientAddr, 0, sim::LinkConfig{});
  topo.AttachHost(&srv0, kSrv0, 0, sim::LinkConfig{});
  topo.AttachHost(&srv1, kSrv1, 1, sim::LinkConfig{});
  topo.AttachHost(&ctrl, kCtrl, 0, sim::LinkConfig{});

  const Key local_hot = "rack0-hot-000000";
  const Key remote_hot = "rack1-hot-000000";
  const Key remote_cold = "rack1-cold-00000";

  auto fetch = [&](oc::OrbitProgram& prog, const Key& key, Addr server) {
    prog.InsertEntry(HashKey128(key), 0);
    proto::Message msg;
    msg.op = proto::Op::kFetchReq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net.Send(&ctrl, 0,
             sim::MakePacket(kCtrl, server, kPort, kPort, std::move(msg)));
  };
  auto read = [&](const Key& key, uint32_t seq, Addr server) {
    client.Note(seq, sim.now());
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net.Send(&client, 0,
             sim::MakePacket(kClientAddr, server, 9000, kPort,
                             std::move(msg)));
    sim.RunUntil(sim.now() + 300 * kMicrosecond);
  };

  std::printf("caching '%s' at leaf0 and '%s' at leaf1…\n\n",
              local_hot.c_str(), remote_hot.c_str());
  fetch(prog0, local_hot, kSrv0);
  fetch(prog1, remote_hot, kSrv1);
  sim.RunUntil(300 * kMicrosecond);

  std::printf("reads from the rack-0 client:\n");
  read(local_hot, 1, kSrv0);    // one hop: leaf0 serves
  read(remote_hot, 2, kSrv1);   // three hops: leaf1 serves across the spine
  read(remote_cold, 3, kSrv1);  // full path to the rack-1 server
  read(local_hot, 4, kSrv0);

  std::printf("\ncache packets in flight: leaf0=%lld leaf1=%lld (one per "
              "rack — each ToR caches only its own rack's items)\n",
              static_cast<long long>(topo.leaf(0).stats().recirc_in_flight),
              static_cast<long long>(topo.leaf(1).stats().recirc_in_flight));
  return 0;
}
