// Packet-level walkthrough of OrbitCache's client-side collision
// resolution (paper §3.6/§3.8, Fig. 7).
//
// Scenario: a read for key X is buffered in the request table just as the
// controller replaces the cache entry — new key Y inherits X's CacheIdx
// (§3.8). Y's cache packet answers X's buffered request, so the client
// receives Y's key-value pair for a request about X, detects the mismatch
// by comparing keys, and issues a correction request (CRN-REQ) that
// bypasses the cache and fetches X's true value from the storage server.
//
//   ./build/examples/collision_walkthrough
#include <cstdio>
#include <unordered_map>

#include "apps/server.h"
#include "orbitcache/program.h"
#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"

using namespace orbit;

namespace {

constexpr L4Port kPort = 5008;
constexpr Addr kClient = 1, kServer = 2, kController = 3;

// A bare-bones client that prints every packet it receives and performs
// the §3.6 correction step, so each protocol action is visible.
class TracingClient : public sim::Node {
 public:
  TracingClient(sim::Simulator* sim, sim::Network* net) : sim_(sim), net_(net) {}

  void Expect(uint32_t seq, const Key& key) { pending_[seq] = key; }

  void SendRead(const Key& key, uint32_t seq) {
    std::printf("[%6.1fus] client : R-REQ seq=%u key=%s\n", Us(), seq,
                key.c_str());
    Expect(seq, key);
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net_->Send(this, 0, sim::MakePacket(kClient, kServer, 9000, kPort,
                                        std::move(msg)));
  }

  void OnPacket(sim::PacketPtr pkt, int) override {
    const proto::Message& msg = pkt->msg;
    std::printf("[%6.1fus] client : %s seq=%u key=%s (%uB value)%s\n", Us(),
                proto::OpName(msg.op), msg.seq, msg.key.c_str(),
                msg.value.size(), msg.cached ? " [served by switch]" : "");
    auto it = pending_.find(msg.seq);
    if (it == pending_.end()) return;
    const Key wanted = it->second;
    pending_.erase(it);
    if (msg.key != wanted) {
      std::printf("[%6.1fus] client : KEY MISMATCH — wanted %s, got %s; "
                  "sending CRN-REQ\n",
                  Us(), wanted.c_str(), msg.key.c_str());
      proto::Message fix;
      fix.op = proto::Op::kCorrectionReq;
      fix.seq = msg.seq + 1000;
      fix.hkey = HashKey128(wanted);
      fix.key = wanted;
      Expect(fix.seq, wanted);
      net_->Send(this, 0, sim::MakePacket(kClient, kServer, 9000, kPort,
                                          std::move(fix)));
    } else {
      std::printf("[%6.1fus] client : correct value for %s ✓\n", Us(),
                  wanted.c_str());
    }
  }
  std::string name() const override { return "client"; }

 private:
  double Us() const { return static_cast<double>(sim_->now()) / 1e3; }
  sim::Simulator* sim_;
  sim::Network* net_;
  std::unordered_map<uint32_t, Key> pending_;
};

void Fetch(sim::Network& net, sim::Node* from, oc::OrbitProgram& program,
           uint32_t idx, const Key& key) {
  proto::Message fetch;
  fetch.op = proto::Op::kFetchReq;
  fetch.hkey = HashKey128(key);
  fetch.key = key;
  fetch.epoch = program.EpochOf(idx);
  net.Send(from, 0, sim::MakePacket(kController, kServer, kPort, kPort,
                                    std::move(fetch)));
}

}  // namespace

int main() {
  sim::Simulator sim;
  sim::Network net(&sim);
  rmt::SwitchDevice sw(&sim, &net, "tor", rmt::AsicConfig{});
  oc::OrbitConfig ocfg;
  ocfg.capacity = 16;
  oc::OrbitProgram program(&sw, ocfg);
  sw.SetProgram(&program);

  TracingClient client(&sim, &net);
  app::ServerConfig scfg;
  scfg.addr = kServer;
  scfg.service_rate_rps = 0;  // unthrottled for the walkthrough
  app::ServerNode server(&sim, &net, 0, scfg, [](const Key&) { return 64u; });
  // A silent stand-in node receiving the controller-bound fetch acks.
  TracingClient controller_stub(&sim, &net);

  auto c = net.Connect(&client, &sw, sim::LinkConfig{});
  auto s = net.Connect(&server, &sw, sim::LinkConfig{});
  auto k = net.Connect(&controller_stub, &sw, sim::LinkConfig{});
  // Each route also points the address's PRE clone group at its port.
  sw.AddRoute(kClient, c.port_b);
  sw.AddRoute(kServer, s.port_b);
  sw.AddRoute(kController, k.port_b);

  const Key x = "key-X-00000000", y = "key-Y-00000000";
  const uint32_t idx = 0;

  std::printf("--- step 1: cache X at CacheIdx 0 and fetch its value\n");
  program.InsertEntry(HashKey128(x), idx);
  Fetch(net, &controller_stub, program, idx, x);
  sim.RunUntil(100 * kMicrosecond);

  std::printf("\n--- step 2: a read for X is served by X's circulating "
              "cache packet\n");
  client.SendRead(x, 1);
  sim.RunUntil(200 * kMicrosecond);

  std::printf("\n--- step 3: cache update — Y inherits X's CacheIdx while a "
              "read for X is still buffered in the request table\n");
  // Plant the request metadata exactly as a just-absorbed read would have
  // left it (the §3.8 race window), then perform the replacement.
  client.Expect(7, x);
  program.request_table().TryEnqueue(idx, {kClient, 9000, 7, sim.now()});
  program.EraseEntry(HashKey128(x));
  program.InsertEntry(HashKey128(y), idx);
  Fetch(net, &controller_stub, program, idx, y);
  sim.RunUntil(400 * kMicrosecond);

  std::printf("\nswitch stats: served_by_cache=%llu corrections_forwarded=%llu "
              "cp_drop_evicted=%llu\n",
              static_cast<unsigned long long>(program.stats().served_by_cache),
              static_cast<unsigned long long>(
                  program.stats().corrections_forwarded),
              static_cast<unsigned long long>(
                  program.stats().cp_drop_evicted));
  return 0;
}
