// Storage-server node: the paper's "shim layer" (§3.1) between OrbitCache
// messages and the key-value store, emulating one logical storage server
// (the testbed runs 8 such servers per physical node, each pinned to a
// core and rate-limited to 100K RPS so the servers are the bottleneck,
// §4/§5.1).
//
// Values are synthesized lazily on first access — the size comes from the
// workload's deterministic per-key size function — so 10M-key workloads
// don't require preloading gigabytes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/types.h"
#include "kv/kv_store.h"
#include "proto/message.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "workload/top_k.h"

namespace orbit::telemetry {
class FlightRecorder;
class IntSink;
class Registry;
}  // namespace orbit::telemetry

namespace orbit::verify {
class Verifier;
}  // namespace orbit::verify

namespace orbit::app {

struct ServerConfig {
  Addr addr = kInvalidAddr;
  uint8_t srv_id = 0;
  L4Port orbit_port = 5008;

  // Request service rate (the paper's Rx throughput limit). 0 disables the
  // limit; a fixed 2-microsecond processing time per request still applies.
  double service_rate_rps = 100'000;
  size_t rx_queue_limit = 256;  // bounded socket buffer (max ~2.6ms sojourn)

  // §3.10 multi-packet support: fragment values that exceed one packet.
  bool multi_packet = false;

  // Top-k popularity reporting to the controller (§3.8). Disabled when the
  // controller address is invalid.
  Addr controller_addr = kInvalidAddr;
  L4Port ctrl_port = 7000;
  SimTime report_period = 100 * kMillisecond;
  size_t report_k = 16;
};

class ServerNode : public sim::Node, public sim::TimerHandler {
 public:
  using ValueSizeFn = std::function<uint32_t(const Key&)>;

  ServerNode(sim::Simulator* sim, sim::Network* net, int port,
             const ServerConfig& config, ValueSizeFn value_size);

  // Starts the top-k report timer (call after wiring).
  void Start();

  void OnPacket(sim::PacketPtr pkt, int port) override;
  std::string name() const override {
    return "server-" + std::to_string(config_.srv_id);
  }
  // Timer demux: 0 = top-k report tick, otherwise the argument is the
  // released Packet* of a service completion.
  void OnTimer(uint64_t arg) override;

  struct Stats {
    uint64_t requests = 0;   // data requests accepted for processing
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t fetches = 0;
    uint64_t corrections = 0;
    uint64_t flushes = 0;    // write-back eviction flushes applied
    uint64_t dropped = 0;    // Rx queue overflow
    uint64_t replies = 0;
  };
  const Stats& stats() const { return stats_; }
  kv::KvStore& store() { return store_; }
  const ServerConfig& config() const { return config_; }
  // Requests currently admitted and riding completion timers; the
  // verification layer counts these as legitimately live packets.
  size_t queue_depth() const { return queue_depth_; }

  // Verification layer (src/verify/): observes every version the store
  // mints (writes and first-touch synthesis). Null disables.
  void SetVerifier(verify::Verifier* verifier) { verifier_ = verifier; }

  // Telemetry (optional): stamps srv_rx/srv_queue/srv_process hops (or a
  // drop at a full Rx queue) on sampled flows, whose replies inherit the
  // request's flow id, and owns the always-on queue-wait/service/value-size
  // histograms.
  void SetIntSink(telemetry::IntSink* sink);
  // Flight recorder: per-server ring noting rx/rx_drop/reply.
  void SetFlightRecorder(telemetry::FlightRecorder* recorder);
  // Registers `<prefix>.*` counters and a queue-depth gauge against `reg`.
  void RegisterTelemetry(telemetry::Registry& reg, const std::string& prefix);

 private:
  void Process(sim::PacketPtr pkt);
  // Sends scratch_ (the reply message Process() just filled) back to the
  // requester, fragmenting oversized values (§3.10).
  void Reply(const sim::Packet& req);
  void SendReport();
  kv::Value GetOrSynthesize(const Key& key);

  sim::Simulator* sim_;
  sim::Network* net_;
  int port_;
  ServerConfig config_;
  ValueSizeFn value_size_;

  kv::KvStore store_;
  // Built only when the server reports to a controller: a static run never
  // reads it, and its 5 x 2048 sketch is 80 KB per server.
  std::optional<wl::TopKTracker> top_k_;

  SimTime busy_until_ = 0;
  // Completions come due in admission order (busy_until_ never falls).
  sim::LaneId completion_lane_ = sim::kNoLane;
  size_t queue_depth_ = 0;
  // Reply-message scratch reused across requests so the key string keeps
  // its capacity (every case in Process() assigns every field it reads).
  proto::Message scratch_;

  telemetry::IntSink* int_ = nullptr;
  uint32_t int_hop_rx_ = 0;
  uint32_t int_hop_queue_ = 0;
  uint32_t int_hop_process_ = 0;
  uint32_t int_hist_queue_ = 0;
  uint32_t int_hist_process_ = 0;
  uint32_t int_hist_value_ = 0;
  telemetry::FlightRecorder* flight_ = nullptr;
  uint32_t flight_comp_ = 0;
  verify::Verifier* verifier_ = nullptr;  // not owned; null = no checks

  Stats stats_;
};

}  // namespace orbit::app
