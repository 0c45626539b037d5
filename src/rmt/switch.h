// The programmable switch device.
//
// Models one RMT pipeline: packets arriving on any port are gated through
// a per-packet pipeline slot (the ASIC's packets-per-second ceiling), the
// attached SwitchProgram runs the match-action logic and picks an action
// (with no program, or in bypass, the packet goes by its L3 route), and
// egress happens after the pipeline traversal latency. Two special
// facilities mirror the hardware features OrbitCache is built on:
//
//  * the PRE executes multicast actions by descriptor-cloning packets, and
//  * a single internal recirculation port with finite bandwidth and a
//    bounded FIFO loops packets back into ingress (paper §2.2: one recirc
//    port per pipeline vs. tens of front ports).
//
// Register state mutated by the program is applied in packet arrival
// order, matching per-stage atomicity on real RMT hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "rmt/pre.h"
#include "rmt/resources.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "telemetry/int/int.h"

namespace orbit::telemetry {
class FlightRecorder;
class Registry;
}  // namespace orbit::telemetry

namespace orbit::rmt {

struct IngressResult {
  enum class Action {
    kForwardAddr,  // unicast via the L3 route table
    kDrop,
    kMulticast,    // hand to the PRE with a group id
    kRecirculate,  // unicast to the internal recirculation port
  };

  Action action = Action::kDrop;
  Addr addr = kInvalidAddr;
  int mcast_group = 0;

  static IngressResult ToAddr(Addr a) {
    return {Action::kForwardAddr, a, 0};
  }
  static IngressResult Drop() { return {}; }
  static IngressResult Multicast(int group) {
    return {Action::kMulticast, kInvalidAddr, group};
  }
  static IngressResult Recirculate() {
    return {Action::kRecirculate, kInvalidAddr, 0};
  }
};

class SwitchDevice;

// A data-plane program (the P4 analogue): cache logic and nothing else.
// The hosting SwitchDevice owns L3 forwarding, pipeline pacing, degraded
// mode, the reboot barrier and observer hookup, and calls the hooks below;
// a device with no program forwards every packet by its route (the paper's
// NoCache baseline, and every spine). Implementations declare their
// tables/registers against the device's Resources ledger at attach time.
class SwitchProgram {
 public:
  virtual ~SwitchProgram() = default;
  virtual IngressResult Ingress(sim::Packet& pkt, SwitchDevice& sw) = 0;

 private:
  friend class SwitchDevice;
  // AddRoute just installed or repointed `addr`'s route on front `port`.
  virtual void OnRoute(Addr /*addr*/, int /*port*/) {}
  // ASIC reboot (SwitchDevice::ResetDataPlane), called after the device
  // flushed its recirculation loop: wipe all data-plane state.
  virtual void ResetDataPlane() {}
  // SetIntSink: intern program-level always-on histograms (orbit count per
  // cached key, served value sizes).
  virtual void OnIntAttached(telemetry::IntSink& /*sink*/) {}
  // RegisterTelemetry: register program counters under the device's
  // prefix, after the device's own.
  virtual void RegisterTelemetry(telemetry::Registry& /*reg*/,
                                 const std::string& /*prefix*/) {}
};

class SwitchDevice : public sim::Node {
 public:
  // Ingress port number seen by packets re-entering via recirculation.
  static constexpr int kRecircPort = -2;

  SwitchDevice(sim::Simulator* sim, sim::Network* net, std::string name,
               const AsicConfig& config);

  // The program must outlive the device. May only be set once; attach it
  // before adding routes so it sees every OnRoute.
  void SetProgram(SwitchProgram* program);

  Resources& resources() { return resources_; }
  Pre& pre() { return pre_; }
  sim::Simulator& sim() { return *sim_; }

  // Control-plane route programming (dst address → front port). The
  // program sees every install and repoint (SwitchProgram::OnRoute).
  void AddRoute(Addr addr, int port);
  // Returns the port for `addr`, or -1 when unrouted.
  int RouteOf(Addr addr) const;

  // Degraded mode (a crashed fabric leaf, paper §3.9): while set, every
  // packet is forwarded by route as if no program were attached, and
  // counted in Stats::bypass_forwarded. Reset the data plane when entering
  // bypass so no cache packet outlives the crash.
  void set_bypass(bool on) { bypass_ = on; }

  // ASIC reboot: every packet looping through the recirculation port is
  // lost (they live in switch buffers), then the program wipes its data
  // plane. Routes and PRE groups survive, as they would be restored from
  // switch configuration.
  void ResetDataPlane();

  void OnPacket(sim::PacketPtr pkt, int port) override;
  std::string name() const override { return name_; }

  // Fabric liveness probing (see fabric/failover.h). A kProbe arriving on
  // any front port is turned around as a kProbeAck out the same port; a
  // kProbeAck is consumed and handed to the registered handler (the
  // failover manager acting as this switch's CPU). Both ride the CPU path:
  // no program dispatch, no pipeline slot — but they do share link
  // bandwidth, which is why probing is opt-in per run.
  void set_probe_ack_handler(std::function<void(int port)> handler) {
    probe_ack_handler_ = std::move(handler);
  }

  struct Stats {
    uint64_t rx_packets = 0;
    uint64_t tx_packets = 0;
    uint64_t dropped_by_program = 0;
    uint64_t dropped_unrouted = 0;
    uint64_t bypass_forwarded = 0;    // forwarded by route while bypassed
    uint64_t recirc_packets = 0;      // total recirculation passes
    uint64_t recirc_drops = 0;        // recirc FIFO overflow
    uint64_t recirc_flushed = 0;      // packets lost to a reboot barrier
    int64_t recirc_in_flight = 0;     // gauge: packets currently orbiting
    uint64_t recirc_bytes = 0;        // bytes serialized through the loop
    uint64_t recirc_busy_ns = 0;      // time the recirc port spent sending
  };
  const Stats& stats() const { return stats_; }

  // --- Telemetry (optional; near-zero cost when unset) ---------------------
  // Registers switch.* counters and gauges against `reg`, then the
  // program's. Reads existing Stats fields; nothing is consumed from the
  // Resources ledger. `prefix` scopes the names for multi-switch runs (e.g.
  // "leaf0." -> counters like "leaf0.switch.rx_packets"); the default keeps
  // single-switch names.
  void RegisterTelemetry(telemetry::Registry& reg,
                         const std::string& prefix = "");
  // INT attachment: interns this device's hop names (<name>.pipeline,
  // .recirc, .program, .cache_wait) and the shared hop-class latency
  // histograms, then forwards to the program's OnIntAttached. Call after
  // SetProgram.
  void SetIntSink(telemetry::IntSink* sink);
  telemetry::IntSink* int_sink() const { return int_; }
  // Program-level stamps on a sampled packet's flow (no-op for unsampled
  // packets): Note records a decision instant such as "lookup_miss" or
  // "lookup_hit:absorb" (`detail` must be a string literal); NoteCacheWait
  // records the span an absorbed request waited in the request table,
  // from `enqueued_at` until the cache packet serving it passes now.
  void Note(const sim::Packet& pkt, const char* detail) {
    if (int_ != nullptr && pkt.int_id != 0)
      StampProgram(pkt, telemetry::IntHopKind::kProgram, sim_->now(), detail);
  }
  void NoteCacheWait(const sim::Packet& pkt, SimTime enqueued_at) {
    if (int_ != nullptr && pkt.int_id != 0)
      StampProgram(pkt, telemetry::IntHopKind::kCacheWait, enqueued_at,
                   nullptr);
  }
  // Flight recorder: one ring per device noting every ingress decision.
  void SetFlightRecorder(telemetry::FlightRecorder* recorder);

 private:
  void FlushRecirculation();
  void Apply(const IngressResult& result, sim::PacketPtr pkt,
             SimTime pipe_delay);
  void SendOut(int port, sim::PacketPtr pkt, SimTime pipe_delay);
  void Recirculate(sim::PacketPtr pkt, SimTime pipe_delay);
  // Stamps a program hop spanning [since, now) on pkt's flow.
  void StampProgram(const sim::Packet& pkt, telemetry::IntHopKind kind,
                    SimTime since, const char* detail);

  sim::Simulator* sim_;
  sim::Network* net_;
  std::string name_;
  Resources resources_;
  Pre pre_;
  SwitchProgram* program_ = nullptr;
  bool bypass_ = false;

  std::unordered_map<Addr, int> routes_;
  std::function<void(int port)> probe_ack_handler_;

  // Pipeline pacing.
  SimTime pipe_next_free_ = 0;

  // Recirculation channel state (single internal port). Passes come back
  // in the order they were sent, except after a flush zeroes the busy
  // horizon (they then go loose, see sim::EventQueue).
  SimTime recirc_busy_until_ = 0;
  uint32_t recirc_generation_ = 0;
  sim::LaneId recirc_lane_ = sim::kNoLane;

  // Telemetry sinks (not owned; may be null).
  telemetry::IntSink* int_ = nullptr;
  uint32_t int_hop_pipe_ = 0;
  uint32_t int_hop_recirc_ = 0;
  uint32_t int_hop_program_ = 0;
  uint32_t int_hop_cache_wait_ = 0;
  uint32_t int_hist_pipe_ = 0;
  uint32_t int_hist_recirc_ = 0;
  telemetry::FlightRecorder* flight_ = nullptr;
  uint32_t flight_comp_ = 0;

  Stats stats_;
};

}  // namespace orbit::rmt
