// Open-loop client node (paper §4).
//
// Generates requests with exponential inter-arrival gaps at a configured
// rate, independent of replies (open loop), and implements the client-side
// responsibilities of the OrbitCache protocol:
//   * stamping OP / SEQ / HKEY on every request,
//   * keeping the per-request pending list indexed by SEQ,
//   * hash-collision resolution (§3.6): when a reply's key differs from
//     the requested key, send a CRN-REQ so the storage server supplies the
//     correct value, and
//   * latency measurement, with switch- vs server-handled attribution via
//     the prototype's Cached/Latency header fields.
//
// It also performs stale-read detection for the coherence test suite: the
// server assigns monotonically increasing per-key versions, so a read
// reply carrying a version lower than one this client has already
// observed (read or acked write) is a coherence violation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "stats/histogram.h"

namespace orbit::telemetry {
class FlightRecorder;
class IntSink;
class Registry;
}  // namespace orbit::telemetry

namespace orbit::verify {
class Verifier;
}  // namespace orbit::verify

namespace orbit::app {

// What a client asks for next; implemented by the testbed's workload model.
class WorkloadSource {
 public:
  struct Request {
    Key key;
    Hash128 hkey;
    Addr server = kInvalidAddr;
    bool is_write = false;
    uint32_t value_size = 0;  // for writes
  };

  virtual ~WorkloadSource() = default;
  virtual Request Next(Rng& rng) = 0;
};

struct ClientConfig {
  Addr addr = kInvalidAddr;
  L4Port orbit_port = 5008;
  L4Port src_port = 9000;
  double rate_rps = 100'000;  // this client's open-loop Tx rate
  // Every request arms its own deadline event at send time, so the
  // effective timeout is exact (no sweep quantization). When the deadline
  // fires the request is retransmitted with the same SEQ — at-most-once
  // accounting: a late original reply completes the request and the
  // duplicate lands in stray_replies — until the retry budget is spent,
  // doubling the timeout on every attempt (exponential backoff, §3.9).
  SimTime request_timeout = 20 * kMillisecond;
  int max_retries = 0;  // 0 = timeouts only, no retransmission
  uint64_t seed = 1;
  // Cap on the per-key version map behind the stale-read check. Long runs
  // over huge keyspaces would otherwise grow it without bound; keys past
  // the cap are simply not staleness-tracked (detection stays exact for the
  // first staleness_max_keys distinct keys, which covers every hot key).
  size_t staleness_max_keys = size_t{1} << 20;
};

class ClientNode : public sim::Node, public sim::TimerHandler {
 public:
  ClientNode(sim::Simulator* sim, sim::Network* net, int port,
             const ClientConfig& config,
             std::shared_ptr<WorkloadSource> workload);

  void Start();
  // Stops generating traffic and retires every in-flight request into
  // stats().inflight_at_stop (they are neither replies nor timeouts — the
  // run ended while they were on the wire).
  void Stop();

  void OnPacket(sim::PacketPtr pkt, int port) override;
  std::string name() const override { return "client"; }
  // Timer demux: the Tx-tick sentinel or a packed (seq, attempt) deadline.
  void OnTimer(uint64_t arg) override;

  // The measurement window gates the latency histograms: OpenWindow clears
  // them and starts recording (the testbed calls it after warmup),
  // CloseWindow stops.
  void OpenWindow();
  void CloseWindow();

  // Telemetry (optional): the client is where request lifecycles start.
  // It decides which requests are sampled, opens each flow and stamps
  // client_tx (again, detailed "retransmit", per retransmission), and
  // stamps client_rx and closes the flow with the request's outcome. It
  // also owns the always-on end-to-end RTT histogram.
  void SetIntSink(telemetry::IntSink* sink);
  // Flight recorder: per-client ring noting tx/rx/retransmit/timeout.
  void SetFlightRecorder(telemetry::FlightRecorder* recorder);
  // Registers `<prefix>.*` counters (tx/rx/timeouts/…) against `reg`.
  void RegisterTelemetry(telemetry::Registry& reg, const std::string& prefix);

  // Verification layer (src/verify/): mirrors every send/accept/drop into
  // the shadow oracle. Null disables; observational only.
  void SetVerifier(verify::Verifier* verifier) { verifier_ = verifier; }

  // Tests: start SEQ allocation at an arbitrary point (e.g. near the
  // 32-bit wrap) and inspect the staleness map's footprint.
  void set_next_seq_for_test(uint32_t seq) { next_seq_ = seq; }
  size_t staleness_tracked_keys() const { return last_version_.size(); }

  struct Stats {
    uint64_t tx_requests = 0;
    uint64_t rx_replies = 0;
    uint64_t reads_sent = 0;
    uint64_t writes_sent = 0;
    uint64_t collisions = 0;   // CRN-REQs triggered
    uint64_t timeouts = 0;     // retry budget exhausted, request given up
    uint64_t retransmissions = 0;
    // Timeouts where a retry budget existed and was fully spent
    // (max_retries > 0). Distinguishes "gave up after retrying" from the
    // timeout-only configs where every deadline expiry is a timeout; any
    // fault-free run must keep this at zero.
    uint64_t retries_exhausted = 0;
    uint64_t inflight_at_stop = 0;  // pending when Stop() was called
    uint64_t stray_replies = 0;
    uint64_t stale_reads = 0;  // coherence violations observed
    uint64_t duplicate_frags = 0;
  };
  const Stats& stats() const { return stats_; }

  // Latency of read replies served by the switch cache vs by servers, plus
  // write latency and switch-resident time (the header Latency field).
  const stats::Histogram& cached_read_latency() const { return lat_cached_; }
  const stats::Histogram& server_read_latency() const { return lat_server_; }
  const stats::Histogram& write_latency() const { return lat_write_; }
  const stats::Histogram& switch_resident() const { return lat_switch_; }

 private:
  struct Pending {
    Key key;
    Hash128 hkey;
    SimTime sent_at = 0;       // first send — latency is measured from here
    bool is_write = false;
    bool is_correction = false;
    Addr server = kInvalidAddr;
    uint32_t value_size = 0;   // for retransmitting writes
    int attempt = 0;           // retransmissions so far
    // Reassembly bitmap over frag_index (proto caps frag_total at 255).
    std::array<uint64_t, 4> frag_bitmap{};
    uint32_t frags_received = 0;
    uint32_t int_id = 0;       // non-zero when this request is sampled
  };

  // Timer argument encoding: the Tx tick uses a sentinel no deadline can
  // produce (attempt is bounded by max_retries << 2^32), deadlines pack
  // (seq, attempt) into one word.
  static constexpr uint64_t kTickArg = ~uint64_t{0};
  static constexpr uint64_t DeadlineArg(uint32_t seq, int attempt) {
    return (uint64_t{seq} << 32) | static_cast<uint32_t>(attempt);
  }

  void SendNext();
  // `inherited_int_id` keeps a correction retry on its original flow.
  void SendRequest(const WorkloadSource::Request& req, bool correction,
                   SimTime original_sent_at, uint32_t inherited_int_id = 0);
  // Puts (or re-puts) the request for `seq` on the wire.
  void Transmit(uint32_t seq, const Pending& pending);
  // Schedules the deadline for the given attempt; a reply simply erases
  // the pending entry and lets the event fire into nothing.
  void ArmDeadline(uint32_t seq, int attempt);
  void OnDeadline(uint32_t seq, int attempt);
  SimTime TimeoutFor(int attempt) const;
  void HandleReply(const sim::Packet& pkt);
  void RecordLatency(const sim::Packet& pkt, const Pending& pending);

  sim::Simulator* sim_;
  sim::Network* net_;
  int port_;
  ClientConfig config_;
  std::shared_ptr<WorkloadSource> workload_;
  Rng rng_;

  bool running_ = false;
  uint32_t next_seq_ = 1;
  std::unordered_map<uint32_t, Pending> pending_;
  // One event lane per attempt level, made on first use: deadlines of one
  // level share one timeout, so they come due in the order they are armed.
  std::vector<sim::LaneId> deadline_lanes_;
  std::unordered_map<Key, uint64_t> last_version_;  // staleness tracking

  stats::Histogram lat_cached_;
  stats::Histogram lat_server_;
  stats::Histogram lat_write_;
  stats::Histogram lat_switch_;
  bool window_open_ = false;

  telemetry::IntSink* int_ = nullptr;
  uint32_t int_hop_tx_ = 0;
  uint32_t int_hop_rx_ = 0;
  uint32_t int_hist_rtt_ = 0;
  telemetry::FlightRecorder* flight_ = nullptr;
  uint32_t flight_comp_ = 0;
  verify::Verifier* verifier_ = nullptr;  // not owned; null = no checks

  Stats stats_;
};

}  // namespace orbit::app
