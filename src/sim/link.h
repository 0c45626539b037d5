// Full-duplex point-to-point links.
//
// Each direction is a fluid-FIFO channel: a packet occupies the wire for
// wire_bytes * 8 / rate, queues behind earlier packets (drop-tail against a
// byte bound), then arrives after the propagation delay. This captures the
// three effects the experiments depend on — serialization time growing with
// item size, queueing at saturated ports, and bounded buffers — without
// simulating per-byte transmission.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "telemetry/int/int.h"

namespace orbit::sim {

class Node;
class Simulator;

// Why a packet died before reaching the wire.
enum class DropReason {
  kQueueOverflow,  // link egress queue full (drop-tail)
  kInjectedLoss,   // LinkConfig loss_rate / burst_loss coin
  kLinkDown,       // fault injection took the link down
};
const char* DropReasonName(DropReason reason);

// Two-state Gilbert–Elliott burst-loss model. The channel sits in a
// "good" or "bad" state; each packet first moves the state with the
// transition probabilities, then is dropped with the state's loss rate.
// Disabled (zero RNG draws) unless p_enter_bad > 0, so enabling the
// fields is the only way results can change.
struct GilbertElliottConfig {
  double p_enter_bad = 0.0;  // per-packet P(good -> bad); 0 disables
  double p_exit_bad = 0.1;   // per-packet P(bad -> good)
  double loss_good = 0.0;    // per-packet loss while good
  double loss_bad = 1.0;     // per-packet loss while bad
  bool enabled() const { return p_enter_bad > 0; }
};

struct LinkConfig {
  double rate_gbps = 100.0;
  SimTime propagation = 500;           // ns, one way
  uint32_t queue_limit_bytes = 512 * 1024;  // per direction
  // Failure injection: independent per-packet loss probability. The paper
  // handles loss with application-level timeouts (§3.9); tests use this to
  // exercise the controller's fetch retransmission and client timeouts.
  double loss_rate = 0.0;
  // Base seed for the loss RNG. Network::Connect mixes the link's creation
  // index into this so lossy links never drop the same-numbered packets in
  // lockstep; the RNG is only ever drawn when a loss model is enabled, so
  // lossless results are unaffected by the seed.
  uint64_t loss_seed = 1;
  // Bursty (correlated) loss; composes with loss_rate (either can drop).
  GilbertElliottConfig burst_loss;
};

struct ChannelStats {
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t drops = 0;       // queue overflow
  uint64_t lost = 0;        // injected loss (random / burst models)
  uint64_t down_drops = 0;  // discarded while the link was down
};

class Link {
 public:
  // Endpoint i = {node, port on that node}.
  Link(Simulator* sim, Node* a, int port_a, Node* b, int port_b,
       const LinkConfig& config);

  // Sends from endpoint `from` (0 = a, 1 = b) toward the opposite end.
  // `extra_delay` lets a sender account for local processing (e.g. the
  // switch pipeline traversal) before the packet reaches the port.
  void Send(int from, PacketPtr pkt, SimTime extra_delay = 0);

  const ChannelStats& stats(int from) const { return chans_[from].stats; }
  const LinkConfig& config() const { return config_; }

  // Endpoint node i (0 = a, 1 = b) as passed to the constructor; direction
  // `from` runs endpoint(from) -> endpoint(1 - from). Used by telemetry to
  // name per-link counters.
  Node* endpoint(int end) const { return chans_[1 - end].to; }

  // Fault injection: while down, every packet offered to either direction
  // is discarded (DropReason::kLinkDown) without touching the loss RNG, so
  // bringing a link down and back up never perturbs later loss draws.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Gray-link injection for one direction (`from` = 0 for a->b): every
  // packet sent that way is additionally dropped with `loss_rate` and, if
  // it survives, delivered `extra_latency` ns late. The loss coin is only
  // drawn while the degrade is active, so SetDegrade(from, 0, 0) restores
  // the link without perturbing the shared loss RNG for later draws.
  void SetDegrade(int from, double loss_rate, SimTime extra_latency);
  bool degraded(int from) const {
    return chans_[from].degrade_loss > 0 || chans_[from].degrade_latency > 0;
  }

  // INT attachment for direction `from` (0 = a->b, 1 = b->a): `hop` is
  // the interned per-direction hop name, `queue_hist` the always-on
  // queue-depth histogram, `latency_hist` the shared link hop-class
  // latency histogram. Observational only — Send's drop/queue decisions
  // are unchanged. See telemetry::AttachLinkInt for the naming policy.
  void AttachInt(telemetry::IntSink* sink, uint32_t latency_hist, int from,
                 uint32_t hop, uint32_t queue_hist) {
    int_ = sink;
    // Resolve histogram pointers once here: Send records per packet, so
    // it branches on one pointer instead of re-checking the sink's flag
    // and re-indexing its table every time.
    int_latency_hist_ = sink->MutableHist(latency_hist);
    chans_[from].int_hop = hop;
    chans_[from].int_queue_hist = sink->MutableHist(queue_hist);
  }

 private:
  struct Channel {
    Node* to = nullptr;
    int to_port = -1;
    SimTime busy_until = 0;
    // Arrivals come in send order, except after a degrade's extra latency
    // falls (they then go loose, see EventQueue).
    LaneId lane = kNoLane;
    ChannelStats stats;
    uint32_t int_hop = 0;  // interned hop name for this direction
    // Always-on queue-depth histogram; nullptr when histograms are off.
    stats::Histogram* int_queue_hist = nullptr;
    // Gray-link degrade state for this direction (see SetDegrade).
    double degrade_loss = 0.0;
    SimTime degrade_latency = 0;
  };

  SimTime TxTime(uint32_t bytes) const;
  bool LossCoin();
  void StampDrop(const Channel& ch, const Packet& pkt,
                 DropReason reason) const;

  Simulator* sim_;
  LinkConfig config_;
  std::array<Channel, 2> chans_;
  Rng loss_rng_;
  bool down_ = false;
  bool in_bad_state_ = false;
  telemetry::IntSink* int_ = nullptr;
  stats::Histogram* int_latency_hist_ = nullptr;
};

}  // namespace orbit::sim
