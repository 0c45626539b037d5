#include "sim/link.h"

#include <algorithm>

#include "common/check.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace orbit::sim {

const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueOverflow: return "queue_overflow";
    case DropReason::kInjectedLoss: return "injected_loss";
    case DropReason::kLinkDown: return "link_down";
  }
  return "?";
}

Link::Link(Simulator* sim, Node* a, int port_a, Node* b, int port_b,
           const LinkConfig& config)
    : sim_(sim), config_(config), loss_rng_(config.loss_seed) {
  ORBIT_CHECK(sim != nullptr && a != nullptr && b != nullptr);
  ORBIT_CHECK(config.rate_gbps > 0);
  chans_[0].to = b;
  chans_[0].to_port = port_b;
  chans_[0].lane = sim->NewLane();
  chans_[1].to = a;
  chans_[1].to_port = port_a;
  chans_[1].lane = sim->NewLane();
}

SimTime Link::TxTime(uint32_t bytes) const {
  // bytes * 8 bits / (gbps) = ns; round up so zero-length never happens.
  return std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(bytes) * 8.0 /
                              config_.rate_gbps));
}

bool Link::LossCoin() {
  // Each loss model draws only when enabled, so a link with no loss model
  // configured never touches the RNG and stays byte-identical regardless
  // of its seed.
  bool lost = false;
  if (config_.burst_loss.enabled()) {
    const GilbertElliottConfig& ge = config_.burst_loss;
    // Transition first, then draw loss in the (possibly new) state.
    const double p_flip = in_bad_state_ ? ge.p_exit_bad : ge.p_enter_bad;
    if (loss_rng_.Bernoulli(p_flip)) in_bad_state_ = !in_bad_state_;
    const double p_loss = in_bad_state_ ? ge.loss_bad : ge.loss_good;
    if (p_loss > 0 && loss_rng_.Bernoulli(p_loss)) lost = true;
  }
  if (!lost && config_.loss_rate > 0 &&
      loss_rng_.Bernoulli(config_.loss_rate)) {
    lost = true;
  }
  return lost;
}

void Link::StampDrop(const Channel& ch, const Packet& pkt,
                     DropReason reason) const {
  if (int_ == nullptr || pkt.int_id == 0) return;
  telemetry::IntHop hop;
  hop.at = sim_->now();
  hop.hop = ch.int_hop;
  hop.kind = telemetry::IntHopKind::kDrop;
  hop.recirc_count = pkt.recirc_count;
  hop.drop_reason = static_cast<uint8_t>(1 + static_cast<int>(reason));
  int_->Stamp(pkt.int_id, hop);
}

void Link::Send(int from, PacketPtr pkt, SimTime extra_delay) {
  ORBIT_CHECK(from == 0 || from == 1);
  Channel& ch = chans_[from];
  if (down_) {
    ++ch.stats.down_drops;
    MarkEnd(*pkt, PacketEnd::kDroppedLink);
    StampDrop(ch, *pkt, DropReason::kLinkDown);
    return;
  }
  // The per-direction degrade coin composes with the link-wide loss
  // models; each coin is drawn only while its model is active so that
  // enabling one never reshuffles the draws of the other.
  bool lost = LossCoin();
  if (!lost && ch.degrade_loss > 0 && loss_rng_.Bernoulli(ch.degrade_loss)) {
    lost = true;
  }
  if (lost) {
    ++ch.stats.lost;
    MarkEnd(*pkt, PacketEnd::kDroppedLink);
    StampDrop(ch, *pkt, DropReason::kInjectedLoss);
    return;
  }
  const uint32_t bytes = pkt->wire_bytes();
  const SimTime ready = sim_->now() + extra_delay;

  // Backlog is implied by how far busy_until runs ahead of the send time —
  // exactly the unserialized bytes sitting in the egress queue.
  const SimTime backlog_ns = std::max<SimTime>(0, ch.busy_until - ready);
  const uint64_t backlog_bytes = static_cast<uint64_t>(
      static_cast<double>(backlog_ns) * config_.rate_gbps / 8.0);
  if (backlog_bytes + bytes > config_.queue_limit_bytes) {
    ++ch.stats.drops;
    MarkEnd(*pkt, PacketEnd::kDroppedLink);
    StampDrop(ch, *pkt, DropReason::kQueueOverflow);
    return;  // drop-tail: packet ownership ends here
  }

  const SimTime start = std::max(ready, ch.busy_until);
  const SimTime done = start + TxTime(bytes);
  ch.busy_until = done;
  ch.stats.packets++;
  ch.stats.bytes += bytes;

  if (int_ != nullptr) {
    // Hop latency = queue wait + serialization + propagation, from the
    // moment the packet reaches the port; the sender's extra_delay is its
    // own processing, stamped by that hop.
    const SimTime hop_latency = (done - ready) + config_.propagation;
    if (int_latency_hist_ != nullptr) {
      ch.int_queue_hist->RecordFast(static_cast<int64_t>(backlog_bytes));
      int_latency_hist_->RecordFast(hop_latency);
    }
    if (pkt->int_id != 0) {
      telemetry::IntHop hop;
      hop.at = ready;
      hop.hop = ch.int_hop;
      hop.kind = telemetry::IntHopKind::kLink;
      hop.latency_ns = hop_latency;
      hop.queue_depth = static_cast<int64_t>(backlog_bytes);
      hop.recirc_count = pkt->recirc_count;
      int_->Stamp(pkt->int_id, hop);
    }
  }

  // The packet lands at the far end after propagation (plus any injected
  // gray-link latency for this direction).
  pkt->from_recirc = false;
  sim_->Deliver(done + config_.propagation + ch.degrade_latency, ch.to,
                ch.to_port, std::move(pkt), ch.lane);
}

void Link::SetDegrade(int from, double loss_rate, SimTime extra_latency) {
  ORBIT_CHECK(from == 0 || from == 1);
  ORBIT_CHECK(loss_rate >= 0 && loss_rate <= 1 && extra_latency >= 0);
  chans_[from].degrade_loss = loss_rate;
  chans_[from].degrade_latency = extra_latency;
}

}  // namespace orbit::sim
