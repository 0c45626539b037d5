#include "rmt/switch.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"
#include "telemetry/int/int.h"

namespace orbit::rmt {

namespace {

// Tofino-1-class timing (DESIGN.md §5).
constexpr double kPipelineLatencyNs = 400;  // ingress+egress traversal
constexpr double kPacketSlotNs = 1.25;      // ~800 Mpps per pipe
constexpr double kRecircLoopNs = 100.0;     // loopback turnaround
constexpr uint32_t kRecircQueueBytes = 2 * 1024 * 1024;

const char* ActionName(IngressResult::Action action) {
  using Action = IngressResult::Action;
  switch (action) {
    case Action::kForwardAddr: return "forward_addr";
    case Action::kDrop: return "drop";
    case Action::kMulticast: return "multicast";
    case Action::kRecirculate: return "recirculate";
  }
  return "?";
}
}  // namespace

SwitchDevice::SwitchDevice(sim::Simulator* sim, sim::Network* net,
                           std::string name, const AsicConfig& config)
    : sim_(sim), net_(net), name_(std::move(name)), resources_(config) {
  ORBIT_CHECK(sim != nullptr && net != nullptr);
  recirc_lane_ = sim->NewLane();
}

void SwitchDevice::SetProgram(SwitchProgram* program) {
  ORBIT_CHECK_MSG(program_ == nullptr, "program already attached");
  ORBIT_CHECK(program != nullptr);
  program_ = program;
}

void SwitchDevice::AddRoute(Addr addr, int port) {
  routes_[addr] = port;
  if (program_ != nullptr) program_->OnRoute(addr, port);
}

void SwitchDevice::ResetDataPlane() {
  FlushRecirculation();
  if (program_ != nullptr) program_->ResetDataPlane();
}

void SwitchDevice::SetIntSink(telemetry::IntSink* sink) {
  int_ = sink;
  if (int_ == nullptr) return;
  int_hop_pipe_ = int_->Hop(name_ + ".pipeline");
  int_hop_recirc_ = int_->Hop(name_ + ".recirc");
  int_hop_program_ = int_->Hop(name_ + ".program");
  int_hop_cache_wait_ = int_->Hop(name_ + ".cache_wait");
  int_hist_pipe_ = int_->Hist("hop.pipeline.ns", "ns");
  int_hist_recirc_ = int_->Hist("hop.recirc.ns", "ns");
  if (program_ != nullptr) program_->OnIntAttached(*int_);
}

void SwitchDevice::StampProgram(const sim::Packet& pkt,
                                telemetry::IntHopKind kind, SimTime since,
                                const char* detail) {
  telemetry::IntHop hop;
  hop.at = since;
  hop.hop = kind == telemetry::IntHopKind::kCacheWait ? int_hop_cache_wait_
                                                       : int_hop_program_;
  hop.kind = kind;
  hop.latency_ns = sim_->now() - since;
  hop.recirc_count = pkt.recirc_count;
  hop.detail = detail;
  int_->Stamp(pkt.int_id, hop);
}

void SwitchDevice::SetFlightRecorder(telemetry::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr) flight_comp_ = flight_->Component(name_);
}

void SwitchDevice::RegisterTelemetry(telemetry::Registry& reg,
                                     const std::string& prefix) {
  const std::string who =
      "SwitchDevice::RegisterTelemetry(" + name_ + ", prefix='" + prefix + "')";
  reg.AddCounter(prefix + "switch.rx_packets",
                 [this] { return stats_.rx_packets; }, who);
  reg.AddCounter(prefix + "switch.tx_packets",
                 [this] { return stats_.tx_packets; }, who);
  reg.AddCounter(prefix + "switch.bypass_forwarded",
                 [this] { return stats_.bypass_forwarded; }, who);
  reg.AddCounter(prefix + "switch.drop.program",
                 [this] { return stats_.dropped_by_program; }, who);
  reg.AddCounter(prefix + "switch.drop.unrouted",
                 [this] { return stats_.dropped_unrouted; }, who);
  reg.AddCounter(prefix + "switch.drop.recirc_overflow",
                 [this] { return stats_.recirc_drops; }, who);
  reg.AddCounter(prefix + "switch.recirc.passes",
                 [this] { return stats_.recirc_packets; }, who);
  reg.AddCounter(prefix + "switch.recirc.flushed",
                 [this] { return stats_.recirc_flushed; }, who);
  reg.AddCounter(prefix + "switch.recirc.bytes",
                 [this] { return stats_.recirc_bytes; }, who);
  reg.AddCounter(prefix + "switch.recirc.busy_ns",
                 [this] { return stats_.recirc_busy_ns; }, who);
  reg.AddCounter(prefix + "switch.pre.clones",
                 [this] { return pre_.clones_made(); }, who);
  reg.AddGauge(prefix + "switch.recirc.in_flight", [this] {
    return static_cast<uint64_t>(std::max<int64_t>(0, stats_.recirc_in_flight));
  }, who);
  // Depth of the recirc FIFO expressed as nanoseconds of work queued ahead
  // of "now" — the same horizon the admission check measures against.
  reg.AddGauge(prefix + "switch.recirc.queue_ns", [this] {
    return static_cast<uint64_t>(
        std::max<SimTime>(0, recirc_busy_until_ - sim_->now()));
  }, who);
  if (program_ != nullptr) program_->RegisterTelemetry(reg, prefix);
}

void SwitchDevice::FlushRecirculation() {
  ++recirc_generation_;
  stats_.recirc_in_flight = 0;
  recirc_busy_until_ = 0;
}

int SwitchDevice::RouteOf(Addr addr) const {
  auto it = routes_.find(addr);
  return it == routes_.end() ? -1 : it->second;
}

void SwitchDevice::OnPacket(sim::PacketPtr pkt, int port) {
  ++stats_.rx_packets;

  if (pkt->msg.op == proto::Op::kProbe) {
    // Turn the probe around on its ingress port: a completed round trip
    // proves both directions of the link alive (a gray link that eats
    // either leg starves the prober of acks).
    pkt->msg.op = proto::Op::kProbeAck;
    SendOut(port, std::move(pkt), /*pipe_delay=*/0);
    return;
  }
  if (pkt->msg.op == proto::Op::kProbeAck) {
    sim::MarkEnd(*pkt, sim::PacketEnd::kConsumed);
    if (probe_ack_handler_) probe_ack_handler_(port);
    return;
  }
  if (port == kRecircPort) {
    if (pkt->recirc_generation != recirc_generation_) {
      // The packet was in the loop when the ASIC rebooted: it no longer
      // exists (the gauge was zeroed by FlushRecirculation).
      ++stats_.recirc_flushed;
      sim::MarkEnd(*pkt, sim::PacketEnd::kFlushedAtReset);
      if (int_ != nullptr && pkt->int_id != 0) {
        telemetry::IntHop hop;
        hop.at = sim_->now();
        hop.hop = int_hop_recirc_;
        hop.kind = telemetry::IntHopKind::kDrop;
        hop.recirc_count = pkt->recirc_count;
        hop.detail = "recirc_flushed";
        int_->Stamp(pkt->int_id, hop);
      }
      return;
    }
    pkt->from_recirc = true;
    --stats_.recirc_in_flight;
  }

  // Pipeline pacing: the pps ceiling shows up as queueing ahead of the
  // pipe; the match-action logic itself runs in arrival order.
  const SimTime slot = std::max<SimTime>(1, static_cast<SimTime>(kPacketSlotNs));
  const SimTime queue_wait = std::max<SimTime>(0, pipe_next_free_ - sim_->now());
  pipe_next_free_ = sim_->now() + queue_wait + slot;
  const SimTime pipe_delay =
      queue_wait + static_cast<SimTime>(kPipelineLatencyNs);

  if (bypass_) ++stats_.bypass_forwarded;
  const IngressResult result = program_ != nullptr && !bypass_
                                   ? program_->Ingress(*pkt, *this)
                                   : IngressResult::ToAddr(pkt->dst);
  Apply(result, std::move(pkt), pipe_delay);
}

void SwitchDevice::Apply(const IngressResult& result, sim::PacketPtr pkt,
                         SimTime pipe_delay) {
  using Action = IngressResult::Action;
  if (flight_ != nullptr) {
    flight_->Note(flight_comp_, sim_->now(), ActionName(result.action),
                  static_cast<uint64_t>(pkt->msg.op), pkt->msg.seq);
  }
  if (int_ != nullptr) {
    int_->Record(int_hist_pipe_, pipe_delay);
    if (pkt->int_id != 0) {
      // One span per traversal: queue-behind-the-pipe wait plus the fixed
      // match-action latency, labeled with the action the program chose.
      const SimTime queue_wait =
          pipe_delay - static_cast<SimTime>(kPipelineLatencyNs);
      telemetry::IntHop hop;
      hop.at = sim_->now();
      hop.hop = int_hop_pipe_;
      hop.kind = telemetry::IntHopKind::kPipeline;
      hop.latency_ns = pipe_delay;
      hop.queue_depth = queue_wait;
      hop.recirc_count = pkt->recirc_count;
      hop.detail = ActionName(result.action);
      int_->Stamp(pkt->int_id, hop);
    }
  }
  switch (result.action) {
    case Action::kDrop:
      ++stats_.dropped_by_program;
      // First-wins: a program that absorbed the packet (request table)
      // already marked it; only an unexplained Drop lands here.
      sim::MarkEnd(*pkt, sim::PacketEnd::kDroppedByProgram);
      return;
    case Action::kForwardAddr: {
      const int port = RouteOf(result.addr);
      if (port < 0) {
        ++stats_.dropped_unrouted;
        sim::MarkEnd(*pkt, sim::PacketEnd::kDroppedUnrouted);
        LOG_WARN(name_ << ": no route for addr " << result.addr);
        return;
      }
      SendOut(port, std::move(pkt), pipe_delay);
      return;
    }
    case Action::kRecirculate:
      Recirculate(std::move(pkt), pipe_delay);
      return;
    case Action::kMulticast: {
      const auto* targets = pre_.Group(result.mcast_group);
      if (targets == nullptr || targets->empty()) {
        ++stats_.dropped_unrouted;
        sim::MarkEnd(*pkt, sim::PacketEnd::kDroppedUnrouted);
        LOG_WARN(name_ << ": unknown multicast group " << result.mcast_group);
        return;
      }
      // The PRE emits one descriptor per target; the last target takes the
      // original descriptor, earlier ones take clones.
      for (size_t i = 0; i + 1 < targets->size(); ++i) {
        pre_.CountClones(1);
        sim::PacketPtr copy = sim::ClonePacket(*pkt);
        const McastTarget& t = (*targets)[i];
        if (t.recirculate) {
          Recirculate(std::move(copy), pipe_delay);
        } else {
          SendOut(t.port, std::move(copy), pipe_delay);
        }
      }
      const McastTarget& last = targets->back();
      if (last.recirculate) {
        Recirculate(std::move(pkt), pipe_delay);
      } else {
        SendOut(last.port, std::move(pkt), pipe_delay);
      }
      return;
    }
  }
}

void SwitchDevice::SendOut(int port, sim::PacketPtr pkt, SimTime pipe_delay) {
  ++stats_.tx_packets;
  net_->Send(this, port, std::move(pkt), pipe_delay);
}

void SwitchDevice::Recirculate(sim::PacketPtr pkt, SimTime pipe_delay) {
  const AsicConfig& cfg = resources_.config();
  const uint32_t bytes = pkt->wire_bytes();
  const SimTime ready = sim_->now() + pipe_delay;
  // Backlog implied by how far the port's busy horizon runs ahead.
  const SimTime backlog_ns = std::max<SimTime>(0, recirc_busy_until_ - ready);
  const uint64_t backlog_bytes = static_cast<uint64_t>(
      static_cast<double>(backlog_ns) * cfg.recirc_rate_gbps / 8.0);
  if (backlog_bytes + bytes > kRecircQueueBytes) {
    ++stats_.recirc_drops;
    sim::MarkEnd(*pkt, sim::PacketEnd::kDroppedRecirc);
    if (int_ != nullptr && pkt->int_id != 0) {
      telemetry::IntHop hop;
      hop.at = sim_->now();
      hop.hop = int_hop_recirc_;
      hop.kind = telemetry::IntHopKind::kDrop;
      hop.queue_depth = static_cast<int64_t>(backlog_bytes);
      hop.recirc_count = pkt->recirc_count;
      hop.drop_reason = static_cast<uint8_t>(
          1 + static_cast<int>(sim::DropReason::kQueueOverflow));
      int_->Stamp(pkt->int_id, hop);
    }
    return;
  }
  const SimTime start = std::max(ready, recirc_busy_until_);
  const SimTime tx = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(bytes) * 8.0 /
                              cfg.recirc_rate_gbps));
  const SimTime done = start + tx;
  recirc_busy_until_ = done;
  ++stats_.recirc_packets;
  ++stats_.recirc_in_flight;
  stats_.recirc_bytes += bytes;
  stats_.recirc_busy_ns += static_cast<uint64_t>(tx);

  pkt->recirc_count++;
  pkt->recirc_generation = recirc_generation_;
  const SimTime loop = static_cast<SimTime>(kRecircLoopNs);
  if (int_ != nullptr) {
    const SimTime orbit_ns = done + loop - sim_->now();
    int_->Record(int_hist_recirc_, orbit_ns);
    if (pkt->int_id != 0) {
      telemetry::IntHop hop;
      hop.at = sim_->now();
      hop.hop = int_hop_recirc_;
      hop.kind = telemetry::IntHopKind::kRecirc;
      hop.latency_ns = orbit_ns;
      hop.queue_depth = static_cast<int64_t>(backlog_bytes);
      hop.recirc_count = pkt->recirc_count;
      int_->Stamp(pkt->int_id, hop);
    }
  }
  // A reply entering the loop is a cache packet beginning its orbit: it
  // will recirculate for the rest of the run. Stamp the first pass, then
  // detach the flow id so a sampled request doesn't record forever.
  // Requests (NetCache's recirculating reads) keep it across passes.
  switch (pkt->msg.op) {
    case proto::Op::kReadRep:
    case proto::Op::kWriteRep:
    case proto::Op::kFetchRep:
      pkt->int_id = 0;
      break;
    default:
      break;
  }
  sim_->Deliver(done + loop, this, kRecircPort, std::move(pkt), recirc_lane_);
}

}  // namespace orbit::rmt
