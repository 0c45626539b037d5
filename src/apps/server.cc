#include "apps/server.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"
#include "telemetry/int/int.h"
#include "verify/verify.h"

namespace orbit::app {

namespace {
constexpr SimTime kBaseProcessing = 2 * kMicrosecond;  // when unlimited
}  // namespace

ServerNode::ServerNode(sim::Simulator* sim, sim::Network* net, int port,
                       const ServerConfig& config, ValueSizeFn value_size)
    : sim_(sim),
      net_(net),
      port_(port),
      config_(config),
      value_size_(std::move(value_size)) {
  ORBIT_CHECK(sim != nullptr && net != nullptr);
  ORBIT_CHECK(value_size_ != nullptr);
  completion_lane_ = sim->NewLane();
  if (config.controller_addr != kInvalidAddr)
    top_k_.emplace(config.report_k > 0 ? config.report_k : 1, 5, 2048,
                   0x746f706bull + config.srv_id);
}

void ServerNode::Start() {
  if (config_.controller_addr == kInvalidAddr) return;
  sim_->AfterTimer(config_.report_period, this, /*arg=*/0);
}

void ServerNode::OnTimer(uint64_t arg) {
  if (arg == 0) {
    SendReport();
    return;
  }
  --queue_depth_;
  Process(sim::PacketPtr(reinterpret_cast<sim::Packet*>(arg)));
}

void ServerNode::OnPacket(sim::PacketPtr pkt, int /*port*/) {
  using proto::Op;
  const Op op = pkt->msg.op;
  if (op != Op::kReadReq && op != Op::kWriteReq && op != Op::kFetchReq &&
      op != Op::kCorrectionReq) {
    sim::MarkEnd(*pkt, sim::PacketEnd::kIgnored);
    LOG_DEBUG(name() << ": ignoring " << proto::OpName(op));
    return;
  }

  // Rx rate limiting: a single-server FIFO queue with a fixed service time
  // (the paper's per-emulated-server Rx throughput cap) and a bounded
  // socket buffer. Control-plane fetches are priority traffic: rare, tiny,
  // and load-bearing for recovery (§3.9 — a post-reset rebuild must reach
  // exactly the overloaded hot-partition servers), so they are exempt from
  // the admission drop but still pay the service time.
  if (op != Op::kFetchReq && queue_depth_ >= config_.rx_queue_limit) {
    ++stats_.dropped;
    sim::MarkEnd(*pkt, sim::PacketEnd::kDroppedRxQueue);
    if (flight_ != nullptr)
      flight_->Note(flight_comp_, sim_->now(), "rx_drop", pkt->msg.seq,
                    queue_depth_);
    if (int_ != nullptr && pkt->int_id != 0) {
      telemetry::IntHop hop;
      hop.at = sim_->now();
      hop.hop = int_hop_rx_;
      hop.kind = telemetry::IntHopKind::kDrop;
      hop.queue_depth = static_cast<int64_t>(queue_depth_);
      hop.drop_reason = static_cast<uint8_t>(
          1 + static_cast<int>(sim::DropReason::kQueueOverflow));
      int_->Stamp(pkt->int_id, hop);
    }
    return;
  }
  const SimTime service =
      config_.service_rate_rps > 0
          ? static_cast<SimTime>(static_cast<double>(kSecond) /
                                 config_.service_rate_rps)
          : kBaseProcessing;
  const SimTime start = std::max(busy_until_, sim_->now());
  const SimTime queue_wait = start - sim_->now();
  busy_until_ = start + service;
  ++queue_depth_;
  if (flight_ != nullptr)
    flight_->Note(flight_comp_, sim_->now(), "rx", pkt->msg.seq, queue_depth_);
  if (int_ != nullptr) {
    // Always-on hop-class histograms (every admitted request). The FIFO
    // discipline with a fixed service time makes both spans known at
    // enqueue time, so they are stamped here rather than across events.
    int_->Record(int_hist_queue_, queue_wait);
    int_->Record(int_hist_process_, service);
    if (pkt->int_id != 0) {
      telemetry::IntHop hop;
      hop.at = sim_->now();
      hop.hop = int_hop_rx_;
      hop.kind = telemetry::IntHopKind::kServerRx;
      hop.queue_depth = static_cast<int64_t>(queue_depth_);
      hop.recirc_count = pkt->recirc_count;
      int_->Stamp(pkt->int_id, hop);
      hop.hop = int_hop_queue_;
      hop.kind = telemetry::IntHopKind::kServerQueue;
      hop.latency_ns = queue_wait;
      int_->Stamp(pkt->int_id, hop);
      hop.at = start;
      hop.hop = int_hop_process_;
      hop.kind = telemetry::IntHopKind::kServerProcess;
      hop.latency_ns = service;
      int_->Stamp(pkt->int_id, hop);
    }
  }
  // The request rides the completion timer as its argument (a Packet* is
  // never 0, so it cannot collide with the report-tick sentinel).
  sim_->AtTimer(busy_until_, this,
                reinterpret_cast<uint64_t>(pkt.release()), completion_lane_);
}

kv::Value ServerNode::GetOrSynthesize(const Key& key) {
  if (auto v = store_.Get(key)) return *v;
  const uint32_t size = value_size_(key);
  const uint64_t version = store_.Put(key, size);
  if (verifier_ != nullptr) verifier_->OnCommit(key, size, version);
  return *store_.Get(key);
}

void ServerNode::Process(sim::PacketPtr pkt) {
  using proto::Op;
  // The request's life ends here: replies are freshly minted packets.
  sim::MarkEnd(*pkt, sim::PacketEnd::kConsumed);
  ++stats_.requests;
  const proto::Message& req = pkt->msg;
  if (top_k_) top_k_->Update(req.key);

  switch (req.op) {
    case Op::kReadReq:
    case Op::kCorrectionReq: {
      req.op == Op::kReadReq ? ++stats_.reads : ++stats_.corrections;
      proto::Message& rep = scratch_;
      rep.op = Op::kReadRep;
      rep.seq = req.seq;
      rep.hkey = req.hkey;
      rep.flag = 0;
      rep.epoch = req.epoch;
      rep.key = req.key;
      rep.value = GetOrSynthesize(req.key);
      Reply(*pkt);
      return;
    }
    case Op::kWriteReq: {
      if ((req.flag & proto::kFlagFlush) != 0) {
        // Write-back eviction flush: apply silently (§3.10 extension).
        ++stats_.flushes;
        store_.PutVersioned(req.key, req.value.size(), req.value.version());
        return;
      }
      ++stats_.writes;
      const uint64_t version = store_.Put(req.key, req.value.size());
      if (verifier_ != nullptr)
        verifier_->OnCommit(req.key, req.value.size(), version);
      proto::Message& rep = scratch_;
      rep.op = Op::kWriteRep;
      rep.seq = req.seq;
      rep.hkey = req.hkey;
      rep.epoch = req.epoch;
      rep.flag = req.flag;
      rep.key = req.key;
      // For cached items the reply carries the new value so the switch can
      // refresh its cache packet in the same round trip (§3.3); otherwise
      // only the version metadata rides along (zero payload bytes).
      rep.value = (req.flag & proto::kFlagCachedWrite) != 0
                      ? kv::Value::Synthetic(req.value.size(), version)
                      : kv::Value::Synthetic(0, version);
      Reply(*pkt);
      return;
    }
    case Op::kFetchReq: {
      ++stats_.fetches;
      proto::Message& rep = scratch_;
      rep.op = Op::kFetchRep;
      rep.seq = req.seq;
      rep.hkey = req.hkey;
      rep.flag = 0;
      rep.epoch = req.epoch;
      rep.key = req.key;
      rep.value = GetOrSynthesize(req.key);
      Reply(*pkt);
      return;
    }
    default:
      return;
  }
}

void ServerNode::Reply(const sim::Packet& req) {
  proto::Message& msg = scratch_;
  msg.srv_id = config_.srv_id;
  msg.cached = 0;
  msg.latency = req.msg.latency;

  const uint32_t budget = proto::ValueBudget(msg.key.size());
  const uint32_t size = msg.value.size();
  uint8_t frag_total = 1;
  if (size > budget) {
    ORBIT_CHECK_MSG(config_.multi_packet && budget > 0,
                    name() << ": value of " << size << "B beside a "
                           << msg.key.size()
                           << "B key exceeds one packet and multi-packet "
                              "support is disabled or has no room");
    // Compute in 32 bits first: frag_index/frag_total are uint8_t on the
    // wire, so a value needing more than 255 fragments is unrepresentable
    // and must fail loudly instead of truncating the count.
    const uint32_t frags = (size + budget - 1) / budget;
    ORBIT_CHECK_MSG(frags <= proto::kMaxFragments,
                    name() << ": value of " << size << "B needs " << frags
                           << " fragments, above the "
                           << proto::kMaxFragments
                           << "-fragment wire format limit");
    frag_total = static_cast<uint8_t>(frags);
  }

  if (flight_ != nullptr)
    flight_->Note(flight_comp_, sim_->now(), "reply", msg.seq, size);
  if (int_ != nullptr) int_->Record(int_hist_value_, size);
  for (uint8_t i = 0; i < frag_total; ++i) {
    auto rep = sim::NewPacket(config_.addr, req.src, config_.orbit_port,
                              req.sport);
    rep->msg = msg;  // key copy-assign reuses the recycled packet's capacity
    rep->msg.frag_index = i;
    rep->msg.frag_total = frag_total;
    if (frag_total > 1) {
      const uint32_t off = i * budget;
      rep->msg.value = kv::Value::Synthetic(std::min(budget, size - off),
                                            msg.value.version());
    }
    rep->sent_at = sim_->now();
    rep->int_id = req.int_id;  // the reply continues the request's flow
    ++stats_.replies;
    net_->Send(this, port_, std::move(rep));
  }
}

void ServerNode::SendReport() {
  for (const auto& entry : top_k_->Snapshot()) {
    auto pkt = sim::NewPacket(config_.addr, config_.controller_addr,
                              config_.ctrl_port, config_.ctrl_port);
    pkt->msg.op = proto::Op::kTopKReport;
    pkt->msg.key = entry.key;
    // The per-key count rides in the value's version field (metadata only,
    // no payload bytes on the wire beyond the key).
    pkt->msg.value = kv::Value::Synthetic(0, entry.count);
    net_->Send(this, port_, std::move(pkt));
  }
  top_k_->Reset();
  sim_->AfterTimer(config_.report_period, this, /*arg=*/0);
}

void ServerNode::SetIntSink(telemetry::IntSink* sink) {
  int_ = sink;
  if (int_ == nullptr) return;
  int_hop_rx_ = int_->Hop(name() + ".rx");
  int_hop_queue_ = int_->Hop(name() + ".queue");
  int_hop_process_ = int_->Hop(name() + ".process");
  int_hist_queue_ = int_->Hist("hop.srv_queue.ns", "ns");
  int_hist_process_ = int_->Hist("hop.srv_process.ns", "ns");
  int_hist_value_ = int_->Hist("value.bytes", "bytes");
}

void ServerNode::SetFlightRecorder(telemetry::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr) flight_comp_ = flight_->Component(name());
}

void ServerNode::RegisterTelemetry(telemetry::Registry& reg,
                                   const std::string& prefix) {
  const std::string who = "ServerNode::RegisterTelemetry(" + prefix + ")";
  reg.AddCounter(prefix + ".requests", [this] { return stats_.requests; },
                 who);
  reg.AddCounter(prefix + ".reads", [this] { return stats_.reads; }, who);
  reg.AddCounter(prefix + ".writes", [this] { return stats_.writes; }, who);
  reg.AddCounter(prefix + ".fetches", [this] { return stats_.fetches; }, who);
  reg.AddCounter(prefix + ".corrections",
                 [this] { return stats_.corrections; }, who);
  reg.AddCounter(prefix + ".flushes", [this] { return stats_.flushes; }, who);
  reg.AddCounter(prefix + ".drop.rx_queue", [this] { return stats_.dropped; },
                 who);
  reg.AddCounter(prefix + ".replies", [this] { return stats_.replies; }, who);
  reg.AddGauge(prefix + ".queue_depth", [this] { return queue_depth_; }, who);
}

}  // namespace orbit::app
