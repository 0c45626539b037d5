#include "apps/client.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"
#include "telemetry/int/int.h"
#include "verify/verify.h"

namespace orbit::app {

ClientNode::ClientNode(sim::Simulator* sim, sim::Network* net, int port,
                       const ClientConfig& config,
                       std::shared_ptr<WorkloadSource> workload)
    : sim_(sim),
      net_(net),
      port_(port),
      config_(config),
      workload_(std::move(workload)),
      rng_(config.seed) {
  ORBIT_CHECK(sim != nullptr && net != nullptr && workload_ != nullptr);
  ORBIT_CHECK(config.rate_rps > 0);
}

void ClientNode::Start() {
  ORBIT_CHECK(!running_);
  running_ = true;
  const double mean_gap = static_cast<double>(kSecond) / config_.rate_rps;
  sim_->AfterTimer(static_cast<SimTime>(rng_.Exponential(mean_gap)), this,
                   kTickArg);
}

void ClientNode::Stop() {
  running_ = false;
  // Requests still on the wire are neither successes nor timeouts; count
  // them explicitly instead of leaking them. Their armed deadline events
  // fire into an empty map.
  stats_.inflight_at_stop += pending_.size();
  if (verifier_ != nullptr) {
    for (const auto& [seq, pending] : pending_)
      verifier_->OnClientDrop(config_.addr, seq);
  }
  pending_.clear();
}

void ClientNode::OpenWindow() {
  window_open_ = true;
  lat_cached_.Reset();
  lat_server_.Reset();
  lat_write_.Reset();
  lat_switch_.Reset();
}

void ClientNode::CloseWindow() { window_open_ = false; }

void ClientNode::SendNext() {
  if (!running_) return;
  const WorkloadSource::Request req = workload_->Next(rng_);
  SendRequest(req, /*correction=*/false, sim_->now());
  const double mean_gap = static_cast<double>(kSecond) / config_.rate_rps;
  sim_->AfterTimer(std::max<SimTime>(1, static_cast<SimTime>(
                                            rng_.Exponential(mean_gap))),
                   this, kTickArg);
}

void ClientNode::OnTimer(uint64_t arg) {
  if (arg == kTickArg) {
    SendNext();
  } else {
    OnDeadline(static_cast<uint32_t>(arg >> 32),
               static_cast<int>(arg & 0xffffffffu));
  }
}

void ClientNode::SendRequest(const WorkloadSource::Request& req,
                             bool correction, SimTime original_sent_at,
                             uint32_t inherited_int_id) {
  // SEQ values recycle at the 32-bit wrap. A recycled value that is still
  // pending (a slow request outliving ~2^32 sends) must not be reused:
  // pending_[seq] would silently overwrite the live entry, orphaning its
  // deadline and misclassifying the eventual reply. Skip live values (and
  // 0, kept as the "unset" convention in reply matching).
  uint32_t seq = next_seq_++;
  while (seq == 0 || pending_.count(seq) != 0) seq = next_seq_++;
  const proto::Op op = correction ? proto::Op::kCorrectionReq
                                  : (req.is_write ? proto::Op::kWriteReq
                                                  : proto::Op::kReadReq);
  uint32_t int_id = inherited_int_id;
  if (int_id == 0 && int_ != nullptr && int_->Sampled(seq)) {
    int_id = int_->StartFlow(telemetry::MakeFlowId(config_.addr, seq),
                             static_cast<uint8_t>(op), sim_->now());
  }
  Pending pending;
  pending.key = req.key;
  pending.hkey = req.hkey;
  pending.sent_at = original_sent_at;
  pending.is_write = req.is_write;
  pending.is_correction = correction;
  pending.server = req.server;
  pending.value_size = req.value_size;
  pending.int_id = int_id;

  ++stats_.tx_requests;
  if (req.is_write) {
    ++stats_.writes_sent;
  } else {
    ++stats_.reads_sent;
  }

  Transmit(seq, pending);
  pending_[seq] = std::move(pending);
  if (verifier_ != nullptr)
    verifier_->OnClientSend(config_.addr, seq, req.key, req.is_write,
                            req.value_size);
  ArmDeadline(seq, /*attempt=*/0);
}

void ClientNode::Transmit(uint32_t seq, const Pending& pending) {
  // Drawn from the simulator's pool: the recycled packet's key string
  // keeps its capacity, so the copy-assign below is alloc-free in steady
  // state (16-byte workload keys overflow libstdc++'s 15-byte SSO).
  auto pkt = sim::NewPacket(config_.addr, pending.server, config_.src_port,
                            config_.orbit_port);
  proto::Message& msg = pkt->msg;
  msg.op = pending.is_correction
               ? proto::Op::kCorrectionReq
               : (pending.is_write ? proto::Op::kWriteReq
                                   : proto::Op::kReadReq);
  msg.seq = seq;
  msg.hkey = pending.hkey;
  msg.key = pending.key;
  if (pending.is_write) {
    // Versions are assigned by the serialization point — the storage
    // server for write-through, the switch for write-back — never by
    // clients (racing writers would regress them).
    msg.value = kv::Value::Synthetic(pending.value_size, 0);
  }

  pkt->sent_at = pending.sent_at;  // first send — retransmits inherit it
  pkt->int_id = pending.int_id;
  if (flight_ != nullptr)
    flight_->Note(flight_comp_, sim_->now(), "tx", seq,
                  static_cast<uint64_t>(pending.attempt));
  if (int_ != nullptr && pending.int_id != 0) {
    telemetry::IntHop hop;
    hop.at = sim_->now();
    hop.hop = int_hop_tx_;
    hop.kind = telemetry::IntHopKind::kClientTx;
    hop.queue_depth = static_cast<int64_t>(pending_.size());
    if (pending.attempt > 0)
      hop.detail = "retransmit";
    else if (pending.is_correction)
      hop.detail = "correction";
    int_->Stamp(pending.int_id, hop);
  }
  net_->Send(this, port_, std::move(pkt));
}

SimTime ClientNode::TimeoutFor(int attempt) const {
  // Exponential backoff: the deadline doubles with every retransmission.
  const int shift = std::min(attempt, 20);
  return config_.request_timeout << shift;
}

void ClientNode::ArmDeadline(uint32_t seq, int attempt) {
  const auto level = static_cast<size_t>(attempt);
  while (deadline_lanes_.size() <= level)
    deadline_lanes_.push_back(sim_->NewLane());
  sim_->AfterTimer(TimeoutFor(attempt), this, DeadlineArg(seq, attempt),
                   deadline_lanes_[level]);
}

void ClientNode::OnDeadline(uint32_t seq, int attempt) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // answered (or retired at Stop)
  Pending& pending = it->second;
  if (pending.attempt != attempt) return;  // superseded by a retransmission
  if (pending.attempt < config_.max_retries) {
    ++pending.attempt;
    ++stats_.retransmissions;
    if (flight_ != nullptr)
      flight_->Note(flight_comp_, sim_->now(), "retransmit", seq,
                    static_cast<uint64_t>(pending.attempt));
    // Same SEQ: a late reply to any attempt completes the request, and
    // further duplicates count as stray_replies (at-most-once).
    Transmit(seq, pending);
    ArmDeadline(seq, pending.attempt);
    return;
  }
  ++stats_.timeouts;
  if (config_.max_retries > 0) ++stats_.retries_exhausted;
  if (flight_ != nullptr)
    flight_->Note(flight_comp_, sim_->now(), "timeout", seq,
                  static_cast<uint64_t>(pending.attempt));
  if (int_ != nullptr && pending.int_id != 0)
    int_->FinishFlow(pending.int_id, sim_->now(), "timeout");
  if (verifier_ != nullptr) verifier_->OnClientDrop(config_.addr, seq);
  pending_.erase(it);
}

void ClientNode::OnPacket(sim::PacketPtr pkt, int /*port*/) {
  const bool is_reply = pkt->msg.op == proto::Op::kReadRep ||
                        pkt->msg.op == proto::Op::kWriteRep;
  sim::MarkEnd(*pkt, is_reply ? sim::PacketEnd::kConsumed
                              : sim::PacketEnd::kIgnored);
  HandleReply(*pkt);
}

void ClientNode::HandleReply(const sim::Packet& pkt) {
  using proto::Op;
  const proto::Message& msg = pkt.msg;
  if (msg.op != Op::kReadRep && msg.op != Op::kWriteRep) {
    LOG_DEBUG("client: ignoring " << proto::OpName(msg.op));
    return;
  }
  auto it = pending_.find(msg.seq);
  if (it == pending_.end()) {
    ++stats_.stray_replies;  // timed out, duplicate, or superseded
    return;
  }
  Pending& pending = it->second;

  if (msg.op == Op::kReadRep && msg.key != pending.key) {
    // Hash collision (or an inherited CacheIdx after a cache update,
    // §3.8): fetch the correct value straight from the storage server.
    ++stats_.collisions;
    WorkloadSource::Request fix;
    fix.key = pending.key;
    fix.hkey = HashKey128(pending.key);
    fix.server = pending.server;
    fix.is_write = false;
    const SimTime original = pending.sent_at;
    const uint32_t int_id = pending.int_id;
    if (verifier_ != nullptr) verifier_->OnClientDrop(config_.addr, msg.seq);
    pending_.erase(it);
    SendRequest(fix, /*correction=*/true, original, int_id);
    return;
  }

  // Multi-packet reassembly: wait for all fragments (§3.10). The bitmap
  // covers the full frag_index range (proto caps frag_total at 255), so
  // indices never alias and completion requires every distinct fragment.
  if (msg.frag_total > 1) {
    const unsigned idx = msg.frag_index;
    uint64_t& word = pending.frag_bitmap[idx >> 6];
    const uint64_t bit = uint64_t{1} << (idx & 63);
    if ((word & bit) != 0) {
      ++stats_.duplicate_frags;
      return;
    }
    word |= bit;
    if (verifier_ != nullptr)
      verifier_->OnClientFragment(config_.addr, msg.seq,
                                  static_cast<uint32_t>(msg.value.size()));
    if (++pending.frags_received < msg.frag_total) return;
  }

  // Bounded tracking: keys beyond staleness_max_keys are not checked
  // (the map would otherwise grow with every distinct key seen). Hot
  // keys — the ones caching can serve stale — are always inside the cap.
  auto lv = last_version_.find(pending.key);
  if (lv == last_version_.end() &&
      last_version_.size() < config_.staleness_max_keys) {
    lv = last_version_.emplace(pending.key, 0).first;
  }
  if (lv != last_version_.end()) {
    const uint64_t version = msg.value.version();
    if (msg.op == Op::kReadRep && version > 0 && version < lv->second)
      ++stats_.stale_reads;
    if (version > lv->second) lv->second = version;
  }

  ++stats_.rx_replies;
  if (window_open_) RecordLatency(pkt, pending);
  if (flight_ != nullptr)
    flight_->Note(flight_comp_, sim_->now(), "rx", msg.seq,
                  static_cast<uint64_t>(msg.cached));
  if (int_ != nullptr) {
    int_->Record(int_hist_rtt_, sim_->now() - pending.sent_at);
    if (pending.int_id != 0) {
      telemetry::IntHop hop;
      hop.at = sim_->now();
      hop.hop = int_hop_rx_;
      hop.kind = telemetry::IntHopKind::kClientRx;
      hop.recirc_count = pkt.recirc_count;
      int_->Stamp(pending.int_id, hop);
      // The flow's span is the client-observed latency; its outcome says
      // how the request was ultimately satisfied.
      const char* outcome =
          pending.is_write
              ? "write"
              : (msg.cached != 0 ? "read_cached"
                                 : (pending.is_correction ? "read_correction"
                                                          : "read_server"));
      int_->FinishFlow(pending.int_id, sim_->now(), outcome);
    }
  }
  if (verifier_ != nullptr) {
    verifier_->OnClientAccept(config_.addr, msg.seq, pending.key,
                              pending.is_write, msg.frag_total > 1,
                              static_cast<uint32_t>(msg.value.size()),
                              msg.value.version());
  }
  pending_.erase(it);
}

void ClientNode::RecordLatency(const sim::Packet& pkt, const Pending& pending) {
  const SimTime latency = sim_->now() - pending.sent_at;
  if (pending.is_write) {
    lat_write_.Record(latency);
    return;
  }
  if (pkt.msg.cached != 0) {
    lat_cached_.Record(latency);
    lat_switch_.Record(static_cast<SimTime>(pkt.msg.latency));
  } else {
    lat_server_.Record(latency);
  }
}

void ClientNode::SetIntSink(telemetry::IntSink* sink) {
  int_ = sink;
  if (int_ == nullptr) return;
  const std::string me = "client-" + std::to_string(config_.addr);
  int_hop_tx_ = int_->Hop(me + ".tx");
  int_hop_rx_ = int_->Hop(me + ".rx");
  int_hist_rtt_ = int_->Hist("hop.rtt.ns", "ns");
}

void ClientNode::SetFlightRecorder(telemetry::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr)
    flight_comp_ =
        flight_->Component("client-" + std::to_string(config_.addr));
}

void ClientNode::RegisterTelemetry(telemetry::Registry& reg,
                                   const std::string& prefix) {
  const std::string who = "ClientNode::RegisterTelemetry(" + prefix + ")";
  reg.AddCounter(prefix + ".tx_requests",
                 [this] { return stats_.tx_requests; }, who);
  reg.AddCounter(prefix + ".rx_replies", [this] { return stats_.rx_replies; },
                 who);
  reg.AddCounter(prefix + ".timeouts", [this] { return stats_.timeouts; }, who);
  reg.AddCounter(prefix + ".retransmissions",
                 [this] { return stats_.retransmissions; }, who);
  reg.AddCounter(prefix + ".retries_exhausted",
                 [this] { return stats_.retries_exhausted; }, who);
  reg.AddCounter(prefix + ".inflight_at_stop",
                 [this] { return stats_.inflight_at_stop; }, who);
  reg.AddCounter(prefix + ".collisions", [this] { return stats_.collisions; },
                 who);
  reg.AddCounter(prefix + ".stray_replies",
                 [this] { return stats_.stray_replies; }, who);
  reg.AddCounter(prefix + ".stale_reads",
                 [this] { return stats_.stale_reads; }, who);
  reg.AddGauge(prefix + ".pending", [this] { return pending_.size(); }, who);
}

}  // namespace orbit::app
