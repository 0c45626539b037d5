#include "orbitcache/request_table.h"

#include "common/check.h"
#include "telemetry/counters.h"
#include "verify/verify.h"

namespace orbit::oc {

RequestTable::RequestTable(rmt::Resources* res, size_t capacity,
                           size_t queue_size, int first_stage)
    : capacity_(capacity),
      queue_size_(queue_size),
      qlen_(res, "req_qlen", first_stage, capacity),
      front_(res, "req_front", first_stage + 1, capacity),
      rear_(res, "req_rear", first_stage + 1, capacity),
      client_addr_(res, "req_client_addr", first_stage + 2,
                   capacity * queue_size),
      seq_(res, "req_seq", first_stage + 2, capacity * queue_size),
      l4_port_(res, "req_l4_port", first_stage + 2, capacity * queue_size),
      timestamp_(res, "req_timestamp", first_stage + 2,
                 capacity * queue_size),
      int_id_(capacity * queue_size, 0) {
  ORBIT_CHECK(capacity > 0 && queue_size > 0);
}

bool RequestTable::TryEnqueue(uint32_t idx, const RequestMeta& meta) {
  ORBIT_CHECK(idx < capacity_);
  // Stage A: queue status check.
  uint32_t& len = qlen_.at(idx);
  if (len >= queue_size_) return false;
  // Stage B: advance the rear pointer (circularly).
  uint32_t& rear = rear_.at(idx);
  const uint32_t slot = rear;
  rear = (rear + 1) % static_cast<uint32_t>(queue_size_);
  ++len;
  // Stage C: store metadata at ReqIdx = CacheIdx * S + slot.
  const size_t r = ReqIdx(idx, slot);
  client_addr_.at(r) = meta.client_addr;
  seq_.at(r) = meta.seq;
  l4_port_.at(r) = meta.l4_port;
  timestamp_.at(r) = meta.enqueued_at;
  int_id_[r] = meta.int_id;
  ReportQueueState("TryEnqueue", idx);
  return true;
}

std::optional<RequestMeta> RequestTable::TryDequeue(uint32_t idx) {
  ORBIT_CHECK(idx < capacity_);
  uint32_t& len = qlen_.at(idx);
  if (len == 0) return std::nullopt;
  uint32_t& front = front_.at(idx);
  const uint32_t slot = front;
  front = (front + 1) % static_cast<uint32_t>(queue_size_);
  --len;
  const size_t r = ReqIdx(idx, slot);
  RequestMeta meta;
  meta.client_addr = client_addr_.at(r);
  meta.seq = seq_.at(r);
  meta.l4_port = l4_port_.at(r);
  meta.enqueued_at = timestamp_.at(r);
  meta.int_id = int_id_[r];
  ReportQueueState("TryDequeue", idx);
  return meta;
}

std::optional<RequestMeta> RequestTable::Peek(uint32_t idx) const {
  ORBIT_CHECK(idx < capacity_);
  if (qlen_.at(idx) == 0) return std::nullopt;
  const size_t r = ReqIdx(idx, front_.at(idx));
  RequestMeta meta;
  meta.client_addr = client_addr_.at(r);
  meta.seq = seq_.at(r);
  meta.l4_port = l4_port_.at(r);
  meta.enqueued_at = timestamp_.at(r);
  meta.int_id = int_id_[r];
  return meta;
}

uint32_t RequestTable::QueueLength(uint32_t idx) const {
  ORBIT_CHECK(idx < capacity_);
  return qlen_.at(idx);
}

void RequestTable::ClearQueue(uint32_t idx) {
  ORBIT_CHECK(idx < capacity_);
  qlen_.at(idx) = 0;
  front_.at(idx) = 0;
  rear_.at(idx) = 0;
  // Scrub the telemetry sidecar of every slot in idx's queue. The real
  // data-plane arrays may keep stale bytes (they are overwritten before
  // use because slot validity is governed by qlen/front/rear), but the
  // sidecar is read back by correlation tooling keyed on slot index, so a
  // reset must not leave another run's flow ids behind.
  for (uint32_t off = 0; off < queue_size_; ++off)
    int_id_[ReqIdx(idx, off)] = 0;
  ReportQueueState("ClearQueue", idx);
}

void RequestTable::ReportQueueState(const char* where, uint32_t idx) const {
  if (verifier_ == nullptr) return;
  verifier_->OnQueueState(where, idx, qlen_.peek(idx), front_.peek(idx),
                          rear_.peek(idx),
                          static_cast<uint32_t>(queue_size_));
}

void RequestTable::RegisterTelemetry(telemetry::Registry& reg,
                                     const std::string& prefix) const {
  auto add = [&reg, &prefix](const rmt::RegisterArrayBase& arr) {
    reg.AddCounter(prefix + "rmt.s" + std::to_string(arr.stage()) + "." +
                       arr.array_name() + ".accesses",
                   [&arr] { return arr.accesses(); },
                   "RequestTable::RegisterTelemetry(" + prefix + ")");
  };
  add(qlen_);
  add(front_);
  add(rear_);
  add(client_addr_);
  add(seq_);
  add(l4_port_);
  add(timestamp_);
}

}  // namespace orbit::oc
