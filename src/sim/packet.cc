#include "sim/packet.h"

namespace orbit::sim {

namespace {
thread_local PacketPool* g_current_pool = nullptr;
}  // namespace

void Packet::Reset() {
  src = kInvalidAddr;
  dst = kInvalidAddr;
  sport = 0;
  dport = 0;
  msg.op = proto::Op::kReadReq;
  msg.seq = 0;
  msg.hkey = Hash128{};
  msg.flag = 0;
  msg.cached = 0;
  msg.latency = 0;
  msg.srv_id = 0;
  msg.epoch = 0;
  msg.frag_index = 0;
  msg.frag_total = 1;
  msg.key.clear();          // keeps capacity for the next key assignment
  msg.value = kv::Value();  // drops any shared payload reference
  sent_at = 0;
  from_recirc = false;
  recirc_count = 0;
  recirc_generation = 0;
  int_id = 0;
  end_reason = PacketEnd::kNone;
}

void Packet::CopyFrom(const Packet& other) {
  src = other.src;
  dst = other.dst;
  sport = other.sport;
  dport = other.dport;
  msg = other.msg;  // key copy-assign reuses capacity; value shares bytes
  sent_at = other.sent_at;
  from_recirc = other.from_recirc;
  recirc_count = other.recirc_count;
  recirc_generation = other.recirc_generation;
  int_id = other.int_id;
}

void PacketDeleter::operator()(Packet* pkt) const noexcept {
  if (pkt == nullptr) return;
  if (pkt->pool_ != nullptr) {
    pkt->pool_->Release(pkt);
  } else {
    delete pkt;
  }
}

PacketPool::~PacketPool() = default;

PacketPtr PacketPool::Acquire() {
  Packet* pkt;
  if (!free_.empty()) {
    pkt = free_.back();
    free_.pop_back();
    pkt->Reset();
    ++stats_.recycled;
  } else {
    if (chunk_used_ == kChunkPackets) {
      chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
      chunk_used_ = 0;
    }
    pkt = &chunks_.back()[chunk_used_++];
    pkt->pool_ = this;
    ++stats_.allocated;
  }
  return PacketPtr(pkt);
}

void PacketPool::Release(Packet* pkt) {
  if (observer_ != nullptr) observer_->OnRelease(*pkt);
  ++stats_.released;
  free_.push_back(pkt);
}

PacketPool* PacketPool::Current() { return g_current_pool; }

PacketPool::ScopedInstall::ScopedInstall(PacketPool* pool)
    : prev_(g_current_pool) {
  g_current_pool = pool;
}

PacketPool::ScopedInstall::~ScopedInstall() { g_current_pool = prev_; }

PacketPtr NewPacket(Addr src, Addr dst, L4Port sport, L4Port dport) {
  PacketPool* pool = PacketPool::Current();
  PacketPtr p = pool != nullptr ? pool->Acquire() : PacketPtr(new Packet);
  p->src = src;
  p->dst = dst;
  p->sport = sport;
  p->dport = dport;
  return p;
}

PacketPtr ClonePacket(const Packet& pkt) {
  PacketPool* pool = PacketPool::Current();
  PacketPtr copy = pool != nullptr ? pool->Acquire() : PacketPtr(new Packet);
  copy->CopyFrom(pkt);
  return copy;
}

PacketPtr MakePacket(Addr src, Addr dst, L4Port sport, L4Port dport,
                     proto::Message msg) {
  PacketPtr p = NewPacket(src, dst, sport, dport);
  p->msg = std::move(msg);
  return p;
}

}  // namespace orbit::sim
