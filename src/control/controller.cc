#include "control/controller.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace orbit::ctrl {

CacheController::CacheController(sim::Simulator* sim, sim::Network* net,
                                 const kv::Partitioner* partitioner,
                                 std::vector<Addr> server_addrs,
                                 Addr self_addr, int self_port,
                                 const ControllerConfig& config,
                                 size_t capacity)
    : sim_(sim),
      config_(config),
      net_(net),
      partitioner_(partitioner),
      server_addrs_(std::move(server_addrs)),
      self_addr_(self_addr),
      self_port_(self_port),
      capacity_(capacity) {
  ORBIT_CHECK(sim != nullptr && net != nullptr && partitioner != nullptr);
  for (size_t i = 0; i < capacity; ++i)
    free_idxs_.push_back(static_cast<uint32_t>(capacity - 1 - i));
}

size_t CacheController::Install(const std::vector<Key>& keys, size_t limit) {
  size_t installed = 0;
  for (const Key& key : keys) {
    if (by_key_.size() >= limit) break;
    if (by_key_.count(key) > 0 || !Admit(key)) continue;
    InsertKey(key, AllocIdx());
    if (by_key_.count(key) > 0) ++installed;  // table may reject (full)
  }
  return installed;
}

bool CacheController::Evict(const Key& key, bool erase_entry) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  EvictIdx(it->second, erase_entry);
  return true;
}

void CacheController::Start() {
  ORBIT_CHECK(!started_);
  started_ = true;
  sim_->AfterTimer(config_.update_period, this, kTickArg);
}

void CacheController::OnTimer(uint64_t arg) {
  if (arg == kTickArg) {
    Tick();
    return;
  }
  rebuild_sweep_armed_ = false;
  CheckFetchTimeouts();
  if (!pending_fetches_.empty()) ArmRebuildSweep();
}

void CacheController::Tick() {
  ++stats_.updates;
  CheckFetchTimeouts();
  BeforeUpdate();
  UpdateCacheEntries();
  AfterUpdate();
  reported_.clear();
  sim_->AfterTimer(config_.update_period, this, kTickArg);
}

void CacheController::UpdateCacheEntries() {
  // Refresh cached-key popularity from the data plane.
  const std::vector<uint64_t> pop = ReadAndResetPopularity();
  for (auto& [idx, entry] : by_idx_) entry.last_count = pop[idx];

  // Candidate uncached keys, hottest first.
  std::vector<std::pair<uint64_t, const Key*>> candidates;
  candidates.reserve(reported_.size());
  for (const auto& [key, count] : reported_) {
    if (by_key_.count(key) > 0 || !Admit(key)) continue;
    candidates.emplace_back(count, &key);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && *a.second < *b.second);
            });

  // Cached keys, coldest first, as eviction victims.
  std::vector<uint32_t> victims;
  victims.reserve(by_idx_.size());
  for (const auto& [idx, entry] : by_idx_) victims.push_back(idx);
  std::sort(victims.begin(), victims.end(), [this](uint32_t a, uint32_t b) {
    return by_idx_.at(a).last_count < by_idx_.at(b).last_count;
  });

  size_t v = 0;
  for (const auto& [count, keyp] : candidates) {
    // Fill spare capacity first (e.g. after a size increase).
    if (by_key_.size() < config_.cache_size) {
      InsertKey(*keyp, AllocIdx());
      continue;
    }
    if (v >= victims.size()) break;
    CachedEntry& victim = by_idx_.at(victims[v]);
    if (count <= victim.last_count) break;  // remaining candidates are colder
    // Replace: the new key inherits the victim's CacheIdx (§3.8) so pending
    // requests for the evicted key are answered by the new cache packet and
    // resolved by the client-side collision mechanism.
    const uint32_t idx = victim.idx;
    EvictIdx(idx);
    free_idxs_.pop_back();  // EvictIdx released it; reuse immediately
    InsertKey(*keyp, idx);
    ++v;
  }

  // Shrink to target: after a size decrease, or to trim degraded-mode
  // extras, keeping the hottest.
  while (by_key_.size() > config_.cache_size && v < victims.size()) {
    EvictIdx(victims[v]);
    ++v;
  }
}

void CacheController::InsertKey(const Key& key, uint32_t idx) {
  const Hash128 hkey = HashKey128(key);
  if (!InsertEntry(key, hkey, idx)) {
    LOG_WARN(name() << ": lookup table rejected insert for " << key);
    free_idxs_.push_back(idx);
    return;
  }
  by_idx_[idx] = CachedEntry{key, hkey, idx, 0};
  by_key_[key] = idx;
  ++stats_.insertions;
  SendFetch(key, hkey, ServerFor(key));
}

void CacheController::EvictIdx(uint32_t idx, bool erase_entry) {
  auto it = by_idx_.find(idx);
  ORBIT_CHECK(it != by_idx_.end());
  if (erase_entry) EraseEntry(it->second.key, it->second.hkey);
  pending_fetches_.erase(it->second.key);
  by_key_.erase(it->second.key);
  by_idx_.erase(it);
  free_idxs_.push_back(idx);
  ++stats_.evictions;
}

uint32_t CacheController::AllocIdx() {
  ORBIT_CHECK_MSG(!free_idxs_.empty(), "no free cache indices");
  const uint32_t idx = free_idxs_.back();
  free_idxs_.pop_back();
  return idx;
}

void CacheController::SendFetch(const Key& key, const Hash128& hkey,
                                Addr server) {
  PendingFetch& pf = pending_fetches_[key];
  pf.key = key;
  pf.hkey = hkey;
  pf.server = server;
  // Exponential backoff (capped at 32x): right after a fault the fabric is
  // congested with client retries and a server's FIFO can hold tens of
  // milliseconds of backlog, so a fixed short deadline would burn the whole
  // attempt budget before a single round trip can complete.
  pf.deadline =
      sim_->now() + (config_.fetch_timeout << std::min(pf.attempts, 5));
  ++pf.attempts;
  ++stats_.fetches_sent;

  proto::Message msg;
  msg.op = proto::Op::kFetchReq;
  msg.seq = fetch_seq_++;
  msg.hkey = hkey;
  msg.key = key;
  net_->Send(this, self_port_,
             sim::MakePacket(self_addr_, server, config_.orbit_port,
                             config_.orbit_port, std::move(msg)));
}

void CacheController::CheckFetchTimeouts() {
  std::vector<Key> retry;
  std::vector<Key> give_up;
  for (const auto& [key, pf] : pending_fetches_) {
    if (pf.deadline > sim_->now()) continue;
    (pf.attempts >= config_.max_fetch_attempts ? give_up : retry)
        .push_back(key);
  }
  for (const Key& key : retry) {
    PendingFetch pf = pending_fetches_[key];
    ++stats_.fetch_retries;
    SendFetch(pf.key, pf.hkey, pf.server);
  }
  for (const Key& key : give_up) {
    ++stats_.fetch_failures;
    Evict(key, /*erase_entry=*/true);
    pending_fetches_.erase(key);
  }
}

void CacheController::RebuildCache() {
  pending_fetches_.clear();
  for (const auto& [idx, entry] : by_idx_) {
    // Re-install unconditionally; the data plane was wiped so Insert
    // cannot conflict.
    ORBIT_CHECK(InsertEntry(entry.key, entry.hkey, idx));
    SendFetch(entry.key, entry.hkey, ServerFor(entry.key));
  }
  // Right after a reset the fabric is congested with client retries, so
  // refetches are likely to drown; without the periodic update timer
  // nothing would ever retry them and the cache would stay partially
  // invalid. Sweep on the fetch-timeout cadence until every refetch
  // settles (success or give-up).
  if (!pending_fetches_.empty()) ArmRebuildSweep();
}

void CacheController::ArmRebuildSweep() {
  if (rebuild_sweep_armed_) return;
  rebuild_sweep_armed_ = true;
  sim_->AfterTimer(config_.fetch_timeout, this, kRebuildSweepArg);
}

void CacheController::OnPacket(sim::PacketPtr pkt, int /*port*/) {
  using proto::Op;
  switch (pkt->msg.op) {
    case Op::kFetchRep:
      sim::MarkEnd(*pkt, sim::PacketEnd::kConsumed);
      FetchDone(pkt->msg.key);
      return;
    case Op::kTopKReport:
      // One report packet per hot key; the count rides in value.version.
      sim::MarkEnd(*pkt, sim::PacketEnd::kConsumed);
      ++stats_.reports_received;
      Report(pkt->msg.key, pkt->msg.value.version());
      return;
    default:
      sim::MarkEnd(*pkt, sim::PacketEnd::kIgnored);
      LOG_DEBUG(name() << ": ignoring " << proto::OpName(pkt->msg.op));
  }
}

}  // namespace orbit::ctrl
