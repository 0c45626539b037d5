#include "orbitcache/program.h"

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/counters.h"
#include "telemetry/int/int.h"
#include "verify/verify.h"

namespace orbit::oc {

using rmt::IngressResult;

OrbitProgram::OrbitProgram(rmt::SwitchDevice* device, const OrbitConfig& config)
    : device_(device),
      config_(config),
      lookup_(&device->resources(), "cache_lookup", /*stage=*/0,
              config.capacity, /*key_width_bytes=*/16, /*entry_bytes=*/4),
      valid_(&device->resources(), "state_valid", /*stage=*/1, config.capacity),
      epoch_(&device->resources(), "state_epoch", /*stage=*/1, config.capacity),
      request_table_(&device->resources(), config.capacity, config.queue_size,
                     /*first_stage=*/2),
      popularity_(&device->resources(), "key_popularity", /*stage=*/5,
                  config.capacity),
      hit_counter_(&device->resources(), "cache_hits", /*stage=*/5),
      overflow_counter_(&device->resources(), "overflow_requests",
                        /*stage=*/5),
      clone_groups_(&device->resources(), "clone_mcast", /*stage=*/6,
                    kCloneGroupCapacity, /*key_width_bytes=*/4),
      acked_frags_(&device->resources(), "mp_acked", /*stage=*/6,
                   config.capacity),
      fetched_frags_(&device->resources(), "mp_fetched", /*stage=*/6,
                     config.capacity),
      frag_total_(&device->resources(), "mp_frag_total", /*stage=*/6,
                  config.capacity, /*initial=*/uint8_t{1}),
      dirty_(&device->resources(), "wb_dirty", /*stage=*/7, config.capacity),
      version_(&device->resources(), "wb_version", /*stage=*/7,
               config.capacity),
      flush_pending_(&device->resources(), "wb_flush_pending", /*stage=*/7,
                     config.capacity) {
  ORBIT_CHECK(device != nullptr);
  ORBIT_CHECK_MSG(config.capacity > 0 && config.queue_size > 0,
                  "cache capacity and queue size must be positive");
  ORBIT_CHECK_MSG(!(config.multi_packet && !config.enable_cloning),
                  "multi-packet items require PRE cloning");
  ORBIT_CHECK_MSG(!(config.write_back && !config.epoch_guard),
                  "write-back mode relies on the epoch guard to retire "
                  "superseded dirty cache packets");
  // L3 forwarding table accounting (entries live in the device route map).
  rmt::ResourceEntry l3;
  l3.name = "ipv4_forward";
  l3.stage = 8;
  l3.match_key_bytes = 4;
  l3.sram_bytes = 4096 * 8;
  l3.tables = 1;
  device->resources().Declare(l3);
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

bool OrbitProgram::InsertEntry(const Hash128& hkey, uint32_t idx) {
  ORBIT_CHECK_MSG(idx < config_.capacity, "cache index out of range");
  if (!lookup_.Insert(hkey, idx)) return false;
  // A fresh entry starts invalid; it becomes valid when its first cache
  // packet (F-REP) arrives. Bumping the epoch retires any packet still
  // orbiting under this index from a previously bound key.
  valid_.at(idx) = kInvalid;
  epoch_.at(idx)++;
  popularity_.at(idx) = 0;
  acked_frags_.at(idx) = 0;
  fetched_frags_.at(idx) = 0;
  frag_total_.at(idx) = 1;
  dirty_.at(idx) = 0;
  version_.at(idx) = 0;
  flush_pending_.at(idx) = 0;
  return true;
}

bool OrbitProgram::EraseEntry(const Hash128& hkey) {
  return lookup_.Erase(hkey);
}

std::optional<uint32_t> OrbitProgram::FindIdx(const Hash128& hkey) const {
  const uint32_t* idx = lookup_.Lookup(hkey);
  if (idx == nullptr) return std::nullopt;
  return *idx;
}

void OrbitProgram::RegisterCloneTarget(Addr addr, int port) {
  // One counted clone-table lookup per call.
  const std::vector<rmt::McastTarget> targets = {
      rmt::McastTarget{false, port}, rmt::McastTarget{true, -1}};
  if (const int* group = clone_groups_.Lookup(addr)) {
    device_->pre().SetGroup(*group, targets);
    return;
  }
  const int group = next_group_id_++;
  device_->pre().SetGroup(group, targets);
  ORBIT_CHECK_MSG(clone_groups_.Insert(addr, group),
                  "clone group table full for addr " << addr);
}

void OrbitProgram::OnRoute(Addr addr, int port) {
  RegisterCloneTarget(addr, port);
}

size_t OrbitProgram::RequestSnapshot() {
  size_t marked = 0;
  for (uint32_t i = 0; i < config_.capacity; ++i) {
    if (dirty_.at(i) != 0 && flush_pending_.at(i) == 0) {
      flush_pending_.at(i) = 1;
      ++marked;
    }
  }
  return marked;
}

void OrbitProgram::ResetDataPlane() {
  if (verifier_ != nullptr) verifier_->OnSwitchReset();
  lookup_.Clear();
  valid_.Fill(kInvalid);
  // Epochs survive the reset: a reply stamped before it must never match
  // an epoch a post-reset write is given.
  popularity_.Fill(0);
  hit_counter_.get() = 0;
  overflow_counter_.get() = 0;
  acked_frags_.Fill(0);
  fetched_frags_.Fill(0);
  frag_total_.Fill(1);
  dirty_.Fill(0);
  version_.Fill(0);
  flush_pending_.Fill(0);
  for (uint32_t i = 0; i < config_.capacity; ++i) request_table_.ClearQueue(i);
}

std::vector<uint64_t> OrbitProgram::ReadAndResetPopularity() {
  std::vector<uint64_t> out(config_.capacity, 0);
  for (size_t i = 0; i < config_.capacity; ++i) {
    out[i] = popularity_.at(i);
    popularity_.at(i) = 0;
  }
  return out;
}

OrbitProgram::HitOverflow OrbitProgram::ReadAndResetHitOverflow() {
  HitOverflow ho{hit_counter_.get(), overflow_counter_.get()};
  hit_counter_.get() = 0;
  overflow_counter_.get() = 0;
  return ho;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

IngressResult OrbitProgram::Ingress(sim::Packet& pkt, rmt::SwitchDevice& sw) {
  // Non-OrbitCache traffic (including TCP top-k reports) takes the plain
  // forwarding path.
  if (!IsOrbit(pkt)) return IngressResult::ToAddr(pkt.dst);

  using proto::Op;
  switch (pkt.msg.op) {
    case Op::kReadReq:
      return HandleReadRequest(pkt);
    case Op::kWriteReq:
      if (pkt.from_recirc) {
        // The orbiting half of a snapshot fork (see HandleCachePacket):
        // the other copy is flushing to the server, so this one continues
        // life as a clean cache packet.
        pkt.msg.op = Op::kReadRep;
        pkt.msg.flag &= static_cast<uint8_t>(~(kFlagFlush | kFlagDirty));
        return HandleCachePacket(pkt, sw);
      }
      return HandleWriteRequest(pkt);
    case Op::kCorrectionReq: {
      // Bypass the cache logic entirely (§3.6).
      ++stats_.corrections_forwarded;
      return IngressResult::ToAddr(pkt.dst);
    }
    case Op::kFetchReq: {
      // Stamp the current epoch so the fetch reply's echo matches.
      if (auto idx = FindIdx(pkt.msg.hkey)) pkt.msg.epoch = epoch_.at(*idx);
      return IngressResult::ToAddr(pkt.dst);
    }
    case Op::kReadRep:
      if (pkt.from_recirc) return HandleCachePacket(pkt, sw);
      return IngressResult::ToAddr(pkt.dst);  // reply for an uncached item
    case Op::kWriteRep:
    case Op::kFetchRep:
      if (pkt.from_recirc) {
        // First recirculation of a freshly cloned reply: it becomes a
        // regular cache packet (§3.3, Fig. 4d).
        pkt.msg.op = Op::kReadRep;
        return HandleCachePacket(pkt, sw);
      }
      return HandleServerReply(pkt);
    case Op::kTopKReport:
      return IngressResult::ToAddr(pkt.dst);
    case Op::kProbe:
    case Op::kProbeAck:
      // Fabric liveness probes are consumed by the device's CPU path and
      // never reach the program; forward defensively if one ever does.
      return IngressResult::ToAddr(pkt.dst);
  }
  return IngressResult::Drop();
}

IngressResult OrbitProgram::HandleReadRequest(sim::Packet& pkt) {
  ++stats_.read_requests;
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.hkey);
  if (idxp == nullptr) {
    ++stats_.read_misses;
    device_->Note(pkt, "lookup_miss");
    return IngressResult::ToAddr(pkt.dst);
  }
  const uint32_t idx = *idxp;
  ++stats_.read_hits;
  popularity_.at(idx)++;
  hit_counter_.get()++;

  if (valid_.at(idx) == kInvalid) {
    // Pending write: read from the server to avoid a stale value.
    ++stats_.invalid_to_server;
    device_->Note(pkt, "lookup_hit:invalid_bypass");
    return IngressResult::ToAddr(pkt.dst);
  }

  RequestMeta meta;
  meta.client_addr = pkt.src;
  meta.l4_port = pkt.sport;
  meta.seq = pkt.msg.seq;
  meta.enqueued_at = device_->sim().now();
  meta.int_id = pkt.int_id;
  if (request_table_.TryEnqueue(idx, meta)) {
    // Absorbed: a circulating cache packet will answer it (Fig. 4a). Mark
    // the end reason here so the device-level Drop bookkeeping doesn't
    // misclassify the absorption as an unexplained program drop.
    sim::MarkEnd(pkt, sim::PacketEnd::kAbsorbed);
    ++stats_.absorbed;
    device_->Note(pkt, "lookup_hit:absorb");
    return IngressResult::Drop();
  }
  overflow_counter_.get()++;
  ++stats_.overflow_to_server;
  device_->Note(pkt, "lookup_hit:overflow");
  return IngressResult::ToAddr(pkt.dst);
}

IngressResult OrbitProgram::HandleWriteRequest(sim::Packet& pkt) {
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.hkey);
  if (idxp == nullptr) {
    ++stats_.writes_uncached;
    return IngressResult::ToAddr(pkt.dst);
  }
  const uint32_t idx = *idxp;
  ++stats_.writes_cached;
  device_->Note(pkt, config_.write_back ? "write_cached:write_back"
                                        : "write_cached:write_through");

  if (config_.write_back && valid_.at(idx) != kInvalid &&
      pkt.msg.value.size() <= proto::ValueBudget(pkt.msg.key.size())) {
    // Write-back extension (§3.10): the switch absorbs the write. The
    // packet is rewritten into reply form and multicast — the client copy
    // is the W-REP, the recirculating copy is the new (dirty) cache packet
    // carrying the fresh value; the epoch bump retires the old packet. The
    // switch serializes writes for cached keys, so it assigns the version
    // (clients racing on the same key would otherwise regress versions).
    // Writes that arrive before the entry's first fetch completes fall
    // through to write-through: the current version is not yet known.
    const Addr client = pkt.src;
    const Addr server = pkt.dst;
    epoch_.at(idx)++;
    valid_.at(idx) = kValid;
    dirty_.at(idx) = 1;
    frag_total_.at(idx) = 1;
    acked_frags_.at(idx) = 0;
    version_.at(idx)++;
    // The switch is a version authority here: report the mint so the
    // shadow oracle accepts replies carrying switch-assigned versions.
    // peek() keeps the register-access telemetry untouched.
    if (verifier_ != nullptr) {
      verifier_->OnCommit(pkt.msg.key,
                          static_cast<uint32_t>(pkt.msg.value.size()),
                          version_.peek(idx));
    }
    pkt.msg.op = proto::Op::kWriteRep;
    pkt.msg.epoch = epoch_.at(idx);
    pkt.msg.flag |= kFlagDirty;
    pkt.msg.cached = 1;
    pkt.msg.value =
        kv::Value::Synthetic(pkt.msg.value.size(), version_.at(idx));
    pkt.src = server;
    pkt.dst = client;
    pkt.dport = pkt.sport;
    pkt.sport = config_.orbit_port;
    ++stats_.wb_returned_replies;
    return CloneToAddrAndRecirc(pkt, client);
  }

  // Write-through (§3.3/§3.7): invalidate so reads cannot observe the old
  // value, flag the request so the server appends the new value, forward.
  valid_.at(idx) = kInvalid;
  epoch_.at(idx)++;
  fetched_frags_.at(idx) = 0;
  pkt.msg.epoch = epoch_.at(idx);
  pkt.msg.flag |= proto::kFlagCachedWrite;
  return IngressResult::ToAddr(pkt.dst);
}

IngressResult OrbitProgram::HandleServerReply(sim::Packet& pkt) {
  // W-REP or F-REP arriving from a front port (not yet a cache packet).
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.hkey);
  const bool carries_value =
      pkt.msg.op == proto::Op::kFetchRep ||
      (pkt.msg.flag & proto::kFlagCachedWrite) != 0;
  if (idxp == nullptr || !carries_value) {
    // Evicted meanwhile, or a plain write reply for an uncached item.
    return IngressResult::ToAddr(pkt.dst);
  }
  const uint32_t idx = *idxp;

  if (config_.epoch_guard && pkt.msg.epoch != epoch_.at(idx)) {
    // A newer write has superseded this reply; do not revalidate with the
    // stale value (this repo's hardening; see header comment).
    ++stats_.stale_validations_skipped;
    return IngressResult::ToAddr(pkt.dst);
  }

  if (config_.multi_packet) {
    frag_total_.at(idx) = pkt.msg.frag_total;
    uint8_t& fetched = fetched_frags_.at(idx);
    if (fetched < pkt.msg.frag_total) ++fetched;
    if (fetched >= pkt.msg.frag_total) {
      if (valid_.at(idx) == kInvalid) ++stats_.validations;
      valid_.at(idx) = kValid;
    }
  } else {
    if (valid_.at(idx) == kValid && config_.epoch_guard) {
      // Duplicate fetch/write reply (e.g. a retransmitted F-REQ whose
      // original reply was merely delayed): the entry already has a live
      // cache packet for this epoch, so another would put two packets in
      // orbit for one key. Forward the ack only.
      return IngressResult::ToAddr(pkt.dst);
    }
    // Without cloning only a fetch reply stays as the cache packet; a
    // write reply leaves for its client, so the entry awaits a refetch.
    valid_.at(idx) =
        config_.enable_cloning || pkt.msg.op == proto::Op::kFetchRep
            ? kValid
            : kAwaitingRefetch;
    ++stats_.validations;
    device_->Note(pkt, "validate");
  }
  dirty_.at(idx) = 0;  // the server now holds this value
  version_.at(idx) = pkt.msg.value.version();

  if (!config_.enable_cloning) {
    // Strawman mode: a fetch reply is consumed as the (single-use) cache
    // packet, so the program tells the controller its fetch completed. A
    // write reply must still reach the client, so the entry asks for a
    // refetch to regain a packet.
    if (pkt.msg.op == proto::Op::kFetchRep) {
      if (fetched_) fetched_(pkt.msg.key);
      pkt.msg.op = proto::Op::kReadRep;
      return IngressResult::Recirculate();
    }
    if (refetch_) {
      refetch_(pkt.msg.key, pkt.msg.hkey, pkt.src);
      ++stats_.refetches;
    }
    return IngressResult::ToAddr(pkt.dst);
  }
  // Reply to the requester and mint the cache packet in one pass (Fig. 4d).
  return CloneToAddrAndRecirc(pkt, pkt.dst);
}

IngressResult OrbitProgram::HandleCachePacket(sim::Packet& pkt,
                                              rmt::SwitchDevice& sw) {
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.hkey);
  if (idxp == nullptr) {
    if (config_.write_back && (pkt.msg.flag & kFlagDirty) != 0) {
      // Evicted dirty entry: flush the value back to its storage server
      // instead of dropping it. The server applies it silently.
      pkt.msg.op = proto::Op::kWriteReq;
      pkt.msg.flag =
          static_cast<uint8_t>((pkt.msg.flag & ~kFlagDirty) | kFlagFlush);
      pkt.dst = pkt.src;
      pkt.msg.cached = 0;
      ++stats_.wb_flushes;
      return IngressResult::ToAddr(pkt.dst);
    }
    // Controller evicted the key (§3.3): retire the packet.
    ++stats_.cp_drop_evicted;
    return IngressResult::Drop();
  }
  const uint32_t idx = *idxp;
  if (config_.epoch_guard && pkt.msg.epoch != epoch_.at(idx)) {
    ++stats_.cp_drop_epoch;
    return IngressResult::Drop();
  }
  if (config_.write_back && flush_pending_.at(idx) != 0 &&
      dirty_.at(idx) != 0 && valid_.at(idx) != kInvalid) {
    // Snapshot flush: fork the packet — the original carries the value to
    // its storage server as a silent flush write, the clone recirculates
    // and resumes serving as a clean cache packet.
    flush_pending_.at(idx) = 0;
    dirty_.at(idx) = 0;
    const Addr server = pkt.src;
    pkt.msg.op = proto::Op::kWriteReq;
    pkt.msg.flag = static_cast<uint8_t>((pkt.msg.flag & ~kFlagDirty) |
                                        kFlagFlush);
    pkt.msg.cached = 0;
    pkt.dst = server;
    ++stats_.wb_snapshot_flushes;
    return CloneToAddrAndRecirc(pkt, server);
  }
  if (valid_.at(idx) == kInvalid) {
    if (config_.multi_packet && config_.epoch_guard) {
      // Epoch already matched, so this fragment belongs to the value being
      // assembled right now — keep it orbiting until the remaining
      // fragments arrive and validate the entry. (Stale-value packets
      // carry an older epoch and were dropped above.)
      return IngressResult::Recirculate();
    }
    // A write is in progress; drop so no reader can see the stale value
    // (§3.7). The write reply will mint the replacement packet.
    ++stats_.cp_drop_invalid;
    return IngressResult::Drop();
  }
  return ServeOrRecirculate(pkt, idx, sw);
}

IngressResult OrbitProgram::ServeOrRecirculate(sim::Packet& pkt, uint32_t idx,
                                               rmt::SwitchDevice& sw) {
  const uint8_t frags = config_.multi_packet ? frag_total_.at(idx) : 1;

  if (frags <= 1) {
    std::optional<RequestMeta> meta = request_table_.TryDequeue(idx);
    if (!meta) return IngressResult::Recirculate();

    // The serving cache packet adopts the absorbed request's identity: the
    // outgoing reply (and its recirculating clone) now belong to that
    // request's flow, which records how long it waited for this pass.
    pkt.int_id = meta->int_id;
    sw.NoteCacheWait(pkt, meta->enqueued_at);

    const Addr server_src = pkt.src;
    pkt.dst = meta->client_addr;
    pkt.dport = meta->l4_port;
    pkt.sport = config_.orbit_port;
    pkt.msg.seq = meta->seq;
    pkt.msg.cached = 1;
    pkt.msg.latency =
        static_cast<uint32_t>(sw.sim().now() - meta->enqueued_at);
    ++stats_.served_by_cache;
    if (int_ != nullptr) {
      int_->Record(int_hist_orbit_, pkt.recirc_count);
      int_->Record(int_hist_value_,
                   static_cast<int64_t>(pkt.msg.value.size()));
    }

    if (!config_.enable_cloning) {
      // Strawman: the packet leaves for the client; ask the CPU to fetch a
      // replacement from the owning server.
      valid_.at(idx) = kAwaitingRefetch;
      if (refetch_) {
        refetch_(pkt.msg.key, pkt.msg.hkey, server_src);
        ++stats_.refetches;
      }
      return IngressResult::ToAddr(meta->client_addr);
    }
    return CloneToAddrAndRecirc(pkt, meta->client_addr);
  }

  // Multi-packet item (§3.10): fragments take turns visiting the pending
  // request; metadata is removed only when the last fragment has gone out.
  std::optional<RequestMeta> meta = request_table_.Peek(idx);
  if (!meta) return IngressResult::Recirculate();

  pkt.int_id = meta->int_id;
  pkt.dst = meta->client_addr;
  pkt.dport = meta->l4_port;
  pkt.sport = config_.orbit_port;
  pkt.msg.seq = meta->seq;
  pkt.msg.cached = 1;
  pkt.msg.latency = static_cast<uint32_t>(sw.sim().now() - meta->enqueued_at);

  uint8_t& acked = acked_frags_.at(idx);
  ++acked;
  if (acked >= frags) {
    request_table_.TryDequeue(idx);
    acked = 0;
    ++stats_.served_by_cache;
    if (int_ != nullptr) {
      int_->Record(int_hist_orbit_, pkt.recirc_count);
      int_->Record(int_hist_value_,
                   static_cast<int64_t>(pkt.msg.value.size()));
    }
    sw.NoteCacheWait(pkt, meta->enqueued_at);
  }
  return CloneToAddrAndRecirc(pkt, meta->client_addr);
}

void OrbitProgram::OnIntAttached(telemetry::IntSink& sink) {
  int_ = &sink;
  // Orbits a cache packet completed before serving this request; shared
  // value-size histogram aggregates with server-served replies.
  int_hist_orbit_ = sink.Hist("orbit.count", "orbits");
  int_hist_value_ = sink.Hist("value.bytes", "bytes");
}

void OrbitProgram::RegisterTelemetry(telemetry::Registry& reg,
                                     const std::string& prefix) {
  const std::string who = "OrbitProgram::RegisterTelemetry(" + prefix + ")";
  // Program outcome counters, read straight from Stats.
  reg.AddCounter(prefix + "orbit.read_requests",
                 [this] { return stats_.read_requests; }, who);
  reg.AddCounter(prefix + "orbit.read_hits", [this] { return stats_.read_hits; }, who);
  reg.AddCounter(prefix + "orbit.read_misses", [this] { return stats_.read_misses; }, who);
  reg.AddCounter(prefix + "orbit.absorbed", [this] { return stats_.absorbed; }, who);
  reg.AddCounter(prefix + "orbit.overflow_to_server",
                 [this] { return stats_.overflow_to_server; }, who);
  reg.AddCounter(prefix + "orbit.invalid_to_server",
                 [this] { return stats_.invalid_to_server; }, who);
  reg.AddCounter(prefix + "orbit.served_by_cache",
                 [this] { return stats_.served_by_cache; }, who);
  reg.AddCounter(prefix + "orbit.cp_drop.evicted",
                 [this] { return stats_.cp_drop_evicted; }, who);
  reg.AddCounter(prefix + "orbit.cp_drop.invalid",
                 [this] { return stats_.cp_drop_invalid; }, who);
  reg.AddCounter(prefix + "orbit.cp_drop.epoch",
                 [this] { return stats_.cp_drop_epoch; }, who);
  reg.AddCounter(prefix + "orbit.writes_cached",
                 [this] { return stats_.writes_cached; }, who);
  reg.AddCounter(prefix + "orbit.writes_uncached",
                 [this] { return stats_.writes_uncached; }, who);
  reg.AddCounter(prefix + "orbit.validations", [this] { return stats_.validations; }, who);
  reg.AddCounter(prefix + "orbit.stale_validations_skipped",
                 [this] { return stats_.stale_validations_skipped; }, who);
  reg.AddCounter(prefix + "orbit.corrections_forwarded",
                 [this] { return stats_.corrections_forwarded; }, who);
  reg.AddCounter(prefix + "orbit.refetches", [this] { return stats_.refetches; }, who);
  if (config_.write_back) {
    reg.AddCounter(prefix + "orbit.wb.returned_replies",
                   [this] { return stats_.wb_returned_replies; }, who);
    reg.AddCounter(prefix + "orbit.wb.flushes", [this] { return stats_.wb_flushes; }, who);
    reg.AddCounter(prefix + "orbit.wb.snapshot_flushes",
                   [this] { return stats_.wb_snapshot_flushes; }, who);
  }
  reg.AddGauge(prefix + "orbit.entries", [this] { return lookup_.size(); }, who);

  // Data-plane structure counters: match-table traffic and per-stage
  // register pressure.
  reg.AddCounter(prefix + "rmt.s0.cache_lookup.lookups",
                 [this] { return lookup_.lookups(); }, who);
  reg.AddCounter(prefix + "rmt.s0.cache_lookup.hits",
                 [this] { return lookup_.hits(); }, who);
  auto add_array = [&reg, &prefix, &who](const rmt::RegisterArrayBase& arr) {
    reg.AddCounter(prefix + "rmt.s" + std::to_string(arr.stage()) + "." +
                       arr.array_name() + ".accesses",
                   [&arr] { return arr.accesses(); }, who);
  };
  add_array(valid_);
  add_array(epoch_);
  request_table_.RegisterTelemetry(reg, prefix);
  add_array(popularity_);
  add_array(hit_counter_);
  add_array(overflow_counter_);
  reg.AddCounter(prefix + "rmt.s6.clone_mcast.lookups",
                 [this] { return clone_groups_.lookups(); }, who);
  reg.AddCounter(prefix + "rmt.s6.clone_mcast.hits",
                 [this] { return clone_groups_.hits(); }, who);
  if (config_.multi_packet) {
    add_array(acked_frags_);
    add_array(fetched_frags_);
    add_array(frag_total_);
  }
  if (config_.write_back) {
    add_array(dirty_);
    add_array(version_);
    add_array(flush_pending_);
  }
}

IngressResult OrbitProgram::CloneToAddrAndRecirc(sim::Packet& pkt, Addr addr) {
  const int* group = clone_groups_.Lookup(addr);
  if (group == nullptr) {
    LOG_WARN("orbitcache: no clone group for addr " << addr
                                                    << "; unicasting");
    return IngressResult::ToAddr(addr);
  }
  (void)pkt;
  return IngressResult::Multicast(*group);
}

}  // namespace orbit::oc
