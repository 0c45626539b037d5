#include "netcache/program.h"

#include <cstring>

#include "common/check.h"
#include "telemetry/counters.h"
#include "telemetry/int/int.h"

namespace orbit::nc {

using rmt::IngressResult;

namespace {
// Count-min sketch geometry: 4 rows of 32-bit counters in hardware.
constexpr uint32_t kSketchRows = 4;
constexpr uint32_t kSketchWidth = 8192;
}  // namespace

NetProgram::NetProgram(rmt::SwitchDevice* device, const NetConfig& config)
    : device_(device),
      config_(config),
      lookup_(&device->resources(), "nc_lookup", /*stage=*/0, config.capacity,
              rmt::kMaxMatchKeyBytes, /*entry_bytes=*/4),
      valid_(&device->resources(), "nc_valid", /*stage=*/1, config.capacity),
      wepoch_(&device->resources(), "nc_wepoch", /*stage=*/1, config.capacity),
      vlen_(&device->resources(), "nc_vlen", /*stage=*/1, config.capacity),
      popularity_(&device->resources(), "nc_popularity", /*stage=*/1,
                  config.capacity),
      sketch_(kSketchRows, kSketchWidth) {
  ORBIT_CHECK(device != nullptr);
  ORBIT_CHECK_MSG(kStageValueBytes <=
                      device->resources().config().alu_bytes_per_stage,
                  "per-stage value bytes exceed the ALU limit");
  ORBIT_CHECK_MSG(2 + config.value_stages <=
                      device->resources().config().num_stages - 2,
                  "not enough stages for the requested value width");
  // One 8-byte word array per value stage: the n×k value ceiling.
  value_words_.reserve(static_cast<size_t>(config.value_stages));
  for (int s = 0; s < config.value_stages; ++s) {
    value_words_.push_back(std::make_unique<rmt::RegisterArray<uint64_t>>(
        &device->resources(), "nc_value_s" + std::to_string(s),
        /*stage=*/2 + s, config.capacity));
  }
  if (config.recirc_read_mode) {
    extended_values_.resize(config.capacity);
    // Account the extra slices' SRAM (they live in the same stages and are
    // addressed on later passes).
    rmt::ResourceEntry ext;
    ext.name = "nc_value_extended";
    ext.stage = 2;
    ext.sram_bytes = static_cast<uint64_t>(config.capacity) *
                     (config.recirc_read_max_bytes - bytes_per_pass());
    device->resources().Declare(ext);
  }
  // Count-min sketch accounting.
  rmt::ResourceEntry cm;
  cm.name = "nc_countmin";
  cm.stage = 2 + config.value_stages;
  cm.sram_bytes = static_cast<uint64_t>(kSketchRows) * kSketchWidth * 4;
  cm.alus = static_cast<int>(kSketchRows);
  device->resources().Declare(cm);
  // L3 forwarding accounting.
  rmt::ResourceEntry l3;
  l3.name = "ipv4_forward";
  l3.stage = 3 + config.value_stages;
  l3.match_key_bytes = 4;
  l3.sram_bytes = 4096 * 8;
  l3.tables = 1;
  device->resources().Declare(l3);
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

bool NetProgram::InsertEntry(const Key& key, uint32_t idx) {
  ORBIT_CHECK_MSG(idx < config_.capacity, "cache index out of range");
  if (!lookup_.Insert(key, idx)) return false;  // throws if key > 16B
  // Advancing the epoch (never restarting it) keeps a reply stamped for an
  // earlier binding of this index, or from before a reset, from matching.
  valid_.at(idx) = 0;
  wepoch_.at(idx)++;
  vlen_.at(idx) = 0;
  popularity_.at(idx) = 0;
  return true;
}

bool NetProgram::EraseEntry(const Key& key) { return lookup_.Erase(key); }

std::optional<uint32_t> NetProgram::FindIdx(const Key& key) const {
  const uint32_t* idx = lookup_.Lookup(key);
  if (idx == nullptr) return std::nullopt;
  return *idx;
}

std::vector<uint64_t> NetProgram::ReadAndResetPopularity() {
  std::vector<uint64_t> out(config_.capacity, 0);
  for (size_t i = 0; i < config_.capacity; ++i) {
    out[i] = popularity_.at(i);
    popularity_.at(i) = 0;
  }
  return out;
}

std::vector<std::pair<Key, uint64_t>> NetProgram::DrainHotReports() {
  std::vector<std::pair<Key, uint64_t>> out;
  out.swap(hot_reports_);
  reported_.clear();
  return out;
}

std::vector<Key> NetProgram::DrainSelfEvictions() {
  std::vector<Key> out;
  out.swap(self_evictions_);
  return out;
}

void NetProgram::ResetDataPlane() {
  lookup_.Clear();
  valid_.Fill(0);
  // Write epochs survive the reset (see InsertEntry).
  vlen_.Fill(0);
  popularity_.Fill(0);
  for (auto& words : value_words_) words->Fill(0);
  for (auto& ext : extended_values_) ext.clear();
  sketch_.Reset();
  hot_reports_.clear();
  reported_.clear();
  self_evictions_.clear();
}

// ---------------------------------------------------------------------------
// Value word registers
// ---------------------------------------------------------------------------

void NetProgram::StoreValue(uint32_t idx, const std::string& bytes) {
  ORBIT_CHECK(bytes.size() <= max_value_bytes());
  vlen_.at(idx) = static_cast<uint16_t>(bytes.size());
  const size_t first_pass = std::min<size_t>(bytes.size(), bytes_per_pass());
  for (size_t s = 0; s < value_words_.size(); ++s) {
    uint64_t word = 0;
    const size_t off = s * kStageValueBytes;
    if (off < first_pass) {
      const size_t n =
          std::min<size_t>(kStageValueBytes, first_pass - off);
      std::memcpy(&word, bytes.data() + off, n);
    }
    value_words_[s]->at(idx) = word;
  }
  if (config_.recirc_read_mode)
    extended_values_[idx] = bytes.substr(first_pass);
}

std::string NetProgram::LoadValue(uint32_t idx) const {
  const size_t len = vlen_.at(idx);
  const size_t first_pass = std::min<size_t>(len, bytes_per_pass());
  std::string bytes(first_pass, '\0');
  for (size_t s = 0; s * kStageValueBytes < first_pass; ++s) {
    const uint64_t word = value_words_[s]->at(idx);
    const size_t off = s * kStageValueBytes;
    const size_t n =
        std::min<size_t>(kStageValueBytes, first_pass - off);
    std::memcpy(bytes.data() + off, &word, n);
  }
  if (config_.recirc_read_mode) bytes += extended_values_[idx];
  return bytes;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

IngressResult NetProgram::Ingress(sim::Packet& pkt, rmt::SwitchDevice& sw) {
  (void)sw;
  if (!IsOrbit(pkt)) return IngressResult::ToAddr(pkt.dst);

  using proto::Op;
  switch (pkt.msg.op) {
    case Op::kReadReq:
      return HandleReadRequest(pkt);
    case Op::kWriteReq:
      return HandleWriteRequest(pkt);
    case Op::kWriteRep:
    case Op::kFetchRep:
      return HandleValueReply(pkt);
    case Op::kFetchReq:
      // Stamp the entry's current write epoch so the fetch reply can prove
      // no write overtook it while the value was in flight.
      if (const uint32_t* idxp = lookup_.Lookup(pkt.msg.key))
        pkt.msg.epoch = wepoch_.at(*idxp);
      return IngressResult::ToAddr(pkt.dst);
    case Op::kCorrectionReq:  // not part of NetCache; forward like a read
    case Op::kReadRep:
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

IngressResult NetProgram::HandleReadRequest(sim::Packet& pkt) {
  if (!pkt.from_recirc) ++stats_.read_requests;
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.key);
  if (idxp == nullptr) {
    ++stats_.read_misses;
    device_->Note(pkt, "lookup_miss");
    // Heavy-hitter detection for uncached keys.
    sketch_.Update(pkt.msg.key);
    if (sketch_.Estimate(pkt.msg.key) >= config_.hot_threshold &&
        reported_.insert(pkt.msg.key).second) {
      hot_reports_.emplace_back(pkt.msg.key, sketch_.Estimate(pkt.msg.key));
      ++stats_.hot_reports;
    }
    return IngressResult::ToAddr(pkt.dst);
  }
  const uint32_t idx = *idxp;
  if (!pkt.from_recirc) {
    ++stats_.read_hits;
    popularity_.at(idx)++;
  }
  if (valid_.at(idx) == 0) {
    ++stats_.invalid_to_server;
    device_->Note(pkt, "lookup_hit:invalid_bypass");
    return IngressResult::ToAddr(pkt.dst);
  }
  if (config_.recirc_read_mode) {
    // §2.2 strawman: one pass reads bytes_per_pass() of the value, so a
    // request must recirculate ceil(len/pass)-1 times before the reply can
    // leave — consuming the single recirculation port per request.
    const uint32_t len = vlen_.at(idx);
    const uint32_t passes =
        (len + bytes_per_pass() - 1) / std::max(1u, bytes_per_pass());
    if (passes > 1 && pkt.recirc_count + 1 < passes) {
      ++stats_.request_recircs;
      device_->Note(pkt, "recirc_read_pass");
      return IngressResult::Recirculate();
    }
  }
  // Serve from switch memory: bounce the request back as a reply.
  const Addr client = pkt.src;
  const L4Port client_port = pkt.sport;
  pkt.msg.op = proto::Op::kReadRep;
  pkt.msg.cached = 1;
  pkt.msg.value = kv::Value::FromBytes(LoadValue(idx));
  pkt.src = pkt.dst;
  pkt.dst = client;
  pkt.sport = config_.orbit_port;
  pkt.dport = client_port;
  ++stats_.served_by_cache;
  if (int_ != nullptr)
    int_->Record(int_hist_value_, static_cast<int64_t>(pkt.msg.value.size()));
  device_->Note(pkt, "lookup_hit:serve");
  return IngressResult::ToAddr(client);
}

IngressResult NetProgram::HandleWriteRequest(sim::Packet& pkt) {
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.key);
  if (idxp == nullptr) {
    ++stats_.writes_uncached;
    return IngressResult::ToAddr(pkt.dst);
  }
  ++stats_.writes_cached;
  valid_.at(*idxp) = 0;
  wepoch_.at(*idxp)++;
  pkt.msg.epoch = wepoch_.at(*idxp);
  pkt.msg.flag |= proto::kFlagCachedWrite;
  return IngressResult::ToAddr(pkt.dst);
}

IngressResult NetProgram::HandleValueReply(sim::Packet& pkt) {
  const bool carries_value =
      pkt.msg.op == proto::Op::kFetchRep ||
      (pkt.msg.flag & proto::kFlagCachedWrite) != 0;
  const uint32_t* idxp = lookup_.Lookup(pkt.msg.key);
  if (idxp == nullptr || !carries_value) return IngressResult::ToAddr(pkt.dst);
  const uint32_t idx = *idxp;
  if (pkt.msg.epoch != wepoch_.at(idx)) {
    // A newer write passed the switch after this reply's value was read:
    // revalidating would resurrect a stale value (e.g. when the newest
    // write's own reply is lost). Forward without touching the cache; the
    // entry stays invalid until a current-epoch reply arrives.
    ++stats_.stale_revalidations;
    device_->Note(pkt, "stale_revalidation_skip");
    return IngressResult::ToAddr(pkt.dst);
  }
  const std::string bytes = pkt.msg.value.Materialize(pkt.msg.key);
  if (bytes.size() > max_value_bytes()) {
    // The n×k ceiling: this item cannot live in switch memory after all.
    lookup_.Erase(pkt.msg.key);
    self_evictions_.push_back(pkt.msg.key);
    ++stats_.uncacheable_values;
    return IngressResult::ToAddr(pkt.dst);
  }
  StoreValue(idx, bytes);
  valid_.at(idx) = 1;
  ++stats_.validations;
  device_->Note(pkt, "validate");
  return IngressResult::ToAddr(pkt.dst);
}

void NetProgram::OnIntAttached(telemetry::IntSink& sink) {
  int_ = &sink;
  int_hist_value_ = sink.Hist("value.bytes", "bytes");
}

void NetProgram::RegisterTelemetry(telemetry::Registry& reg,
                                   const std::string& prefix) {
  const std::string who = "NetProgram::RegisterTelemetry(" + prefix + ")";
  reg.AddCounter(prefix + "netcache.read_requests",
                 [this] { return stats_.read_requests; }, who);
  reg.AddCounter(prefix + "netcache.read_hits", [this] { return stats_.read_hits; }, who);
  reg.AddCounter(prefix + "netcache.read_misses",
                 [this] { return stats_.read_misses; }, who);
  reg.AddCounter(prefix + "netcache.served_by_cache",
                 [this] { return stats_.served_by_cache; }, who);
  reg.AddCounter(prefix + "netcache.invalid_to_server",
                 [this] { return stats_.invalid_to_server; }, who);
  reg.AddCounter(prefix + "netcache.writes_cached",
                 [this] { return stats_.writes_cached; }, who);
  reg.AddCounter(prefix + "netcache.writes_uncached",
                 [this] { return stats_.writes_uncached; }, who);
  reg.AddCounter(prefix + "netcache.validations",
                 [this] { return stats_.validations; }, who);
  reg.AddCounter(prefix + "netcache.stale_revalidations",
                 [this] { return stats_.stale_revalidations; }, who);
  reg.AddCounter(prefix + "netcache.uncacheable_values",
                 [this] { return stats_.uncacheable_values; }, who);
  reg.AddCounter(prefix + "netcache.hot_reports",
                 [this] { return stats_.hot_reports; }, who);
  reg.AddCounter(prefix + "netcache.request_recircs",
                 [this] { return stats_.request_recircs; }, who);
  reg.AddGauge(prefix + "netcache.entries", [this] { return lookup_.size(); }, who);

  reg.AddCounter(prefix + "rmt.s0.nc_lookup.lookups",
                 [this] { return lookup_.lookups(); }, who);
  reg.AddCounter(prefix + "rmt.s0.nc_lookup.hits", [this] { return lookup_.hits(); }, who);
  auto add_array = [&reg, &prefix, &who](const rmt::RegisterArrayBase& arr) {
    reg.AddCounter(prefix + "rmt.s" + std::to_string(arr.stage()) + "." +
                       arr.array_name() + ".accesses",
                   [&arr] { return arr.accesses(); }, who);
  };
  add_array(valid_);
  add_array(wepoch_);
  add_array(vlen_);
  add_array(popularity_);
  for (const auto& words : value_words_) add_array(*words);
}

}  // namespace orbit::nc
