// NetCache-style baseline data plane (Jin et al., SOSP'17), the reference
// architecture of the systems OrbitCache compares against (§2.1, §5.1).
//
// Items live *in switch memory*: the lookup table matches on the item key
// itself (hence the 16-byte hardware match-key ceiling) and the value is
// striped as 8-byte words across a fixed set of match-action stages (hence
// the stages × bytes-per-stage value ceiling — 8 × 8B = 64B here, matching
// the baseline build the paper itself evaluates). Items that violate either
// limit are simply not cacheable, which is the behaviour the motivation
// experiments quantify.
//
// Hot uncached keys are detected with a data-plane count-min sketch plus a
// dedicated report set (standing in for NetCache's bloom filter) that the
// controller drains periodically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "rmt/match_table.h"
#include "rmt/register_array.h"
#include "rmt/switch.h"
#include "workload/count_min.h"

namespace orbit::nc {

// NetCache's item limits, read by the program, its controller and
// testbed::NetCacheCanCache. A key may be at most rmt::kMaxMatchKeyBytes
// wide; a value is striped as kStageValueBytes words across value_stages
// stages, kMaxValueBytes with the default stage count.
inline constexpr int kValueStages = 8;
inline constexpr uint32_t kStageValueBytes = 8;  // ALU-accessible per stage
inline constexpr uint32_t kMaxValueBytes = kValueStages * kStageValueBytes;
// The recirc-read strawman's value ceiling (see NetConfig).
inline constexpr uint32_t kRecircReadMaxBytes = 1024;

struct NetConfig {
  size_t capacity = 10000;
  int value_stages = kValueStages;  // stages devoted to value words
  L4Port orbit_port = 5008;

  uint64_t hot_threshold = 64;  // sketch estimate that triggers a report

  // The §2.2 strawman OrbitCache argues against: read values larger than
  // one pipeline pass by *recirculating the request*, one pass per
  // n×k-byte slice, up to `recirc_read_max_bytes`. Every cache hit then
  // occupies the single recirculation port ceil(len/64)-1 times — the
  // per-request recirculation load that caps throughput (the rationale
  // bench measures the ceiling).
  bool recirc_read_mode = false;
  uint32_t recirc_read_max_bytes = kRecircReadMaxBytes;
};

class NetProgram : public rmt::SwitchProgram {
 public:
  NetProgram(rmt::SwitchDevice* device, const NetConfig& config);

  rmt::IngressResult Ingress(sim::Packet& pkt, rmt::SwitchDevice& sw) override;

  // ---- control plane ------------------------------------------------------
  // Bytes one pipeline pass can read from the value registers.
  uint32_t bytes_per_pass() const {
    return static_cast<uint32_t>(config_.value_stages) * kStageValueBytes;
  }
  // Largest storable value: one pass normally; the recirc-read strawman
  // stretches it by spending extra passes.
  uint32_t max_value_bytes() const {
    return config_.recirc_read_mode ? config_.recirc_read_max_bytes
                                    : bytes_per_pass();
  }
  // Returns false when the table is full; throws when the key is wider than
  // the hardware match key.
  bool InsertEntry(const Key& key, uint32_t idx);
  bool EraseEntry(const Key& key);
  std::optional<uint32_t> FindIdx(const Key& key) const;
  size_t num_entries() const { return lookup_.size(); }
  bool IsValid(uint32_t idx) const { return valid_.at(idx) != 0; }

  std::vector<uint64_t> ReadAndResetPopularity();
  // Hot uncached keys observed since the last drain (key, sketch estimate).
  std::vector<std::pair<Key, uint64_t>> DrainHotReports();
  // Keys the data plane evicted itself (fetched value exceeded the limit).
  std::vector<Key> DrainSelfEvictions();
  void ResetSketch() { sketch_.Reset(); }

  struct Stats {
    uint64_t read_requests = 0;
    uint64_t read_hits = 0;
    uint64_t read_misses = 0;
    uint64_t served_by_cache = 0;
    uint64_t invalid_to_server = 0;
    uint64_t writes_cached = 0;
    uint64_t writes_uncached = 0;
    uint64_t validations = 0;
    uint64_t stale_revalidations = 0;  // replies rejected by the epoch guard
    uint64_t uncacheable_values = 0;   // fetch produced an over-limit value
    uint64_t hot_reports = 0;
    uint64_t request_recircs = 0;  // recirc-read strawman passes
  };
  const Stats& stats() const { return stats_; }

  const NetConfig& config() const { return config_; }

 private:
  // ASIC reboot, after the device's recirculation flush retired any
  // recirculating read (recirc_read_mode): lookup table, validity/epoch/
  // value registers, sketch and report state are wiped. Routes survive.
  void ResetDataPlane() override;
  // INT: always-on served-value-size histogram (shared "value.bytes").
  void OnIntAttached(telemetry::IntSink& sink) override;
  // Registers netcache.* outcome counters and per-table / per-stage
  // register access counters against `reg`.
  void RegisterTelemetry(telemetry::Registry& reg,
                         const std::string& prefix) override;

  bool IsOrbit(const sim::Packet& pkt) const {
    return pkt.dport == config_.orbit_port || pkt.sport == config_.orbit_port;
  }

  rmt::IngressResult HandleReadRequest(sim::Packet& pkt);
  rmt::IngressResult HandleWriteRequest(sim::Packet& pkt);
  rmt::IngressResult HandleValueReply(sim::Packet& pkt);

  // Value word registers <-> bytes.
  void StoreValue(uint32_t idx, const std::string& bytes);
  std::string LoadValue(uint32_t idx) const;

  rmt::SwitchDevice* device_;
  NetConfig config_;

  rmt::ExactMatchTable<Key, uint32_t> lookup_;
  rmt::RegisterArray<uint8_t> valid_;
  // Per-entry write epoch (the OrbitCache epoch guard applied to the
  // baseline): bumped by every cached write request, stamped into the
  // request (servers echo it), and required to match before a value reply
  // may revalidate the entry. Without it, losing the newest write's reply
  // lets an older in-flight reply revalidate the cache with a stale value.
  rmt::RegisterArray<uint32_t> wepoch_;
  rmt::RegisterArray<uint16_t> vlen_;  // stored value length
  rmt::RegisterArray<uint64_t> popularity_;
  std::vector<std::unique_ptr<rmt::RegisterArray<uint64_t>>> value_words_;
  // Recirc-read strawman: slices beyond the first pass (modeling further
  // stage groups reachable only on later passes).
  std::vector<std::string> extended_values_;
  wl::CountMin sketch_;

  std::vector<std::pair<Key, uint64_t>> hot_reports_;
  std::unordered_set<Key> reported_;  // bloom-filter stand-in
  std::vector<Key> self_evictions_;

  // INT histogram handles (zero when no sink is attached).
  telemetry::IntSink* int_ = nullptr;
  uint32_t int_hist_value_ = 0;

  Stats stats_;
};

}  // namespace orbit::nc
