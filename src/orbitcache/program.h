// The OrbitCache switch data-plane program (paper §3, Fig. 2/4).
//
// Unlike NetCache, no item bytes live in switch memory. Cached key-value
// pairs circulate through the pipeline as "cache packets" (read replies
// looping via the recirculation port); the data plane keeps only small
// per-entry state:
//
//   stage 0   lookup table    hkey (16B hash)  -> CacheIdx
//   stage 1   state table     valid[CacheIdx], write_epoch[CacheIdx]
//   stages 2-4 request table  per-key circular queues of request metadata
//   stage 5   key counters    popularity[CacheIdx], hit/overflow registers
//   stage 6   cloning module  dst addr -> PRE multicast group
//   stage 7   multi-packet extension counters (when enabled)
//   stage 8   L3 forwarding
//
// Ingress behaviour follows Fig. 4:
//   R-REQ hit+valid  -> enqueue metadata, drop the request
//   R-REQ overflow/invalid/miss -> forward to the storage server
//   cache packet (reply from the recirc port): dequeue a pending request
//     and multicast {client port, recirc port} — the PRE clone keeps the
//     item orbiting — or recirculate when no request is pending; dropped
//     when evicted or invalid so readers can never see stale values
//   W-REQ hit -> invalidate, flag, forward; W-REP/F-REP hit -> validate,
//     clone (reply to client/controller + new cache packet)
//   CRN-REQ -> bypass the cache logic entirely
//
// Deviation from the paper (documented in DESIGN.md): a per-entry write
// *epoch* stamped into requests and echoed by servers. The paper's binary
// valid/invalid protocol lets two overlapping writes revalidate an entry
// while an older cache packet still orbits (a stale-read window); with the
// guard, replies from superseded writes do not revalidate and superseded
// cache packets are dropped on their next pass. `epoch_guard=false`
// reproduces the paper's exact protocol (and the race, which a test
// demonstrates).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "orbitcache/request_table.h"
#include "rmt/match_table.h"
#include "rmt/register_array.h"
#include "rmt/switch.h"

namespace orbit::oc {

struct OrbitConfig {
  // Maximum number of cache entries the data-plane arrays support; the
  // controller may use fewer (dynamic cache sizing, §3.10).
  size_t capacity = 1024;
  size_t queue_size = 8;  // S, per-key request queue depth (§4)
  L4Port orbit_port = 5008;

  bool epoch_guard = true;
  // Ablation: serve one request per fetched cache packet and refetch from
  // the server instead of PRE cloning (the §3.5 strawman).
  bool enable_cloning = true;
  // §3.10 extensions.
  bool write_back = false;
  bool multi_packet = false;
};

// Clone-group table size (stage 6): one PRE group per routed address, so
// it bounds how many hosts one OrbitCache switch can route to.
inline constexpr size_t kCloneGroupCapacity = 256;

// Extension FLAG bits live in proto/message.h (kFlagDirty, kFlagFlush).
using proto::kFlagDirty;
using proto::kFlagFlush;

class OrbitProgram : public rmt::SwitchProgram {
 public:
  OrbitProgram(rmt::SwitchDevice* device, const OrbitConfig& config);

  // ---- data plane --------------------------------------------------------
  rmt::IngressResult Ingress(sim::Packet& pkt, rmt::SwitchDevice& sw) override;

  // ---- control plane (controller-facing) ---------------------------------
  // Binds a cache index to a key hash. Pending requests of a previously
  // bound key are intentionally kept (§3.8: the new cache packet answers
  // them; clients resolve the key mismatch). Returns false when full.
  bool InsertEntry(const Hash128& hkey, uint32_t idx);
  bool EraseEntry(const Hash128& hkey);
  std::optional<uint32_t> FindIdx(const Hash128& hkey) const;
  size_t num_entries() const { return lookup_.size(); }

  // Points `addr`'s clone destination, multicast group {port, recirc}, at
  // `port`, registering the group on first use. The device calls this for
  // every AddRoute (OnRoute), so clone groups follow the L3 table.
  void RegisterCloneTarget(Addr addr, int port);

  // Write-back snapshotting (§3.10 names snapshot generation as the module
  // write-back needs; FarReach-style). Marks every dirty entry for flush;
  // on each marked entry's next pass its cache packet forks — one copy
  // carries the value to the storage server as a silent flush write, the
  // clone keeps orbiting (now clean). Bounds the data loss window of a
  // switch failure to one snapshot period. Returns how many entries were
  // marked.
  size_t RequestSnapshot();

  // Reads and clears the per-entry popularity counters.
  std::vector<uint64_t> ReadAndResetPopularity();
  // Reads and clears the cache-hit / overflow registers (cache sizing).
  struct HitOverflow {
    uint64_t hits = 0;
    uint64_t overflows = 0;
  };
  HitOverflow ReadAndResetHitOverflow();

  // The no-cloning ablation's two notifications to the switch CPU, wired
  // to the controller node. A serve or a write reply leaves the entry
  // without a cache packet and asks for a refetch. A fetch reply kept as
  // the entry's cache packet never reaches the controller, so the program
  // reports that its fetch completed.
  using RefetchFn =
      std::function<void(const Key& key, const Hash128& hkey, Addr server)>;
  using FetchedFn = std::function<void(const Key& key)>;
  void SetRefetchFn(RefetchFn fn) { refetch_ = std::move(fn); }
  void SetFetchedFn(FetchedFn fn) { fetched_ = std::move(fn); }

  // Verification layer (src/verify/): observes write-back version mints,
  // data-plane resets, and (via the request table) ring-state invariants.
  // Null disables; never feeds back into forwarding decisions.
  void SetVerifier(verify::Verifier* verifier) {
    verifier_ = verifier;
    request_table_.SetVerifier(verifier);
  }

  // ---- introspection (tests & experiments) -------------------------------
  const OrbitConfig& config() const { return config_; }
  bool IsValid(uint32_t idx) const { return valid_.at(idx) != kInvalid; }
  // Non-counting census of the valid entries whose cache packet orbits —
  // all of them, except those awaiting a no-cloning refetch — for the
  // verification layer's orbit check (IsValid's at() would perturb the
  // accesses() telemetry).
  size_t CountValidEntries() const {
    size_t n = 0;
    for (uint32_t i = 0; i < config_.capacity; ++i)
      if (valid_.peek(i) == kValid) ++n;
    return n;
  }
  uint32_t EpochOf(uint32_t idx) const { return epoch_.at(idx); }
  RequestTable& request_table() { return request_table_; }

  struct Stats {
    uint64_t read_requests = 0;
    uint64_t read_hits = 0;         // lookup hits on R-REQ
    uint64_t read_misses = 0;
    uint64_t absorbed = 0;          // metadata enqueued, request dropped
    uint64_t overflow_to_server = 0;
    uint64_t invalid_to_server = 0;
    uint64_t served_by_cache = 0;   // cache packets forwarded to clients
    uint64_t cp_drop_evicted = 0;   // cache packet drops: lookup miss
    uint64_t cp_drop_invalid = 0;
    uint64_t cp_drop_epoch = 0;     // epoch-guard drops
    uint64_t writes_cached = 0;
    uint64_t writes_uncached = 0;
    uint64_t validations = 0;       // W-REP/F-REP that revalidated an entry
    uint64_t stale_validations_skipped = 0;
    uint64_t corrections_forwarded = 0;
    uint64_t refetches = 0;         // no-cloning ablation
    uint64_t wb_returned_replies = 0;  // write-back: W-REPs minted by switch
    uint64_t wb_flushes = 0;           // write-back: eviction flushes
    uint64_t wb_snapshot_flushes = 0;  // write-back: snapshot flushes
  };
  const Stats& stats() const { return stats_; }

 private:
  // valid_ values. Without cloning a serve sends the entry's only cache
  // packet to the client: the entry stays valid, so reads still queue,
  // but awaits its refetched packet.
  static constexpr uint8_t kInvalid = 0;
  static constexpr uint8_t kValid = 1;
  static constexpr uint8_t kAwaitingRefetch = 2;

  // RegisterCloneTarget: a rerouted address's cache packets fork toward
  // its new uplink.
  void OnRoute(Addr addr, int port) override;
  // ASIC reboot (§3.9), after the device flushed the recirculation loop:
  // all data-plane state — lookup entries, validity, queues, counters — is
  // wiped. Clone groups survive with the routes. The controller rebuilds
  // the cache afterwards.
  void ResetDataPlane() override;
  // INT: always-on orbit-count-per-serve and served-value-size histograms.
  void OnIntAttached(telemetry::IntSink& sink) override;
  // Registers orbit.* outcome counters plus per-table / per-stage register
  // access counters ("rmt.s<stage>.<name>.*") against `reg`. Hop stamps
  // go through the owning device (SwitchDevice::Note / NoteCacheWait).
  void RegisterTelemetry(telemetry::Registry& reg,
                         const std::string& prefix) override;

  bool IsOrbit(const sim::Packet& pkt) const {
    return pkt.dport == config_.orbit_port || pkt.sport == config_.orbit_port;
  }

  rmt::IngressResult HandleReadRequest(sim::Packet& pkt);
  rmt::IngressResult HandleWriteRequest(sim::Packet& pkt);
  rmt::IngressResult HandleCachePacket(sim::Packet& pkt,
                                       rmt::SwitchDevice& sw);
  rmt::IngressResult HandleServerReply(sim::Packet& pkt);
  rmt::IngressResult ServeOrRecirculate(sim::Packet& pkt, uint32_t idx,
                                        rmt::SwitchDevice& sw);
  rmt::IngressResult CloneToAddrAndRecirc(sim::Packet& pkt, Addr addr);

  rmt::SwitchDevice* device_;
  OrbitConfig config_;

  rmt::ExactMatchTable<Hash128, uint32_t> lookup_;
  rmt::RegisterArray<uint8_t> valid_;
  rmt::RegisterArray<uint32_t> epoch_;
  RequestTable request_table_;
  rmt::RegisterArray<uint64_t> popularity_;
  rmt::Register<uint64_t> hit_counter_;
  rmt::Register<uint64_t> overflow_counter_;
  rmt::ExactMatchTable<Addr, int> clone_groups_;
  // §3.10 multi-packet extension state.
  rmt::RegisterArray<uint8_t> acked_frags_;
  rmt::RegisterArray<uint8_t> fetched_frags_;
  rmt::RegisterArray<uint8_t> frag_total_;
  // Write-back extension: entry has unflushed data, plus the per-entry
  // value version. The switch is the serialization point for write-back
  // writes, so it must own version assignment: the register is loaded from
  // every fetched/validated value and incremented by each absorbed write.
  rmt::RegisterArray<uint8_t> dirty_;
  rmt::RegisterArray<uint64_t> version_;
  rmt::RegisterArray<uint8_t> flush_pending_;  // snapshot in progress

  int next_group_id_ = 1;
  RefetchFn refetch_;
  FetchedFn fetched_;
  Stats stats_;
  verify::Verifier* verifier_ = nullptr;  // not owned; null = no checks

  // INT histogram handles (zero when no sink is attached).
  telemetry::IntSink* int_ = nullptr;
  uint32_t int_hist_orbit_ = 0;
  uint32_t int_hist_value_ = 0;
};

}  // namespace orbit::oc
