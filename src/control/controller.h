// The cache control plane of both in-network caches (paper §3.8, §3.9,
// Fig. 8).
//
// The controller runs on the switch CPU: it owns the cache-entry set and
// the data-plane index pool, performs periodic cache updates from the data
// plane's per-entry popularity counters (cached keys) and reported counts
// of uncached candidates, and fetches values into the data plane with
// F-REQ/F-REP exchanges. After a switch failure it re-installs every entry
// it tracks and refetches the values (§3.9).
//
// Register access (counter reads, lookup-table updates) is a direct call
// into the program, as over PCIe; packet exchange (F-REQ/F-REP, top-k
// reports) flows through a regular switch port the controller is attached
// to, using UDP plus timeout-based retransmission (§3.9). Each scheme
// supplies the hooks below (oc::Controller, nc::NetController).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "kv/partition.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace orbit::ctrl {

struct ControllerConfig {
  size_t cache_size = 128;       // current target entry count
  size_t min_cache_size = 32;    // dynamic-sizing floor
  size_t max_cache_size = 1024;  // dynamic-sizing ceiling (≤ program capacity)
  bool dynamic_sizing = false;
  double overflow_threshold = 0.01;  // 1% (paper §3.10)
  size_t sizing_step = 16;

  SimTime update_period = 100 * kMillisecond;
  // Write-back snapshot cadence (0 = off): every period the controller
  // asks the data plane to flush all dirty entries, bounding the loss
  // window of a switch failure (§3.10).
  SimTime snapshot_period = 0;
  SimTime fetch_timeout = 2 * kMillisecond;
  int max_fetch_attempts = 5;

  L4Port orbit_port = 5008;
};

class CacheController : public sim::Node, public sim::TimerHandler {
 public:
  // Timers and the refetch callback hold the controller's address.
  CacheController(const CacheController&) = delete;
  CacheController& operator=(const CacheController&) = delete;

  // Installs `keys` as the initial cache (rank order, inadmissible keys
  // skipped) and fetches their values. Call before starting the workload.
  void Preload(const std::vector<Key>& keys) {
    Install(keys, config_.cache_size);
  }

  // Starts the periodic update timer.
  void Start();

  // Switch-failure recovery (§3.9): after the data plane was wiped, the
  // controller re-installs every entry it tracks and refetches the values —
  // the paper observes this is equivalent to a radical popularity change
  // and completes quickly.
  void RebuildCache();

  // Degraded-mode top-up (fabric leaf crash): installs keys beyond the
  // cache_size target — bounded only by data-plane capacity — so a
  // surviving leaf can absorb its rack's next-hottest keys while a sibling
  // leaf is in bypass. Extras are not pinned: the next update tick ranks
  // them with the other cached keys and trims the set back to cache_size,
  // keeping the hottest. Returns how many keys were actually installed.
  // WithdrawKey removes one cached key; returns false if it was not cached.
  size_t InstallExtra(const std::vector<Key>& keys) {
    return Install(keys, capacity_);
  }
  bool WithdrawKey(const Key& key) { return Evict(key, /*erase_entry=*/true); }

  void OnPacket(sim::PacketPtr pkt, int port) override;
  // Timer demux: the periodic update tick or the rebuild-sweep deadline.
  void OnTimer(uint64_t arg) override;

  size_t current_cache_size() const { return config_.cache_size; }
  size_t num_cached() const { return by_key_.size(); }
  bool IsCached(const Key& key) const { return by_key_.count(key) > 0; }

  struct Stats {
    uint64_t updates = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t fetches_sent = 0;
    uint64_t fetch_retries = 0;
    uint64_t fetch_failures = 0;
    uint64_t reports_received = 0;
    uint64_t size_increases = 0;  // OrbitCache dynamic sizing
    uint64_t size_decreases = 0;
    uint64_t snapshot_entries_flushed = 0;  // OrbitCache write-back
    uint64_t skipped_wide_keys = 0;         // NetCache match-key limit
    uint64_t blacklisted_values = 0;        // NetCache value limit
  };
  const Stats& stats() const { return stats_; }

 protected:
  // `capacity` is the data plane's entry count: the index pool covers all
  // of it, and cache_size only limits how many are in normal use.
  CacheController(sim::Simulator* sim, sim::Network* net,
                  const kv::Partitioner* partitioner,
                  std::vector<Addr> server_addrs, Addr self_addr,
                  int self_port, const ControllerConfig& config,
                  size_t capacity);

  // ---- per-scheme hooks ---------------------------------------------------
  // The data-plane lookup entry of a key, and per-index hit counts since
  // the last read.
  virtual bool InsertEntry(const Key& key, const Hash128& hkey,
                           uint32_t idx) = 0;
  virtual void EraseEntry(const Key& key, const Hash128& hkey) = 0;
  virtual std::vector<uint64_t> ReadAndResetPopularity() = 0;
  // Whether the data plane can hold `key` at all.
  virtual bool Admit(const Key& /*key*/) { return true; }
  // Update-tick steps right before and right after replacement.
  virtual void BeforeUpdate() {}
  virtual void AfterUpdate() {}

  // Adds `count` to an uncached candidate's popularity this period.
  void Report(const Key& key, uint64_t count) { reported_[key] += count; }
  // Drops `key` from the entry set and frees its index; `erase_entry`
  // also removes its data-plane entry (false when the data plane dropped
  // it on its own). Returns false if `key` was not cached.
  bool Evict(const Key& key, bool erase_entry);
  void SendFetch(const Key& key, const Hash128& hkey, Addr server);
  // Ends `key`'s pending fetch: its reply reached the controller, or the
  // data plane kept it as the key's cache packet.
  void FetchDone(const Key& key) { pending_fetches_.erase(key); }

  // The core's timer arguments; a scheme's own timers pick others.
  static constexpr uint64_t kTickArg = 0;
  static constexpr uint64_t kRebuildSweepArg = 1;

  sim::Simulator* sim_;
  ControllerConfig config_;
  Stats stats_;

 private:
  struct CachedEntry {
    Key key;
    Hash128 hkey;
    uint32_t idx = 0;
    uint64_t last_count = 0;
  };
  struct PendingFetch {
    Key key;
    Hash128 hkey;
    Addr server = kInvalidAddr;
    int attempts = 0;
    SimTime deadline = 0;
  };

  // Installs the uncached admissible `keys` in order while fewer than
  // `limit` are cached; returns how many went in.
  size_t Install(const std::vector<Key>& keys, size_t limit);
  void Tick();
  void UpdateCacheEntries();
  void InsertKey(const Key& key, uint32_t idx);
  void EvictIdx(uint32_t idx, bool erase_entry = true);
  void CheckFetchTimeouts();
  void ArmRebuildSweep();
  uint32_t AllocIdx();
  Addr ServerFor(const Key& key) const {
    return server_addrs_[partitioner_->ServerFor(key)];
  }

  sim::Network* net_;
  const kv::Partitioner* partitioner_;
  std::vector<Addr> server_addrs_;
  Addr self_addr_;
  int self_port_;
  size_t capacity_;

  std::unordered_map<uint32_t, CachedEntry> by_idx_;
  std::unordered_map<Key, uint32_t> by_key_;
  std::vector<uint32_t> free_idxs_;
  // Uncached-key popularity accumulated this period.
  std::unordered_map<Key, uint64_t> reported_;
  std::unordered_map<Key, PendingFetch> pending_fetches_;
  uint32_t fetch_seq_ = 1;
  bool started_ = false;
  bool rebuild_sweep_armed_ = false;
};

}  // namespace orbit::ctrl
