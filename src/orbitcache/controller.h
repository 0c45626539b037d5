// The OrbitCache control plane (paper §3.8, Fig. 8) on the shared
// controller core: entries match on the key hash, candidates are the
// servers' top-k reports, and on top of the core it runs §3.10's dynamic
// cache sizing and write-back snapshots and the no-cloning refetch.
#pragma once

#include <deque>
#include <string>

#include "control/controller.h"
#include "orbitcache/program.h"

namespace orbit::oc {

class Controller : public ctrl::CacheController {
 public:
  // Registers itself as `program`'s refetch and fetch-completion target
  // (no-cloning ablation).
  Controller(sim::Simulator* sim, sim::Network* net, OrbitProgram* program,
             const kv::Partitioner* partitioner,
             std::vector<Addr> server_addrs, Addr self_addr, int self_port,
             const ctrl::ControllerConfig& config);

  std::string name() const override { return "controller"; }
  // The refetch timer, else the core's timers.
  void OnTimer(uint64_t arg) override;

 private:
  struct Refetch {
    Key key;
    Hash128 hkey;
    Addr server = kInvalidAddr;
  };
  static constexpr uint64_t kRefetchArg = kRebuildSweepArg + 1;

  bool InsertEntry(const Key&, const Hash128& hkey, uint32_t idx) override {
    return program_->InsertEntry(hkey, idx);
  }
  void EraseEntry(const Key&, const Hash128& hkey) override {
    program_->EraseEntry(hkey);
  }
  std::vector<uint64_t> ReadAndResetPopularity() override {
    return program_->ReadAndResetPopularity();
  }
  // Dynamic sizing, then the write-back snapshot.
  void AfterUpdate() override;
  void AdjustCacheSize();
  // Schedules a refetch of `key` from `server` after the CPU turnaround.
  void RequestRefetch(const Key& key, const Hash128& hkey, Addr server);

  OrbitProgram* program_;
  SimTime last_snapshot_ = 0;
  // Requested refetches in request order. Every one waits the same CPU
  // turnaround, so their timers fire in this order too.
  std::deque<Refetch> refetches_;
};

}  // namespace orbit::oc
