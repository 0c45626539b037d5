// The NetCache control plane on the shared controller core: entries match
// on the key itself, so keys wider than the hardware match key are
// inadmissible, and candidates are the data-plane count-min reports. Keys
// whose fetched values exceed the n×k value ceiling are self-evicted by
// the data plane and blacklisted here — NetCache simply cannot cache them,
// which is the paper's core motivation.
#pragma once

#include <string>
#include <unordered_set>

#include "control/controller.h"
#include "netcache/program.h"

namespace orbit::nc {

class NetController : public ctrl::CacheController {
 public:
  NetController(sim::Simulator* sim, sim::Network* net, NetProgram* program,
                const kv::Partitioner* partitioner,
                std::vector<Addr> server_addrs, Addr self_addr, int self_port,
                const ctrl::ControllerConfig& config);

  std::string name() const override { return "nc-controller"; }

 private:
  bool InsertEntry(const Key& key, const Hash128&, uint32_t idx) override {
    return program_->InsertEntry(key, idx);
  }
  void EraseEntry(const Key& key, const Hash128&) override {
    program_->EraseEntry(key);
  }
  std::vector<uint64_t> ReadAndResetPopularity() override {
    return program_->ReadAndResetPopularity();
  }
  bool Admit(const Key& key) override;
  // Blacklists the data plane's self-evictions, then takes the sketch's
  // hot reports as candidates.
  void BeforeUpdate() override;
  void AfterUpdate() override { program_->ResetSketch(); }

  NetProgram* program_;
  std::unordered_set<Key> blacklist_;  // values proven over-limit
};

}  // namespace orbit::nc
