#include "netcache/controller.h"

#include "common/check.h"

namespace orbit::nc {

NetController::NetController(sim::Simulator* sim, sim::Network* net,
                             NetProgram* program,
                             const kv::Partitioner* partitioner,
                             std::vector<Addr> server_addrs, Addr self_addr,
                             int self_port,
                             const ctrl::ControllerConfig& config)
    : CacheController(sim, net, partitioner, std::move(server_addrs),
                      self_addr, self_port, config,
                      program->config().capacity),
      program_(program) {
  ORBIT_CHECK_MSG(config_.cache_size <= program->config().capacity,
                  "cache size exceeds lookup capacity");
}

bool NetController::Admit(const Key& key) {
  if (blacklist_.count(key) > 0) return false;
  if (key.size() > rmt::kMaxMatchKeyBytes) {
    // Hardware cannot match this key; NetCache must skip it.
    ++stats_.skipped_wide_keys;
    return false;
  }
  return true;
}

void NetController::BeforeUpdate() {
  for (const Key& key : program_->DrainSelfEvictions()) {
    blacklist_.insert(key);
    ++stats_.blacklisted_values;
    Evict(key, /*erase_entry=*/false);  // the data plane already did
  }
  for (const auto& [key, count] : program_->DrainHotReports())
    Report(key, count);
}

}  // namespace orbit::nc
