#include "orbitcache/controller.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace orbit::oc {

namespace {
constexpr SimTime kCpuDelay = 10 * kMicrosecond;  // PCIe + CPU turnaround
}  // namespace

Controller::Controller(sim::Simulator* sim, sim::Network* net,
                       OrbitProgram* program,
                       const kv::Partitioner* partitioner,
                       std::vector<Addr> server_addrs, Addr self_addr,
                       int self_port, const ctrl::ControllerConfig& config)
    : CacheController(sim, net, partitioner, std::move(server_addrs),
                      self_addr, self_port, config,
                      program->config().capacity),
      program_(program) {
  ORBIT_CHECK_MSG(config_.max_cache_size <= program->config().capacity,
                  "controller max cache size exceeds data-plane capacity");
  ORBIT_CHECK(config_.cache_size >= 1);
  program_->SetRefetchFn(
      [this](const Key& key, const Hash128& hkey, Addr server) {
        RequestRefetch(key, hkey, server);
      });
  program_->SetFetchedFn([this](const Key& key) { FetchDone(key); });
}

void Controller::AfterUpdate() {
  if (config_.dynamic_sizing) AdjustCacheSize();
  if (config_.snapshot_period > 0 &&
      sim_->now() - last_snapshot_ >= config_.snapshot_period) {
    last_snapshot_ = sim_->now();
    stats_.snapshot_entries_flushed += program_->RequestSnapshot();
  }
}

void Controller::AdjustCacheSize() {
  const OrbitProgram::HitOverflow ho = program_->ReadAndResetHitOverflow();
  if (ho.hits == 0) return;
  const double ratio =
      static_cast<double>(ho.overflows) / static_cast<double>(ho.hits);
  if (ratio > config_.overflow_threshold) {
    if (config_.cache_size > config_.min_cache_size) {
      config_.cache_size = std::max(config_.min_cache_size,
                                    config_.cache_size - config_.sizing_step);
      ++stats_.size_decreases;
    }
  } else if (config_.cache_size < config_.max_cache_size) {
    config_.cache_size = std::min(config_.max_cache_size,
                                  config_.cache_size + config_.sizing_step);
    ++stats_.size_increases;
  }
}

void Controller::RequestRefetch(const Key& key, const Hash128& hkey,
                                Addr server) {
  // Sent after the CPU turnaround; retries ride the normal timeout
  // machinery.
  refetches_.push_back({key, hkey, server});
  sim_->AfterTimer(kCpuDelay, this, kRefetchArg);
}

void Controller::OnTimer(uint64_t arg) {
  if (arg != kRefetchArg) {
    CacheController::OnTimer(arg);
    return;
  }
  const Refetch r = std::move(refetches_.front());
  refetches_.pop_front();
  if (IsCached(r.key)) SendFetch(r.key, r.hkey, r.server);  // else evicted
}

}  // namespace orbit::oc
