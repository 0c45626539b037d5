#include "fabric/controller.h"

#include <algorithm>

#include "common/check.h"
#include "netcache/controller.h"
#include "orbitcache/controller.h"

namespace orbit::fabric {

FabricController::FabricController(
    sim::Simulator* sim, sim::Network* net, FabricTopology* topo,
    const kv::Partitioner* partitioner, std::vector<Addr> server_addrs,
    const std::vector<oc::OrbitProgram*>& orbit_programs,
    const std::vector<nc::NetProgram*>& net_programs,
    const FabricControllerSpec& spec)
    : topo_(topo),
      partitioner_(partitioner),
      server_addrs_(std::move(server_addrs)),
      per_leaf_(spec.controller.cache_size) {
  const int racks = topo_->num_racks();
  ORBIT_CHECK_MSG(static_cast<int>(server_addrs_.size()) % racks == 0,
                  "servers must split evenly across racks");
  ORBIT_CHECK(spec.scheme != testbed::Scheme::kNoCache);
  degraded_.assign(static_cast<size_t>(racks), false);
  standby_.assign(static_cast<size_t>(racks), {});
  installed_extras_.assign(static_cast<size_t>(racks), {});

  for (int r = 0; r < racks; ++r) {
    const auto ri = static_cast<size_t>(r);
    const Addr addr = controller_addr(r);
    std::unique_ptr<ctrl::CacheController> c;
    if (spec.scheme == testbed::Scheme::kOrbitCache) {
      ORBIT_CHECK(orbit_programs[ri] != nullptr);
      c = std::make_unique<oc::Controller>(sim, net, orbit_programs[ri],
                                           partitioner_, server_addrs_, addr,
                                           /*self_port=*/0, spec.controller);
    } else {
      ORBIT_CHECK(net_programs[ri] != nullptr);
      c = std::make_unique<nc::NetController>(
          sim, net, net_programs[ri], partitioner_, server_addrs_, addr,
          /*self_port=*/0, spec.controller);
    }
    const auto at = topo_->AttachHost(c.get(), addr, r, spec.ctrl_link);
    ORBIT_CHECK(at.port_a == 0);
    ctrls_.push_back(std::move(c));
    ctrl_links_.push_back(at.link);
  }
}

void FabricController::PreloadTopKeys(
    const wl::KeySpace& keyspace,
    const std::function<bool(const Key&)>& admit) {
  if (per_leaf_ == 0) return;
  const size_t racks = static_cast<size_t>(num_racks());
  const size_t per_rack = racks > 1 ? 2 * per_leaf_ : per_leaf_;
  std::vector<std::vector<Key>> groups(racks);
  std::vector<size_t> dealt(racks, 0);
  size_t done = 0;  // racks dealt all their ranks
  for (uint64_t rank = 0; rank < keyspace.num_keys() && done < racks;
       ++rank) {
    Key key = keyspace.KeyAtRank(rank);
    const auto r = static_cast<size_t>(RackOfKey(key));
    if (dealt[r] == per_rack) continue;
    const bool preload = dealt[r] < per_leaf_;
    if (++dealt[r] == per_rack) ++done;
    if (admit && !admit(key)) continue;
    (preload ? groups[r] : standby_[r]).push_back(std::move(key));
  }
  for (size_t r = 0; r < racks; ++r)
    if (!groups[r].empty()) ctrls_[r]->Preload(groups[r]);
}

void FabricController::Start() {
  for (auto& c : ctrls_) c->Start();
}

size_t FabricController::TotalCacheSize() const {
  size_t total = 0;
  for (const auto& c : ctrls_) total += c->current_cache_size();
  return total;
}

size_t FabricController::degraded_leaves() const {
  size_t n = 0;
  for (const bool d : degraded_)
    if (d) ++n;
  return n;
}

void FabricController::OnLeafDown(int rack) {
  const auto down = static_cast<size_t>(rack);
  ORBIT_CHECK(down < degraded_.size());
  if (degraded_[down]) return;
  degraded_[down] = true;
  ++stats_.leaf_down_events;
  // Top up every non-degraded leaf with its own rack's standby keys.
  // Installing per key (rather than one batch) records exactly which keys
  // went in, so OnLeafUp withdraws only what this path added.
  for (size_t r = 0; r < degraded_.size(); ++r) {
    if (degraded_[r] || !installed_extras_[r].empty()) continue;
    for (const Key& key : standby_[r]) {
      if (ctrls_[r]->InstallExtra({key}) == 1) {
        installed_extras_[r].push_back(key);
        ++stats_.extra_keys_installed;
      }
    }
  }
}

void FabricController::OnLeafUp(int rack) {
  const auto up = static_cast<size_t>(rack);
  ORBIT_CHECK(up < degraded_.size());
  if (!degraded_[up]) return;
  degraded_[up] = false;
  ++stats_.leaf_up_events;
  if (degraded_leaves() > 0) return;  // another leaf still in bypass
  for (size_t r = 0; r < installed_extras_.size(); ++r) {
    for (const Key& key : installed_extras_[r])
      if (ctrls_[r]->WithdrawKey(key)) ++stats_.extra_keys_withdrawn;
    installed_extras_[r].clear();
  }
}

void FabricController::RebuildLeaf(int rack) {
  const auto r = static_cast<size_t>(rack);
  ORBIT_CHECK(r < degraded_.size());
  ++stats_.leaf_rebuilds;
  ctrls_[r]->RebuildCache();
}

void FabricController::RegisterTelemetry(telemetry::Registry& reg) {
  const std::string who = "FabricController::RegisterTelemetry";
  reg.AddCounter(
      "fabric.ctrl.leaf_down_events",
      [this] { return stats_.leaf_down_events; }, who);
  reg.AddCounter(
      "fabric.ctrl.leaf_up_events", [this] { return stats_.leaf_up_events; },
      who);
  reg.AddCounter(
      "fabric.ctrl.extra_keys_installed",
      [this] { return stats_.extra_keys_installed; }, who);
  reg.AddCounter(
      "fabric.ctrl.extra_keys_withdrawn",
      [this] { return stats_.extra_keys_withdrawn; }, who);
  reg.AddCounter(
      "fabric.ctrl.leaf_rebuilds", [this] { return stats_.leaf_rebuilds; },
      who);
  reg.AddGauge(
      "fabric.ctrl.degraded_leaves",
      [this] { return static_cast<uint64_t>(degraded_leaves()); }, who);
}

}  // namespace orbit::fabric
