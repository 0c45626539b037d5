// Fabric-level control plane: one rack-scoped NetCache/OrbitCache
// controller per leaf, coordinated by a single object that owns the key →
// rack partition map.
//
// The key space is hash-partitioned over servers (kv::Partitioner, same
// map the workload uses to address requests); racks own contiguous server
// blocks, so a key's rack is ServerFor(key) / servers_per_rack and each
// leaf caches only keys homed in its own rack — exactly one switch on any
// path holds a given key. Preload walks the global popularity ranks and
// deals each rank to its owning leaf until every leaf's per-switch budget
// is spent, so the fabric-wide hot set is the union of per-rack hot sets
// (not the global top-k, which would concentrate on one rack under skew).
// A one-rack fabric therefore preloads exactly the single ToR's hot set.
// Dynamic updates need no extra coordination: each rack's servers report
// to their own leaf's controller, and the partition map never changes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "control/controller.h"
#include "fabric/topology.h"
#include "kv/partition.h"
#include "netcache/program.h"
#include "orbitcache/program.h"
#include "telemetry/counters.h"
#include "testbed/constants.h"
#include "testbed/testbed.h"
#include "workload/keyspace.h"

namespace orbit::fabric {

struct FabricControllerSpec {
  testbed::Scheme scheme = testbed::Scheme::kOrbitCache;
  ctrl::ControllerConfig controller;  // per-leaf template
  sim::LinkConfig ctrl_link;          // controller access link, per leaf
};

class FabricController {
 public:
  // `orbit_programs` / `net_programs` hold one program per rack (the one
  // not matching `spec.scheme` may be empty). Builds rack r's controller
  // for `spec.scheme` from the `spec.controller` template and attaches it
  // at address testbed::kControllerBase + r behind leaf r.
  FabricController(sim::Simulator* sim, sim::Network* net,
                   FabricTopology* topo, const kv::Partitioner* partitioner,
                   std::vector<Addr> server_addrs,
                   const std::vector<oc::OrbitProgram*>& orbit_programs,
                   const std::vector<nc::NetProgram*>& net_programs,
                   const FabricControllerSpec& spec);

  int num_racks() const { return topo_->num_racks(); }
  int servers_per_rack() const {
    return static_cast<int>(server_addrs_.size()) / num_racks();
  }
  Addr controller_addr(int rack) const {
    return testbed::kControllerBase + static_cast<Addr>(rack);
  }
  // Rack r's controller access link (the switch-CPU channel that
  // kCtrlDown/kCtrlUp take down).
  sim::Link* ctrl_link(int rack) const {
    return ctrl_links_[static_cast<size_t>(rack)];
  }

  // Partition assignment.
  int RackOfServer(int global_server) const {
    return global_server / servers_per_rack();
  }
  int RackOfKey(const Key& key) const {
    return RackOfServer(static_cast<int>(partitioner_->ServerFor(key)));
  }

  const ctrl::CacheController& controller(int rack) const {
    return *ctrls_[static_cast<size_t>(rack)];
  }

  // Walks popularity ranks 0.. and deals each rank to its owning leaf until
  // every leaf was dealt `per_leaf` ranks (the template's cache_size), then
  // preloads each leaf with the keys among them that pass `admit` (null =
  // admit all). A rank that fails `admit` still spends its slot: a leaf
  // caches the admissible subset of its rack's hottest `per_leaf` items, as
  // the paper's NetCache preload does (§5.1). With more than one rack the
  // walk goes on for another `per_leaf` ranks per rack, whose admissible
  // keys become the degraded-mode standby list (OnLeafDown); a lone leaf
  // has no survivor to top up and keeps none.
  void PreloadTopKeys(const wl::KeySpace& keyspace,
                      const std::function<bool(const Key&)>& admit);

  // Starts every per-leaf controller's periodic update timer.
  void Start();

  // Sum of the per-leaf cache-size targets (the dynamic-sizing outcome).
  size_t TotalCacheSize() const;

  // Graceful degradation. OnLeafDown marks `rack`'s preload set invalid
  // (its leaf is in bypass; nothing caches its keys — caching them on
  // another rack's leaf would break write coherence, since writes no
  // longer traverse a caching switch) and tops up every surviving leaf
  // with its own rack's standby keys. A survivor's next update tick ranks
  // these extras with its preloaded keys and trims the set back to its
  // cache size, keeping the hottest. OnLeafUp clears the mark; once no
  // leaf is degraded the extras still cached are withdrawn. RebuildLeaf
  // re-installs and refetches `rack`'s tracked entries after its wiped
  // data plane comes back.
  void OnLeafDown(int rack);
  void OnLeafUp(int rack);
  void RebuildLeaf(int rack);
  size_t degraded_leaves() const;

  struct Stats {
    uint64_t leaf_down_events = 0;
    uint64_t leaf_up_events = 0;
    uint64_t extra_keys_installed = 0;   // degraded-mode top-ups
    uint64_t extra_keys_withdrawn = 0;
    uint64_t leaf_rebuilds = 0;
  };
  const Stats& stats() const { return stats_; }

  // Registers fabric.ctrl.* degradation counters plus a degraded-leaves
  // gauge against `reg`.
  void RegisterTelemetry(telemetry::Registry& reg);

 private:
  FabricTopology* topo_;
  const kv::Partitioner* partitioner_;
  std::vector<Addr> server_addrs_;
  std::vector<std::unique_ptr<ctrl::CacheController>> ctrls_;
  size_t per_leaf_;  // the template's cache_size
  std::vector<sim::Link*> ctrl_links_;

  // Degradation state (sized to num_racks by the constructor).
  std::vector<bool> degraded_;
  std::vector<std::vector<Key>> standby_;          // next-hottest, per rack
  std::vector<std::vector<Key>> installed_extras_;  // currently topped up
  Stats stats_;
};

}  // namespace orbit::fabric
