#include "testbed/testbed.h"

#include <algorithm>
#include <memory>

#include "apps/client.h"
#include "apps/server.h"
#include "common/check.h"
#include "fabric/controller.h"
#include "fabric/failover.h"
#include "fabric/topology.h"
#include "fault/fault.h"
#include "kv/partition.h"
#include "netcache/program.h"
#include "orbitcache/program.h"
#include "proto/message.h"
#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "stats/meters.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"
#include "telemetry/int/int.h"
#include "telemetry/netstats.h"
#include "testbed/constants.h"
#include "testbed/workload_source.h"
#include "verify/verify.h"
#include "workload/dynamic.h"
#include "workload/keyspace.h"

namespace orbit::testbed {

namespace {
// Every leaf<->spine uplink.
constexpr double kUplinkGbps = 100.0;
constexpr SimTime kUplinkDelay = 500;  // ns one way
// Fig.-14 mode's two value sizes.
constexpr uint32_t kTwitterSmallValue = 64;
constexpr uint32_t kTwitterLargeValue = 1024;

// Every cumulative counter a result or its timelines report. A reported
// number is the difference of two tallies: a result field is the end
// tally minus the warmup tally, and timeline bin k is the tally read at
// (k+1)·bin minus the one read at k·bin.
struct Tally {
  uint64_t tx_requests = 0;  // summed over the clients
  uint64_t rx_replies = 0;
  std::vector<uint64_t> server_requests;  // one per server
  uint64_t server_dropped = 0;
  // Summed over the leaves' cache programs (OrbitCache or NetCache).
  uint64_t lookup_hits = 0;
  uint64_t cache_served = 0;  // with write-back's switch-minted replies
  // OrbitCache only.
  uint64_t absorbed = 0;
  uint64_t overflows = 0;          // queue full: sent to a server
  uint64_t invalid_to_server = 0;  // entry awaiting its value
  uint64_t cp_drop_evicted = 0;
  uint64_t cp_drop_invalid = 0;
  uint64_t cp_drop_epoch = 0;
  uint64_t validations = 0;
  // Summed over the leaves.
  uint64_t recirc_drops = 0;
};
}  // namespace

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNoCache: return "NoCache";
    case Scheme::kNetCache: return "NetCache";
    case Scheme::kOrbitCache: return "OrbitCache";
  }
  return "?";
}

std::function<uint32_t(const Key&)> MakeValueSizeFn(
    const TestbedConfig& config) {
  if (config.workload.twitter == nullptr) {
    return [dist = config.workload.value_dist](const Key& key) {
      return dist.SizeFor(key);
    };
  }
  // Fig.-14 mode: the profile's cacheability coin decides which keys
  // NetCache can hold (they get 64B values); the remaining keys are sized
  // so the overall small-value fraction still matches the profile.
  const wl::TwitterProfile profile = *config.workload.twitter;
  double small_given_uncacheable = 0.0;
  if (profile.cacheable_ratio < 1.0) {
    small_given_uncacheable = (profile.p_small - profile.cacheable_ratio) /
                              (1.0 - profile.cacheable_ratio);
    small_given_uncacheable = std::clamp(small_given_uncacheable, 0.0, 1.0);
  }
  const uint64_t seed = config.seed;
  return [profile, small_given_uncacheable, seed](const Key& key) -> uint32_t {
    if (wl::NetCacheCacheable(profile, key, seed)) return kTwitterSmallValue;
    const uint64_t h = Hash64(key, seed ^ 0x74777369ull);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < small_given_uncacheable ? kTwitterSmallValue
                                       : kTwitterLargeValue;
  };
}

bool NetCacheCanCache(const TestbedConfig& config, const Key& key) {
  if (key.size() > rmt::kMaxMatchKeyBytes) return false;
  if (config.workload.twitter != nullptr)
    return wl::NetCacheCacheable(*config.workload.twitter, key, config.seed);
  const uint32_t limit = config.cache.netcache_recirc_read
                             ? nc::kRecircReadMaxBytes
                             : nc::kMaxValueBytes;
  return MakeValueSizeFn(config)(key) <= limit;
}

std::vector<std::string> TestbedConfig::Validate() const {
  std::vector<std::string> errors;
  auto err = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  if (topo.num_clients <= 0)
    err("topo.num_clients must be >= 1 (got " +
        std::to_string(topo.num_clients) + ")");
  if (topo.num_servers <= 0)
    err("topo.num_servers must be >= 1 (got " +
        std::to_string(topo.num_servers) + ")");
  // The address plan (testbed/constants.h): client i sits at
  // kClientBase + i, below the first server address.
  if (topo.num_clients > static_cast<int>(kServerBase - kClientBase))
    err("topo.num_clients must be <= " +
        std::to_string(kServerBase - kClientBase) + " (got " +
        std::to_string(topo.num_clients) + ") — clients take addresses " +
        std::to_string(kClientBase) + ".." + std::to_string(kServerBase - 1) +
        ", below the first server's");
  if (topo.num_servers > 256)
    err("topo.num_servers must be <= 256 (got " +
        std::to_string(topo.num_servers) +
        ") — a server's id travels in the one-byte SRV_ID header field");
  if (topo.client_rate_rps <= 0)
    err("topo.client_rate_rps must be > 0 — clients are open-loop and need "
        "a positive aggregate Tx rate");
  if (topo.server_rate_rps < 0)
    err("topo.server_rate_rps must be >= 0 (0 = unlimited)");
  // Serialization time divides by each rate.
  if (!(topo.client_link_gbps > 0))
    err("topo.client_link_gbps must be > 0 (got " +
        std::to_string(topo.client_link_gbps) + ")");
  if (!(topo.server_link_gbps > 0))
    err("topo.server_link_gbps must be > 0 (got " +
        std::to_string(topo.server_link_gbps) + ")");
  if (topo.link_delay < 0)
    err("topo.link_delay must be >= 0 (got " +
        std::to_string(topo.link_delay) +
        "ns) — a packet cannot arrive before it is sent");
  if (!(topo.asic.recirc_rate_gbps > 0))
    err("topo.asic.recirc_rate_gbps must be > 0 (got " +
        std::to_string(topo.asic.recirc_rate_gbps) +
        ") — it sets every recirculation pass's serialization time");

  if (topo.fabric.num_racks < 0)
    err("topo.fabric.num_racks must be >= 0 (0 = single-switch)");
  if (topo.fabric.enabled()) {
    if (topo.fabric.num_spines < 1)
      err("topo.fabric.num_spines must be >= 1 when the fabric is enabled");
    if (topo.fabric.num_racks > topo.num_servers)
      err("topo.fabric.num_racks (" + std::to_string(topo.fabric.num_racks) +
          ") exceeds topo.num_servers (" + std::to_string(topo.num_servers) +
          ") — every rack needs at least one storage server");
    else if (topo.num_servers % topo.fabric.num_racks != 0)
      err("topo.num_servers (" + std::to_string(topo.num_servers) +
          ") must be divisible by topo.fabric.num_racks (" +
          std::to_string(topo.fabric.num_racks) +
          ") — racks own equal contiguous server blocks");
    if (topo.fabric.failover) {
      if (topo.fabric.probe_interval <= 0)
        err("topo.fabric.probe_interval must be > 0 when failover is on");
      else if (topo.fabric.detection_window < topo.fabric.probe_interval)
        err("topo.fabric.detection_window (" +
            std::to_string(topo.fabric.detection_window) +
            "ns) must cover at least one probe_interval (" +
            std::to_string(topo.fabric.probe_interval) +
            "ns) — a shorter window declares every link dead between "
            "probes");
    }
  } else {
    // Single-switch testbed: fabric-scoped knobs have no target here.
    if (topo.fabric.failover)
      err("topo.fabric.failover requires a fabric topology "
          "(topo.fabric.num_racks >= 1)");
    if (fault.fabric_burst_loss.enabled())
      err("fault.fabric_burst_loss rides on leaf-spine uplinks; enable the "
          "fabric (topo.fabric.num_racks >= 1) to use it");
  }
  if (const std::string ferr = fault.Validate(); !ferr.empty())
    err("fault schedule: " + ferr);
  if (const std::string ferr = fault.CheckTargets(
          topo.num_servers,
          topo.fabric.enabled() ? topo.fabric.num_racks : 0,
          topo.fabric.num_spines);
      !ferr.empty())
    err(ferr);

  if (workload.num_keys == 0) err("workload.num_keys must be >= 1");
  const uint32_t min_key = wl::KeySpace::MinKeySize(workload.num_keys);
  if (workload.key_size < min_key)
    err("workload.key_size must be >= " + std::to_string(min_key) + " for " +
        std::to_string(workload.num_keys) + " keys (got " +
        std::to_string(workload.key_size) +
        ") — a key is 'k' plus its zero-padded decimal id, at least 8 bytes");
  if (!(workload.zipf_theta >= 0 && workload.zipf_theta < 1))
    err("workload.zipf_theta must be in [0, 1) (got " +
        std::to_string(workload.zipf_theta) + "; 0 = uniform)");
  {
    // A reply carries key and value; a longer value needs multi-packet
    // fragments of the same per-packet budget.
    const uint64_t largest = workload.twitter != nullptr
                                 ? kTwitterLargeValue
                                 : workload.value_dist.max_size();
    const uint32_t budget = proto::ValueBudget(workload.key_size);
    const std::string fits = std::to_string(budget) + "B of value beside a " +
                             std::to_string(workload.key_size) + "B key";
    if (budget == 0)
      err("workload.key_size (" + std::to_string(workload.key_size) +
          ") leaves no room for a value in a " +
          std::to_string(proto::kMaxPayloadBytes) + "B payload");
    else if (!cache.multi_packet && largest > budget)
      err("values of up to " + std::to_string(largest) +
          "B exceed one packet (" + fits +
          ") — shrink workload.value_dist or set cache.multi_packet");
    else if (const uint64_t frags = (largest + budget - 1) / budget;
             frags > proto::kMaxFragments)
      err("values of up to " + std::to_string(largest) + "B need " +
          std::to_string(frags) + " fragments (" + fits +
          " each), above the " + std::to_string(proto::kMaxFragments) +
          "-fragment limit");
  }
  if (workload.write_ratio < 0 || workload.write_ratio > 1)
    err("workload.write_ratio must be within [0, 1] (got " +
        std::to_string(workload.write_ratio) + ")");
  if (workload.hot_in && workload.hot_in_period <= 0)
    err("workload.hot_in_period must be > 0 when hot_in is enabled");
  if (workload.hot_in && workload.hot_in_count > workload.num_keys / 2)
    err("workload.hot_in_count (" + std::to_string(workload.hot_in_count) +
        ") must be at most half of workload.num_keys (" +
        std::to_string(workload.num_keys) +
        ") — hot-in swaps the hottest keys with as many coldest ones");

  if (scheme == Scheme::kOrbitCache) {
    // Every leaf routes to every host, and each route takes one clone group.
    const int hosts = topo.num_clients + topo.num_servers +
                      std::max(1, topo.fabric.num_racks);  // + controllers
    if (hosts > static_cast<int>(oc::kCloneGroupCapacity))
      err("topo.num_clients + topo.num_servers + one controller per rack = " +
          std::to_string(hosts) + " hosts, above the " +
          std::to_string(oc::kCloneGroupCapacity) +
          "-entry OrbitCache clone-group table — each leaf keeps one PRE "
          "clone group per host it routes to");
  }
  if (scheme == Scheme::kOrbitCache && cache.orbit_cache_size == 0)
    err("cache.orbit_cache_size must be >= 1 under OrbitCache — for a run "
        "without a cache, use scheme NoCache");
  if (scheme == Scheme::kOrbitCache && cache.multi_packet &&
      !cache.enable_cloning)
    err("cache.multi_packet requires cache.enable_cloning under OrbitCache "
        "— multi-packet items are served through PRE clones");
  if (scheme == Scheme::kOrbitCache && cache.write_back && !cache.epoch_guard)
    err("cache.write_back requires cache.epoch_guard under OrbitCache — "
        "the guard retires superseded dirty cache packets");
  if (cache.orbit_cache_size > cache.orbit_capacity)
    err("cache.orbit_cache_size (" + std::to_string(cache.orbit_cache_size) +
        ") exceeds cache.orbit_capacity (" +
        std::to_string(cache.orbit_capacity) +
        ") — the preloaded set must fit the data-plane array");
  if (cache.orbit_queue_size == 0)
    err("cache.orbit_queue_size must be >= 1 (request-table depth S)");

  if (control.run_cache_updates && control.update_period <= 0)
    err("control.update_period must be > 0 when run_cache_updates is set");

  if (client.max_retries < 0) err("client.max_retries must be >= 0");
  if (client.request_timeout <= 0)
    err("client.request_timeout must be > 0");

  if (warmup < 0) err("warmup must be >= 0");
  if (duration <= 0) err("duration must be > 0");
  if (timeline_bin < 0) err("timeline_bin must be >= 0 (0 = disabled)");
  if (timeline_bin > duration)
    err("timeline_bin (" + std::to_string(timeline_bin) +
        "ns) exceeds duration (" + std::to_string(duration) +
        "ns) — the timeline would have no complete bin");
  return errors;
}

TestbedResult RunTestbed(const TestbedConfig& config) {
  {
    const std::vector<std::string> errors = config.Validate();
    std::string joined;
    for (const std::string& e : errors) joined += "\n  - " + e;
    ORBIT_CHECK_MSG(errors.empty(), "invalid TestbedConfig:" << joined);
  }

  // A single-ToR testbed (fabric disabled) is one rack of the fabric: one
  // leaf and zero spines. Zero, not one: Network::Connect mixes each link's
  // creation index into its loss seed and uplinks are created before any
  // host link, so a spine would shift every server link's loss pattern and
  // per-link counter name.
  const TestbedConfig::Topology::Fabric& fb = config.topo.fabric;
  const bool single_tor = !fb.enabled();
  const int racks = single_tor ? 1 : fb.num_racks;
  const int spines = single_tor ? 0 : fb.num_spines;
  const int per_rack = config.topo.num_servers / racks;

  // The verifier is declared before the simulator on purpose: teardown of
  // the event queue and pool releases packets, and the pool's observer
  // pointer must stay valid through that (the calls are no-ops once
  // Finalize() disarms accounting — including on exception unwind).
  std::unique_ptr<verify::Verifier> verifier;
  if (config.verify.enabled) {
    verify::VerifyOptions vopt;
    // Version-strictness mirrors the scheme: only OrbitCache has the
    // epoch-guard ablation and write-back's switch-minted versions;
    // NetCache/NoCache serve only server-minted versions.
    vopt.epoch_guard =
        config.scheme != Scheme::kOrbitCache || config.cache.epoch_guard;
    vopt.write_back =
        config.scheme == Scheme::kOrbitCache && config.cache.write_back;
    verifier = std::make_unique<verify::Verifier>(vopt);
  }

  sim::Simulator sim;
  sim::Network net(&sim);
  if (verifier != nullptr) {
    sim.packet_pool().set_observer(verifier.get());
    verifier->ArmPacketAccounting();
  }

  // ---- switches (leaves + spines + uplink mesh) ---------------------------
  fabric::TopologySpec tspec;
  tspec.num_racks = racks;
  tspec.num_spines = spines;
  tspec.asic = config.topo.asic;
  tspec.uplink.rate_gbps = kUplinkGbps;
  tspec.uplink.propagation = kUplinkDelay;
  // Scheduled burst loss rides on every uplink; Network::Connect
  // decorrelates the per-link RNG seeds.
  tspec.uplink.burst_loss = config.fault.fabric_burst_loss;
  tspec.uplink.loss_seed = config.seed;
  fabric::FabricTopology topo(&sim, &net, tspec);

  auto size_fn = MakeValueSizeFn(config);
  std::shared_ptr<wl::DynamicPopularity> dynamic;
  if (config.workload.hot_in) {
    dynamic = std::make_shared<wl::DynamicPopularity>(config.workload.num_keys,
                                                      config.workload.hot_in_count);
  }
  auto workload = std::make_shared<ZipfWorkloadSource>(config, size_fn, dynamic);

  // ---- programs -----------------------------------------------------------
  // One cache program per leaf. Spines and NoCache leaves attach none and
  // forward by route, so exactly one switch on any path — the
  // destination's leaf — applies cache logic. Programs attach before any
  // host, so every route reaches them (OrbitCache clone groups follow it).
  std::vector<std::unique_ptr<rmt::SwitchProgram>> programs;
  std::vector<oc::OrbitProgram*> orbits;  // one per leaf under OrbitCache
  std::vector<nc::NetProgram*> netps;     // one per leaf under NetCache
  for (int r = 0; r < racks; ++r) {
    switch (config.scheme) {
      case Scheme::kOrbitCache: {
        oc::OrbitConfig oc_cfg;
        oc_cfg.capacity = config.cache.orbit_capacity;
        oc_cfg.queue_size = config.cache.orbit_queue_size;
        oc_cfg.orbit_port = kOrbitPort;
        oc_cfg.epoch_guard = config.cache.epoch_guard;
        oc_cfg.enable_cloning = config.cache.enable_cloning;
        oc_cfg.write_back = config.cache.write_back;
        oc_cfg.multi_packet = config.cache.multi_packet;
        auto p = std::make_unique<oc::OrbitProgram>(&topo.leaf(r), oc_cfg);
        orbits.push_back(p.get());
        programs.push_back(std::move(p));
        break;
      }
      case Scheme::kNetCache: {
        nc::NetConfig nc_cfg;
        nc_cfg.capacity = config.cache.netcache_size;
        nc_cfg.orbit_port = kOrbitPort;
        nc_cfg.recirc_read_mode = config.cache.netcache_recirc_read;
        if (!config.control.run_cache_updates)
          nc_cfg.hot_threshold = UINT64_MAX;  // static cache: never report
        auto p = std::make_unique<nc::NetProgram>(&topo.leaf(r), nc_cfg);
        netps.push_back(p.get());
        programs.push_back(std::move(p));
        break;
      }
      case Scheme::kNoCache:
        continue;  // no program: the leaf forwards by route
    }
    topo.leaf(r).SetProgram(programs.back().get());
  }

  // ---- servers (global index order; rack r owns a contiguous block) -------
  const bool servers_report =
      config.scheme == Scheme::kOrbitCache && config.control.run_cache_updates;
  std::vector<std::unique_ptr<app::ServerNode>> servers;
  std::vector<Addr> server_addrs;
  std::vector<sim::Link*> server_links;  // fault-injection handles
  servers.reserve(static_cast<size_t>(config.topo.num_servers));
  server_links.reserve(static_cast<size_t>(config.topo.num_servers));
  for (int i = 0; i < config.topo.num_servers; ++i) {
    const int rack = i / per_rack;
    app::ServerConfig scfg;
    scfg.addr = kServerBase + static_cast<Addr>(i);
    scfg.srv_id = static_cast<uint8_t>(i);
    scfg.orbit_port = kOrbitPort;
    scfg.service_rate_rps = config.topo.server_rate_rps;
    scfg.multi_packet = config.cache.multi_packet;
    scfg.controller_addr = servers_report
                               ? kControllerBase + static_cast<Addr>(rack)
                               : kInvalidAddr;
    scfg.ctrl_port = kCtrlPort;
    scfg.report_period = config.control.update_period;
    server_addrs.push_back(scfg.addr);
    sim::LinkConfig lc;
    lc.rate_gbps = config.topo.server_link_gbps;
    lc.propagation = config.topo.link_delay;
    // Scheduled burst loss rides on every server link.
    lc.burst_loss = config.fault.server_burst_loss;
    lc.loss_seed = config.seed;
    auto node = std::make_unique<app::ServerNode>(&sim, &net, /*port=*/0,
                                                  scfg, size_fn);
    const auto at = topo.AttachHost(node.get(), scfg.addr, rack, lc);
    ORBIT_CHECK(at.port_a == 0);
    server_links.push_back(at.link);
    servers.push_back(std::move(node));
  }

  // ---- clients (round-robin across racks: most traffic crosses the spine)
  std::vector<std::unique_ptr<app::ClientNode>> clients;
  clients.reserve(static_cast<size_t>(config.topo.num_clients));
  for (int i = 0; i < config.topo.num_clients; ++i) {
    app::ClientConfig ccfg;
    ccfg.addr = kClientBase + static_cast<Addr>(i);
    ccfg.orbit_port = kOrbitPort;
    ccfg.src_port = static_cast<L4Port>(9000 + i);
    ccfg.rate_rps = config.topo.client_rate_rps / config.topo.num_clients;
    ccfg.request_timeout = config.client.request_timeout;
    ccfg.max_retries = config.client.max_retries;
    ccfg.seed = config.seed * 7919 + static_cast<uint64_t>(i);
    auto node = std::make_unique<app::ClientNode>(&sim, &net, /*port=*/0,
                                                  ccfg, workload);
    sim::LinkConfig lc;
    lc.rate_gbps = config.topo.client_link_gbps;
    lc.propagation = config.topo.link_delay;
    const auto at = topo.AttachHost(node.get(), ccfg.addr, i % racks, lc);
    ORBIT_CHECK(at.port_a == 0);
    clients.push_back(std::move(node));
  }

  if (verifier != nullptr) {
    for (oc::OrbitProgram* p : orbits) p->SetVerifier(verifier.get());
    for (auto& s : servers) s->SetVerifier(verifier.get());
    for (auto& c : clients) c->SetVerifier(verifier.get());
  }

  // ---- control plane (one rack-scoped controller per leaf) ---------------
  kv::Partitioner partitioner(static_cast<uint32_t>(config.topo.num_servers),
                              config.seed);
  std::unique_ptr<fabric::FabricController> fab_ctrl;
  if (config.scheme != Scheme::kNoCache) {
    fabric::FabricControllerSpec cspec;
    cspec.scheme = config.scheme;
    cspec.ctrl_link.rate_gbps = 10.0;
    cspec.ctrl_link.propagation = config.topo.link_delay;
    cspec.controller.cache_size = config.scheme == Scheme::kOrbitCache
                                      ? config.cache.orbit_cache_size
                                      : config.cache.netcache_size;
    cspec.controller.max_cache_size = config.cache.orbit_capacity;
    cspec.controller.min_cache_size =
        std::min<size_t>(32, config.cache.orbit_cache_size);
    cspec.controller.update_period = config.control.update_period;
    cspec.controller.orbit_port = kOrbitPort;
    fab_ctrl = std::make_unique<fabric::FabricController>(
        &sim, &net, &topo, &partitioner, server_addrs, orbits, netps, cspec);
  }

  // ---- failure detection & rerouting --------------------------------------
  // Opt-in (probes share uplink bandwidth with data): per-uplink liveness
  // probing from the leaf side, ECMP-style next-hop recomputation around
  // dead links, blackhole accounting when no path survives.
  std::unique_ptr<fabric::FailoverManager> failover;
  if (fb.failover) {
    fabric::FailoverConfig focfg;
    focfg.probe_interval = fb.probe_interval;
    focfg.detection_window = fb.detection_window;
    failover = std::make_unique<fabric::FailoverManager>(&sim, &topo, focfg);
  }

  // ---- fault injection ----------------------------------------------------
  // Built only when the config carries a schedule; the injector turns each
  // scripted FaultEvent into one simulator event and hands it to `apply`.
  // Validate() keeps every event on a target this topology has.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.fault.events.empty()) {
    auto apply = [&](const fault::FaultEvent& ev) {
      using fault::FaultKind;
      const bool down = fault::OpensFault(ev.kind);
      switch (ev.kind) {
        case FaultKind::kServerCrash:
        case FaultKind::kServerRestart:
          server_links[static_cast<size_t>(ev.server)]->set_down(down);
          break;
        // Every leaf's data plane is wiped; after the configured delay every
        // rack's controller rebuilds its cache from its shadow copy (§3.9).
        case FaultKind::kSwitchReset:
          for (int r = 0; r < racks; ++r) topo.leaf(r).ResetDataPlane();
          break;
        case FaultKind::kCtrlDown:
        case FaultKind::kCtrlUp:
          if (fab_ctrl == nullptr) break;
          for (int r = 0; r < racks; ++r)
            fab_ctrl->ctrl_link(r)->set_down(down);
          break;
        case FaultKind::kFabricLinkDown:
        case FaultKind::kFabricLinkUp:
          topo.uplink(ev.rack, ev.spine)->set_down(down);
          break;
        // A crash wipes the data plane *before* entering bypass, so the
        // recirculation barrier retires every orbiting cache packet; the
        // leaf then forwards by route while the fabric controller tops up
        // the survivors (graceful degradation).
        case FaultKind::kLeafCrash:
        case FaultKind::kLeafRestart:
          if (down) topo.leaf(ev.rack).ResetDataPlane();
          topo.leaf(ev.rack).set_bypass(down);
          if (fab_ctrl == nullptr) break;
          if (down)
            fab_ctrl->OnLeafDown(ev.rack);
          else
            fab_ctrl->OnLeafUp(ev.rack);
          break;
        case FaultKind::kSpineCrash:
        case FaultKind::kSpineRestart:
          for (int r = 0; r < racks; ++r)
            topo.uplink(r, ev.spine)->set_down(down);
          break;
        case FaultKind::kLinkDegrade:
        case FaultKind::kLinkRestore:
          topo.uplink(ev.rack, ev.spine)
              ->SetDegrade(ev.dir, down ? ev.degrade_loss : 0.0,
                           down ? ev.degrade_latency : 0);
          break;
        case FaultKind::kRackPartition:
        case FaultKind::kRackHeal:
          for (int s = 0; s < spines; ++s)
            topo.uplink(ev.rack, s)->set_down(down);
          break;
      }
    };
    // Without a controller there is nothing to rebuild.
    fault::FaultInjector::RebuildFn rebuild;
    if (fab_ctrl != nullptr) {
      rebuild = [&fab_ctrl, racks](int rack) {
        for (int r = 0; r < racks; ++r)
          if (rack < 0 || r == rack) fab_ctrl->RebuildLeaf(r);
      };
    }
    injector = std::make_unique<fault::FaultInjector>(
        &sim, config.fault, std::move(apply), std::move(rebuild));
  }

  // ---- telemetry ----------------------------------------------------------
  // Built only when a capture sink is attached; otherwise every component
  // keeps its null sink and the run is indistinguishable from an
  // uninstrumented one. Hop names carry the device names, so a sampled
  // request's packet-borne flow id stitches its leaf→spine→leaf hops into
  // one causal timeline.
  std::unique_ptr<telemetry::Registry> registry;
  std::unique_ptr<telemetry::IntSink> int_sink;
  std::unique_ptr<telemetry::FlightRecorder> flight;
  std::unique_ptr<ScopedCheckFailureHook> check_hook;
  const bool capture_on = config.telemetry.capture != nullptr;
  if (capture_on) {
    if (config.telemetry.trace_sample > 0 || config.telemetry.histograms) {
      telemetry::IntSink::Options iopt;
      iopt.sample_every = config.telemetry.trace_sample;
      iopt.histograms = config.telemetry.histograms;
      int_sink = std::make_unique<telemetry::IntSink>(iopt);
      telemetry::AttachLinkInt(*int_sink, net);
      for (int r = 0; r < racks; ++r) topo.leaf(r).SetIntSink(int_sink.get());
      for (int s = 0; s < spines; ++s) topo.spine(s).SetIntSink(int_sink.get());
      for (auto& srv : servers) srv->SetIntSink(int_sink.get());
      for (auto& c : clients) c->SetIntSink(int_sink.get());
    }
    if (config.telemetry.flight_recorder) {
      flight = std::make_unique<telemetry::FlightRecorder>();
      for (int r = 0; r < racks; ++r)
        topo.leaf(r).SetFlightRecorder(flight.get());
      for (int s = 0; s < spines; ++s)
        topo.spine(s).SetFlightRecorder(flight.get());
      for (auto& srv : servers) srv->SetFlightRecorder(flight.get());
      for (auto& c : clients) c->SetFlightRecorder(flight.get());
      if (injector != nullptr) injector->SetFlightRecorder(flight.get());
      if (failover != nullptr) failover->SetFlightRecorder(flight.get());
      // A tripped ORBIT_CHECK aborts the run by exception, so the normal
      // end-of-run capture fill never executes; snapshot the rings into
      // the capture *before* the throw unwinds this frame.
      check_hook = std::make_unique<ScopedCheckFailureHook>(
          [&flight, &sim, cap = config.telemetry.capture](
              const std::string& what) {
            flight->TriggerDump(sim.now(), "check failure: " + what);
            cap->flight_dump = flight->DumpText();
          });
    }
    registry = std::make_unique<telemetry::Registry>();
    // Switch-scope counters (a leaf's program counters included) get
    // per-leaf / per-spine prefixes on a fabric; the single ToR keeps
    // unprefixed names.
    for (int r = 0; r < racks; ++r) {
      const std::string scope = single_tor ? "" : topo.leaf(r).name() + ".";
      topo.leaf(r).RegisterTelemetry(*registry, scope);
    }
    for (int s = 0; s < spines; ++s)
      topo.spine(s).RegisterTelemetry(*registry, topo.spine(s).name() + ".");
    for (size_t i = 0; i < servers.size(); ++i)
      servers[i]->RegisterTelemetry(*registry,
                                    "server." + std::to_string(i));
    for (size_t i = 0; i < clients.size(); ++i)
      clients[i]->RegisterTelemetry(*registry,
                                    "client." + std::to_string(i));
    // Drops per link direction and reason, then network-wide by reason.
    telemetry::RegisterLinkDropCounters(*registry, net);
    if (injector != nullptr)
      injector->RegisterTelemetry(registry.get(), int_sink.get());
    if (failover != nullptr) failover->RegisterTelemetry(registry.get());
    if (fab_ctrl != nullptr) fab_ctrl->RegisterTelemetry(*registry);
  }

  // ---- preload ------------------------------------------------------------
  // Per-leaf budgets: every leaf holds its rack's hottest items, so the
  // fabric-wide cache is the union of per-rack hot sets. NetCache holds
  // the cacheable subset of them: the paper preloads the cacheable subset
  // of the 10K hottest items.
  if (fab_ctrl != nullptr) {
    std::function<bool(const Key&)> admit;
    if (config.scheme == Scheme::kNetCache)
      admit = [&config](const Key& key) {
        return NetCacheCanCache(config, key);
      };
    fab_ctrl->PreloadTopKeys(workload->keyspace(), admit);
  }

  // ---- timers & measurement ----------------------------------------------
  for (auto& s : servers) s->Start();
  for (auto& c : clients) c->Start();
  if (fab_ctrl != nullptr) fab_ctrl->Start();
  if (failover != nullptr) failover->Start();
  if (injector != nullptr) injector->Arm();

  // The one read of every counter the result and its timelines use.
  const auto read_tally = [&] {
    Tally t;
    for (const auto& c : clients) {
      t.tx_requests += c->stats().tx_requests;
      t.rx_replies += c->stats().rx_replies;
    }
    for (const auto& s : servers) {
      t.server_requests.push_back(s->stats().requests);
      t.server_dropped += s->stats().dropped;
    }
    for (const oc::OrbitProgram* p : orbits) {
      const auto& s = p->stats();
      t.lookup_hits += s.read_hits;
      t.cache_served += s.served_by_cache + s.wb_returned_replies;
      t.absorbed += s.absorbed;
      t.overflows += s.overflow_to_server;
      t.invalid_to_server += s.invalid_to_server;
      t.cp_drop_evicted += s.cp_drop_evicted;
      t.cp_drop_invalid += s.cp_drop_invalid;
      t.cp_drop_epoch += s.cp_drop_epoch;
      t.validations += s.validations;
    }
    for (const nc::NetProgram* p : netps) {
      t.lookup_hits += p->stats().read_hits;
      t.cache_served += p->stats().served_by_cache;
    }
    for (int r = 0; r < racks; ++r)
      t.recirc_drops += topo.leaf(r).stats().recirc_drops;
    return t;
  };

  // Periodic observers. Each is one allocation for the whole run (the
  // self-rearming PeriodicTask) instead of one std::function per firing;
  // unfired timers are dropped, not invoked, when `sim` dies at scope exit.
  std::unique_ptr<sim::PeriodicTask> timeline_sampler;
  std::unique_ptr<sim::PeriodicTask> telemetry_snapper;
  std::unique_ptr<sim::PeriodicTask> hot_in_swapper;

  TestbedResult res;
  if (config.timeline_bin > 0) {
    // The sampler's event for instant k·bin is pushed at (k−1)·bin, before
    // any packet delivery at that instant, so a reply landing exactly at
    // k·bin counts in bin k. "Overflow" matches the paper's Fig. 18
    // notion: requests for cached keys that had to go to a server — queue
    // overflows plus reads arriving while the entry's fetch is still
    // pending (invalid).
    timeline_sampler = std::make_unique<sim::PeriodicTask>(
        &sim, config.timeline_bin, [&, prev = read_tally()]() mutable {
          Tally now = read_tally();
          res.throughput_timeline.push_back(
              static_cast<double>(now.rx_replies - prev.rx_replies) *
              static_cast<double>(kSecond) /
              static_cast<double>(config.timeline_bin));
          const uint64_t hits = now.lookup_hits - prev.lookup_hits;
          const uint64_t ovf = now.overflows + now.invalid_to_server -
                               prev.overflows - prev.invalid_to_server;
          res.overflow_ratio_timeline.push_back(
              hits > 0 ? static_cast<double>(ovf) / static_cast<double>(hits)
                       : 0.0);
          prev = std::move(now);
        });
    timeline_sampler->Start();
  }

  std::vector<telemetry::Snapshot> telemetry_snapshots;
  uint64_t telemetry_timer_events = 0;  // observer events, excluded below
  if (registry != nullptr && config.telemetry.snapshot_interval > 0) {
    telemetry_snapper = std::make_unique<sim::PeriodicTask>(
        &sim, config.telemetry.snapshot_interval, [&] {
          ++telemetry_timer_events;
          telemetry_snapshots.push_back(registry->Sample(sim.now()));
        });
    telemetry_snapper->Start();
  }

  if (config.workload.hot_in) {
    hot_in_swapper = std::make_unique<sim::PeriodicTask>(
        &sim, config.workload.hot_in_period, [&] { dynamic->Advance(); });
    hot_in_swapper->Start();
  }

  // Warmup, then the measurement window.
  sim.RunUntil(config.warmup);
  const Tally at_warmup = read_tally();
  for (auto& c : clients) c->OpenWindow();
  sim.RunUntil(config.warmup + config.duration);
  const Tally at_end = read_tally();
  for (auto& c : clients) c->CloseWindow();
  // Stop before collecting so requests still on the wire are retired into
  // inflight_at_stop (and queued callbacks don't fire into destroyed
  // nodes; the simulator dies with everything else at scope exit anyway).
  for (auto& c : clients) c->Stop();

  // ---- collect ------------------------------------------------------------
  const double secs =
      static_cast<double>(config.duration) / static_cast<double>(kSecond);

  for (auto& c : clients) {
    res.read_cached_latency.Merge(c->cached_read_latency());
    res.read_server_latency.Merge(c->server_read_latency());
    res.write_latency.Merge(c->write_latency());
    res.switch_resident.Merge(c->switch_resident());
    res.collisions += c->stats().collisions;
    res.stale_reads += c->stats().stale_reads;
    res.timeouts += c->stats().timeouts;
    res.retransmissions += c->stats().retransmissions;
    res.retries_exhausted += c->stats().retries_exhausted;
    res.inflight_at_stop += c->stats().inflight_at_stop;
  }
  if (injector != nullptr) res.faults_injected = injector->stats().injected;
  if (failover != nullptr) res.reroutes = failover->stats().reroutes;
  // Counted whether or not failover is rerouting.
  res.blackholed_packets = topo.blackholed_packets();
  res.rx_rps =
      static_cast<double>(at_end.rx_replies - at_warmup.rx_replies) / secs;
  res.tx_rps =
      static_cast<double>(at_end.tx_requests - at_warmup.tx_requests) / secs;

  stats::LoadTracker loads(static_cast<size_t>(config.topo.num_servers));
  for (size_t i = 0; i < servers.size(); ++i)
    loads.Add(i, at_end.server_requests[i] - at_warmup.server_requests[i]);
  res.server_drops = at_end.server_dropped - at_warmup.server_dropped;
  res.server_loads = loads.counts();
  res.balancing_efficiency = loads.BalancingEfficiency();
  res.server_served_rps = static_cast<double>(loads.total()) / secs;

  res.lookup_hits = at_end.lookup_hits - at_warmup.lookup_hits;
  res.cache_served_rps =
      static_cast<double>(at_end.cache_served - at_warmup.cache_served) / secs;
  if (!orbits.empty()) {
    res.absorbed = at_end.absorbed - at_warmup.absorbed;
    res.overflows = at_end.overflows - at_warmup.overflows;
    res.overflow_ratio =
        res.lookup_hits > 0
            ? static_cast<double>(res.overflows) /
                  static_cast<double>(res.lookup_hits)
            : 0.0;
    for (int r = 0; r < racks; ++r) {
      res.cache_entries += orbits[static_cast<size_t>(r)]->num_entries();
      res.cache_packets_in_flight += static_cast<uint64_t>(
          std::max<int64_t>(0, topo.leaf(r).stats().recirc_in_flight));
    }
    res.cp_drop_evicted = at_end.cp_drop_evicted;
    res.cp_drop_invalid = at_end.cp_drop_invalid;
    res.cp_drop_epoch = at_end.cp_drop_epoch;
    res.validations = at_end.validations;
    res.controller_cache_size = fab_ctrl->TotalCacheSize();
  }
  for (const nc::NetProgram* p : netps) res.cache_entries += p->num_entries();
  res.recirc_drops = at_end.recirc_drops - at_warmup.recirc_drops;
  // All leaves run the identical program: one leaf's RMT ledger is the
  // per-switch usage story (a fabric does not pool SRAM across switches).
  const rmt::Resources& rmt_usage = topo.leaf(0).resources();
  res.resource_report = rmt_usage.Report();
  res.rmt_stages_used = rmt_usage.stages_used();
  res.rmt_sram_bytes_used = rmt_usage.sram_bytes_used();
  res.rmt_sram_fraction = rmt_usage.sram_fraction_used();
  res.rmt_alus_used = rmt_usage.alus_used();
  // The snapshot timer is the one simulator event telemetry adds; exclude
  // it so the reported count — and therefore the record JSONL — is
  // identical with instrumentation on or off.
  res.events_processed = sim.events_processed() - telemetry_timer_events;

  if (capture_on) {
    telemetry::RunCapture* cap = config.telemetry.capture;
    cap->Clear();
    if (registry != nullptr) {
      // Final end-of-run sample — unless the periodic timer already fired
      // at this exact instant (duplicate timestamps would make one run
      // look like two snapshots to downstream join/diff tools).
      if (telemetry_snapshots.empty() ||
          telemetry_snapshots.back().at != sim.now())
        telemetry_snapshots.push_back(registry->Sample(sim.now()));
      cap->snapshots = std::move(telemetry_snapshots);
    }
    if (int_sink != nullptr) int_sink->Drain(&cap->int_capture);
    if (flight != nullptr) {
      flight->TriggerDump(sim.now(), "end of run");
      cap->flight_dump = flight->DumpText();
    }
  }

  // ---- verification -------------------------------------------------------
  // Run last so that the fail_fast throw (below) happens after every metric
  // and capture is filled — a verification failure reports on a complete
  // run, and the flight-recorder check hook still gets its dump.
  // Conservation must balance across every leaf, spine, uplink, and
  // blackholed packet.
  if (verifier != nullptr) {
    verify::Verifier::EndOfRun eor;
    const sim::PacketPool::Stats& ps = sim.packet_pool().stats();
    eor.pool_acquired = ps.allocated + ps.recycled;
    eor.pool_released = ps.released;
    uint64_t server_queued = 0;
    for (auto& s : servers) server_queued += s->queue_depth();
    eor.expected_live = sim.pending_deliveries() + server_queued;
    for (int r = 0; r < racks; ++r)
      eor.recirc_in_flight +=
          static_cast<int64_t>(topo.leaf(r).stats().recirc_in_flight);
    // The orbit census (one circulating packet per valid entry not
    // awaiting a no-cloning refetch) is exact only when nothing forked,
    // dropped, or invalidated cache packets outside the serve loop;
    // otherwise record why it was skipped.
    std::string census_skip;
    if (orbits.empty()) {
      census_skip = "scheme has no orbiting cache packets";
    } else if (config.cache.multi_packet) {
      census_skip = "multi-packet entries orbit fragment sets";
    } else if (config.cache.write_back) {
      census_skip = "write-back forks flush copies";
    } else if (!config.fault.events.empty()) {
      census_skip = "fault schedule may reset data-plane state";
    } else if (config.workload.write_ratio > 0 ||
               config.workload.twitter != nullptr) {
      census_skip = "writes invalidate entries while packets still orbit";
    } else if (at_end.recirc_drops > 0) {
      census_skip = "recirculation ring dropped cache packets";
    } else if (at_end.cp_drop_evicted + at_end.cp_drop_invalid +
                   at_end.cp_drop_epoch >
               0) {
      census_skip = "cache packets were retired mid-run";
    }
    for (int r = 0; census_skip.empty() && r < racks; ++r) {
      const auto& cs = fab_ctrl->controller(r).stats();
      if (cs.evictions > 0 || cs.fetch_retries > 0 || cs.fetch_failures > 0)
        census_skip = "controller evicted or re-fetched entries";
    }
    if (census_skip.empty()) {
      eor.valid_entries = 0;
      for (const oc::OrbitProgram* p : orbits)
        eor.valid_entries += static_cast<int64_t>(p->CountValidEntries());
    } else {
      eor.orbit_skip_reason = std::move(census_skip);
    }
    eor.resources = &topo.leaf(0).resources();
    verifier->Finalize(eor);
    sim.packet_pool().set_observer(nullptr);
    res.verify_violations = verifier->violation_count();
    res.verify_replies_checked = verifier->replies_checked();
    res.verify_allowed_stale = verifier->allowed_stale();
    res.verify_report = verifier->Report();
    ORBIT_CHECK_MSG(!config.verify.fail_fast || verifier->ok(),
                    "verification failed:\n" << res.verify_report);
  }

  return res;
}

SaturationResult FindSaturation(TestbedConfig config, double loss_tolerance,
                                int max_corrections) {
  SaturationResult out;

  // Probe well below aggregate capacity so per-server shares are measured
  // in the linear (no-drop) regime.
  const double aggregate =
      config.topo.server_rate_rps > 0
          ? config.topo.server_rate_rps * config.topo.num_servers
          : 1e7;
  TestbedConfig probe = config;
  probe.topo.client_rate_rps = 0.25 * aggregate;
  probe.duration = std::max<SimTime>(50 * kMillisecond, config.duration / 2);
  // Only the final (saturating) run should fill the caller's capture.
  probe.telemetry = TestbedConfig::Telemetry{};
  TestbedResult probe_res = RunTestbed(probe);
  ++out.runs;

  const uint64_t max_load = *std::max_element(probe_res.server_loads.begin(),
                                              probe_res.server_loads.end());
  const double probe_secs = static_cast<double>(probe.duration) /
                            static_cast<double>(kSecond);
  const double max_load_rps = static_cast<double>(max_load) / probe_secs;
  // Loads scale linearly with Tx below saturation, so the hottest server
  // hits its service rate at:
  double tx = max_load_rps > 0 ? config.topo.server_rate_rps * probe_res.tx_rps /
                                     max_load_rps
                               : probe.topo.client_rate_rps;

  for (int i = 0;; ++i) {
    TestbedConfig attempt = config;
    attempt.topo.client_rate_rps = tx;
    out.result = RunTestbed(attempt);
    ++out.runs;
    out.sat_tx_rps = tx;
    const double loss =
        out.result.tx_rps > 0
            ? 1.0 - out.result.rx_rps / out.result.tx_rps
            : 0.0;
    if (loss <= loss_tolerance || i >= max_corrections) break;
    // Back off proportionally to the measured goodput.
    tx *= std::max(0.5, out.result.rx_rps / out.result.tx_rps) * 0.98;
  }
  return out;
}

}  // namespace orbit::testbed
