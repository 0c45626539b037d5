#include "workloads.h"

#include "common/check.h"
#include "fault/fault.h"
#include "workload/value_dist.h"

namespace orbit::perfbench {

namespace {

// Offered loads: each single-ToR workload runs just below the saturating
// load testbed::FindSaturation reports for it at seed 42 (run
// `.bench_build/perfbench saturate --workload NAME` to re-derive).
constexpr double kOrbitReadRps = 4'700'000;   // saturates near 4.83M
constexpr double kNetcacheWriteRps = 1'300'000;  // saturates near 1.35M
// fig_fabric_failover's per-rack block: 500K RPS offered per rack.
constexpr double kFabricRackRps = 500'000;
constexpr int kFabricRacks = 4;

// The §5.1 testbed every figure starts from: 4 clients, 32 emulated
// servers at 100K RPS each, Zipf-0.99 over a 100K-key space, the paper's
// value-size mix and 128 preloaded OrbitCache items. Set field by field,
// even where TestbedConfig's defaults agree, so the workloads do not move
// when a default does.
testbed::TestbedConfig PaperTestbed(uint64_t seed) {
  testbed::TestbedConfig cfg;
  cfg.topo.num_clients = 4;
  cfg.topo.num_servers = 32;
  cfg.topo.server_rate_rps = 100'000;
  cfg.workload.num_keys = 100'000;
  cfg.workload.zipf_theta = 0.99;
  cfg.workload.value_dist = wl::ValueDist::PaperDefault();
  cfg.cache.orbit_cache_size = 128;
  cfg.cache.netcache_size = 10'000;
  cfg.seed = seed;
  return cfg;
}

// Spine 1 crashes a third of the way into the run and restarts at two
// thirds, as fig_fabric_failover schedules it.
void ScheduleSpineCrash(testbed::TestbedConfig& cfg) {
  const SimTime run = cfg.warmup + cfg.duration;
  cfg.fault = fault::SpineCrashAt(/*spine=*/1, run / 3, 2 * run / 3);
}

}  // namespace

uint64_t SubSeed(uint64_t seed, int k) {
  return seed + static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ull;
}

bool IsWorkload(const std::string& name) {
  return name == "orbit_read" || name == "netcache_write_10m" ||
         name == "fabric_failover";
}

testbed::TestbedConfig WorkloadConfig(const std::string& name, uint64_t seed) {
  testbed::TestbedConfig cfg = PaperTestbed(seed);
  if (name == "orbit_read") {
    cfg.scheme = testbed::Scheme::kOrbitCache;
    cfg.topo.client_rate_rps = kOrbitReadRps;
    cfg.warmup = 10 * kMillisecond;
    cfg.duration = 20 * kMillisecond;
  } else if (name == "netcache_write_10m") {
    cfg.scheme = testbed::Scheme::kNetCache;
    cfg.workload.num_keys = 10'000'000;
    cfg.workload.write_ratio = 0.25;
    cfg.topo.client_rate_rps = kNetcacheWriteRps;
    cfg.warmup = 10 * kMillisecond;
    cfg.duration = 20 * kMillisecond;
  } else if (name == "fabric_failover") {
    // The 4-rack spine-crash point of fig_fabric_failover: 4 servers and
    // 2 clients per rack, 2 spines, 100 us probes with a 2 ms detection
    // window, 3 retries at a 5 ms timeout, no warmup.
    cfg.scheme = testbed::Scheme::kOrbitCache;
    cfg.topo.fabric.num_racks = kFabricRacks;
    cfg.topo.fabric.num_spines = 2;
    cfg.topo.fabric.failover = true;
    cfg.topo.fabric.probe_interval = 100 * kMicrosecond;
    cfg.topo.fabric.detection_window = 2 * kMillisecond;
    cfg.topo.num_servers = 4 * kFabricRacks;
    cfg.topo.num_clients = 2 * kFabricRacks;
    cfg.topo.client_rate_rps = kFabricRackRps * kFabricRacks;
    cfg.client.max_retries = 3;
    cfg.client.request_timeout = 5 * kMillisecond;
    cfg.warmup = 0;
    cfg.duration = 30 * kMillisecond;
    cfg.timeline_bin = 10 * kMillisecond;
    ScheduleSpineCrash(cfg);
  } else {
    ORBIT_CHECK_MSG(false, "unknown workload '" << name << "'");
  }
  return cfg;
}

testbed::TestbedConfig SetupConfig(const std::string& name, uint64_t seed) {
  testbed::TestbedConfig cfg = WorkloadConfig(name, seed);
  cfg.warmup = 0;
  cfg.duration = 3;  // ns: no request can complete a round trip
  cfg.timeline_bin = 0;
  if (!cfg.fault.events.empty()) ScheduleSpineCrash(cfg);
  return cfg;
}

}  // namespace orbit::perfbench
