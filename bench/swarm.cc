// Randomized verification swarm: drives the testbed through a cloud of
// randomized (config × workload × fault-schedule) points with the
// shadow-oracle verification layer (src/verify/) enabled, and reports any
// point whose oracle, packet-conservation, or switch-invariant checks
// fire. Every point is a pure function of (--seed, point index), so a
// failure report is a one-line reproduction:
//
//   swarm                     # 20 points from the default seed
//   swarm --points 200        # a longer sweep
//   swarm --seed 7 --point 13 # re-run exactly the failing point
//
// Exit 0: every point clean. Exit 1: at least one violation (each printed
// with its seed, point index, config summary, and the verifier's report).
// Exit 2: usage errors.
#include <cstdio>
#include <exception>
#include <string>

#include "common/random.h"
#include "harness/flags.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace {

using orbit::Rng;
using orbit::kMicrosecond;
using orbit::kMillisecond;
using orbit::SimTime;
namespace fault = orbit::fault;
namespace testbed = orbit::testbed;

orbit::harness::Flags MakeFlags() {
  orbit::harness::Flags flags;
  flags.AddInt("points", 20, "N", "number of randomized points (default 20)");
  flags.AddUint64("seed", 1, "N", "swarm base seed (default 1)");
  flags.AddInt("point", -1, "I",
               "run only point index I (reproduce a reported failure)");
  flags.AddBool("fabric",
                "randomize leaf-spine fabric points (racks, spines, failover) "
                "with the fabric fault taxonomy instead of single-switch "
                "points");
  flags.AddBool("fail_fast",
                "abort a point at its first verifier violation (CI chaos "
                "profile); the abort is reported like any other failure");
  flags.AddBool("verbose", "print every point's config, not just failures");
  flags.AddBool("help", "this message").Alias("-h");
  return flags;
}

// One randomized point. Everything is drawn from `rng`, which is seeded
// from (base seed, point index) only — rerunning the same pair rebuilds
// the identical config, workload, and fault schedule.
testbed::TestbedConfig RandomConfig(Rng& rng) {
  testbed::TestbedConfig cfg;

  switch (rng.UniformU64(4)) {
    case 0: cfg.scheme = testbed::Scheme::kNoCache; break;
    case 1: cfg.scheme = testbed::Scheme::kNetCache; break;
    default: cfg.scheme = testbed::Scheme::kOrbitCache; break;
  }

  cfg.topo.num_clients = 1 + static_cast<int>(rng.UniformU64(3));
  cfg.topo.num_servers = 4 << rng.UniformU64(3);  // 4, 8, 16
  cfg.topo.server_rate_rps = 10'000 * (1 + rng.UniformU64(4));
  cfg.topo.client_rate_rps =
      cfg.topo.server_rate_rps * cfg.topo.num_servers *
      (0.5 + 1.5 * rng.UniformDouble());  // under- to over-saturated

  cfg.workload.num_keys = 20'000 * (1 + rng.UniformU64(5));
  // The workload generator supports theta in [0, 1).
  const double thetas[] = {0.0, 0.5, 0.9, 0.99};
  cfg.workload.zipf_theta = thetas[rng.UniformU64(4)];
  const double write_ratios[] = {0.0, 0.0, 0.05, 0.2, 0.5};
  cfg.workload.write_ratio = write_ratios[rng.UniformU64(5)];

  cfg.cache.orbit_cache_size = size_t{8} << rng.UniformU64(4);  // 8..64
  cfg.cache.orbit_capacity = 128;
  cfg.cache.orbit_queue_size = size_t{2} << rng.UniformU64(3);  // 2..8
  // Sized so the NetCache value tables fit the per-stage SRAM budget even
  // with the recirculating extended-value layout.
  cfg.cache.netcache_size = 500 * (1 + rng.UniformU64(2));

  // One protocol variation per point keeps every ablation covered without
  // stacking combinations the testbed doesn't support.
  if (cfg.scheme == testbed::Scheme::kOrbitCache) {
    switch (rng.UniformU64(6)) {
      case 0: cfg.cache.epoch_guard = false; break;
      case 1: cfg.cache.enable_cloning = false; break;
      case 2: cfg.cache.write_back = true; break;
      case 3: cfg.cache.multi_packet = true; break;
      case 4:
        cfg.control.run_cache_updates = true;
        cfg.control.update_period = 20 * kMillisecond;
        break;
      default: break;  // paper-default protocol
    }
  } else if (cfg.scheme == testbed::Scheme::kNetCache) {
    cfg.cache.netcache_recirc_read = rng.Bernoulli(0.3);
  }

  cfg.client.max_retries = static_cast<int>(rng.UniformU64(3));
  cfg.client.request_timeout = 10 * kMillisecond;

  cfg.warmup = 10 * kMillisecond;
  cfg.duration = (30 + 10 * rng.UniformU64(3)) * kMillisecond;

  // Fault schedule: none / switch reset / server crash+restart / bursty
  // server-link loss. Faults land inside the measurement window so the
  // oracle sees the recovery path, not just the steady state.
  const SimTime mid = cfg.warmup + cfg.duration / 3;
  switch (rng.UniformU64(4)) {
    case 0:
      break;
    case 1:
      cfg.fault = fault::SwitchResetAt(mid);
      break;
    case 2: {
      const int victim = static_cast<int>(
          rng.UniformU64(static_cast<uint64_t>(cfg.topo.num_servers)));
      cfg.fault = fault::ServerCrashAt(victim, mid, mid + 10 * kMillisecond);
      break;
    }
    default:
      cfg.fault.server_burst_loss.p_enter_bad = 0.01;
      cfg.fault.server_burst_loss.p_exit_bad = 0.2;
      cfg.fault.server_burst_loss.loss_bad = 0.5;
      break;
  }

  cfg.verify.enabled = true;
  cfg.verify.fail_fast = false;  // collect the report; the swarm decides
  return cfg;
}

// One randomized leaf–spine point (--fabric): a small fabric with the
// fabric fault taxonomy — uplink down/up, leaf and spine crashes, gray
// links, rack partitions, bursty uplinks — and probe-based failover on
// half the points. A separate generator keeps the default point stream
// byte-identical, so existing `swarm --seed S --point I` reproductions
// are unaffected by the fabric axis.
testbed::TestbedConfig RandomFabricConfig(Rng& rng) {
  testbed::TestbedConfig cfg;

  switch (rng.UniformU64(4)) {
    case 0: cfg.scheme = testbed::Scheme::kNoCache; break;
    case 1: cfg.scheme = testbed::Scheme::kNetCache; break;
    default: cfg.scheme = testbed::Scheme::kOrbitCache; break;
  }

  const int racks = 2 << rng.UniformU64(2);  // 2, 4, 8
  const int spines = 1 + static_cast<int>(rng.UniformU64(2));
  const int servers_per_rack = 2 << rng.UniformU64(2);  // 2, 4, 8
  cfg.topo.fabric.num_racks = racks;
  cfg.topo.fabric.num_spines = spines;
  cfg.topo.num_servers = racks * servers_per_rack;
  cfg.topo.num_clients = racks;  // one client per rack
  cfg.topo.server_rate_rps = 10'000 * (1 + rng.UniformU64(4));
  cfg.topo.client_rate_rps =
      cfg.topo.server_rate_rps * cfg.topo.num_servers *
      (0.5 + 1.5 * rng.UniformDouble());  // under- to over-saturated

  // Failover on half the points: faults then exercise detection +
  // rerouting; without it the same faults exercise blackhole accounting.
  if (rng.UniformU64(2) == 0) {
    cfg.topo.fabric.failover = true;
    cfg.topo.fabric.probe_interval = 100 * kMicrosecond;
    cfg.topo.fabric.detection_window =
        static_cast<SimTime>(1 + rng.UniformU64(4)) * 500 * kMicrosecond;
  }

  cfg.workload.num_keys = 20'000 * (1 + rng.UniformU64(5));
  const double thetas[] = {0.0, 0.5, 0.9, 0.99};
  cfg.workload.zipf_theta = thetas[rng.UniformU64(4)];
  const double write_ratios[] = {0.0, 0.0, 0.05, 0.2, 0.5};
  cfg.workload.write_ratio = write_ratios[rng.UniformU64(5)];

  cfg.cache.orbit_cache_size = size_t{8} << rng.UniformU64(4);  // per leaf
  cfg.cache.orbit_capacity = 128;
  cfg.cache.orbit_queue_size = size_t{2} << rng.UniformU64(3);
  cfg.cache.netcache_size = 500 * (1 + rng.UniformU64(2));

  cfg.client.max_retries = static_cast<int>(rng.UniformU64(3));
  cfg.client.request_timeout = 10 * kMillisecond;

  cfg.warmup = 10 * kMillisecond;
  cfg.duration = (30 + 10 * rng.UniformU64(3)) * kMillisecond;

  // Fabric fault axis. Faults land inside the measurement window and heal
  // before it ends, so the oracle sees outage, failover, and recovery.
  const SimTime mid = cfg.warmup + cfg.duration / 3;
  const SimTime heal = cfg.warmup + 2 * cfg.duration / 3;
  const int rack = static_cast<int>(rng.UniformU64(static_cast<uint64_t>(racks)));
  const int spine =
      static_cast<int>(rng.UniformU64(static_cast<uint64_t>(spines)));
  switch (rng.UniformU64(7)) {
    case 0:
      break;  // fault-free fabric point
    case 1:
      cfg.fault = fault::FabricLinkDownAt(rack, spine, mid, heal);
      break;
    case 2:
      cfg.fault = fault::LeafCrashAt(rack, mid, heal,
                                     /*rebuild_delay=*/2 * kMillisecond);
      break;
    case 3:
      cfg.fault = fault::SpineCrashAt(spine, mid, heal);
      break;
    case 4:
      cfg.fault = fault::LinkDegradeAt(
          rack, spine, /*dir=*/static_cast<int>(rng.UniformU64(2)),
          /*loss=*/0.3, /*extra_latency=*/20 * kMicrosecond, mid, heal);
      break;
    case 5:
      cfg.fault = fault::RackPartitionAt(rack, mid, heal);
      break;
    default:
      cfg.fault.fabric_burst_loss.p_enter_bad = 0.01;
      cfg.fault.fabric_burst_loss.p_exit_bad = 0.2;
      cfg.fault.fabric_burst_loss.loss_bad = 0.5;
      break;
  }

  cfg.verify.enabled = true;
  cfg.verify.fail_fast = false;  // main() flips this under --fail_fast
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  orbit::harness::Flags flags = MakeFlags();
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 MakeFlags().Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fprintf(stderr,
                 "usage: swarm [--points N] [--seed N] [--point I] [--fabric] "
                 "[--fail_fast]\n%s",
                 MakeFlags().Usage().c_str());
    return 0;
  }
  const int points = flags.GetInt("points");
  const uint64_t base_seed = flags.GetUint64("seed");
  const int only_point = flags.GetInt("point");
  const bool fabric = flags.GetBool("fabric");
  const bool fail_fast = flags.GetBool("fail_fast");
  const bool verbose = flags.GetBool("verbose");
  if (points < 1) {
    std::fprintf(stderr, "bad --points value: %s\n", flags.Raw("points").c_str());
    return 2;
  }

  int failures = 0;
  int ran = 0;
  // A "--point I" reproduction must work with the default --points, so the
  // sweep range stretches to cover the requested index.
  const int limit = only_point >= 0 && only_point + 1 > points
                        ? only_point + 1
                        : points;
  for (int i = 0; i < limit; ++i) {
    if (only_point >= 0 && i != only_point) continue;
    // Seed the point generator and the testbed from disjoint streams so
    // adding config axes never reshuffles the workloads of later points.
    Rng rng(base_seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i));
    testbed::TestbedConfig cfg =
        fabric ? RandomFabricConfig(rng) : RandomConfig(rng);
    if (fail_fast) cfg.verify.fail_fast = true;
    cfg.seed = base_seed ^ (0xabcd0000ull + static_cast<uint64_t>(i));
    ++ran;

    std::string outcome;
    uint64_t violations = 0;
    std::string report;
    try {
      const testbed::TestbedResult res = testbed::RunTestbed(cfg);
      violations = res.verify_violations;
      report = res.verify_report;
      outcome = violations == 0 ? "ok" : "VIOLATIONS";
    } catch (const std::exception& e) {
      violations = 1;
      report = std::string("run aborted: ") + e.what();
      outcome = "ABORTED";
    }

    if (violations > 0 || verbose) {
      std::printf("point %d seed %llu: %s\n  config: %s\n", i,
                  static_cast<unsigned long long>(base_seed), outcome.c_str(),
                  testbed::ConfigJson(cfg).Dump().c_str());
    }
    if (violations > 0) {
      ++failures;
      std::printf("  reproduce: swarm --seed %llu --point %d%s\n%s\n",
                  static_cast<unsigned long long>(base_seed), i,
                  fabric ? " --fabric" : "", report.c_str());
    }
  }

  if (ran == 0) {
    std::fprintf(stderr, "--point %d did not run (negative index?)\n",
                 only_point);
    return 2;
  }
  std::printf("swarm: %d/%d points clean (seed %llu)\n", ran - failures, ran,
              static_cast<unsigned long long>(base_seed));
  return failures > 0 ? 1 : 0;
}
