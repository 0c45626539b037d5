// End-to-end smoke and property tests for the full testbed assembly.
#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "workload/twitter.h"

namespace orbit::testbed {
namespace {

TestbedConfig SmallConfig(Scheme scheme) {
  TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.num_clients = 2;
  cfg.topo.num_servers = 8;
  cfg.topo.server_rate_rps = 20'000;
  cfg.topo.client_rate_rps = 400'000;
  cfg.workload.num_keys = 100'000;
  cfg.workload.zipf_theta = 0.99;
  cfg.cache.orbit_cache_size = 32;
  cfg.cache.orbit_capacity = 128;
  cfg.cache.netcache_size = 1000;
  cfg.warmup = 20 * kMillisecond;
  cfg.duration = 80 * kMillisecond;
  cfg.seed = 7;
  return cfg;
}

TEST(Testbed, OrbitCacheSmokeRun) {
  TestbedResult res = RunTestbed(SmallConfig(Scheme::kOrbitCache));
  EXPECT_GT(res.rx_rps, 0);
  EXPECT_GT(res.cache_served_rps, 0) << "switch should serve hot keys";
  EXPECT_GT(res.absorbed, 0u);
  EXPECT_EQ(res.stale_reads, 0u);
  EXPECT_EQ(res.cache_entries, 32u);
  // Exactly one cache packet should circulate per preloaded (valid) entry.
  EXPECT_LE(res.cache_packets_in_flight, 32u);
  EXPECT_GE(res.cache_packets_in_flight, 28u);
}

TEST(Testbed, NoCacheSmokeRun) {
  TestbedResult res = RunTestbed(SmallConfig(Scheme::kNoCache));
  EXPECT_GT(res.rx_rps, 0);
  EXPECT_EQ(res.cache_served_rps, 0);
  EXPECT_EQ(res.stale_reads, 0u);
}

TEST(Testbed, NetCacheSmokeRun) {
  TestbedResult res = RunTestbed(SmallConfig(Scheme::kNetCache));
  EXPECT_GT(res.rx_rps, 0);
  EXPECT_GT(res.cache_served_rps, 0);
  EXPECT_EQ(res.stale_reads, 0u);
}

TEST(Testbed, OrbitCacheBeatsNoCacheOnSkewedWorkload) {
  // Compare saturated throughput — the paper's Fig. 9 metric. Under skew
  // the hottest partition caps NoCache, while OrbitCache absorbs the hot
  // keys in the switch.
  TestbedResult orbit = FindSaturation(SmallConfig(Scheme::kOrbitCache)).result;
  TestbedResult nocache = FindSaturation(SmallConfig(Scheme::kNoCache)).result;
  EXPECT_GT(orbit.rx_rps, 1.5 * nocache.rx_rps);
  EXPECT_GE(orbit.balancing_efficiency, nocache.balancing_efficiency);
}

TEST(Testbed, UniformWorkloadNeedsNoCache) {
  TestbedConfig cfg = SmallConfig(Scheme::kNoCache);
  cfg.workload.zipf_theta = 0.0;
  cfg.topo.client_rate_rps = 100'000;  // below aggregate capacity of 160K
  TestbedResult res = RunTestbed(cfg);
  // Uniform load balances itself: every server sees similar traffic.
  EXPECT_GT(res.balancing_efficiency, 0.8);
}

TEST(Testbed, WritesReachServersAndStayCoherent) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.workload.write_ratio = 0.2;
  TestbedResult res = RunTestbed(cfg);
  EXPECT_GT(res.rx_rps, 0);
  EXPECT_EQ(res.stale_reads, 0u) << "invalidation protocol must hold";
  EXPECT_GT(res.write_latency.count(), 0u);
}

TEST(Testbed, WriteBackOutperformsWriteThroughUnderWrites) {
  // §3.10: write-back keeps serving from the switch regardless of the
  // write ratio, while write-through forfeits its gain to invalidations.
  TestbedConfig wt = SmallConfig(Scheme::kOrbitCache);
  wt.workload.write_ratio = 0.5;
  TestbedConfig wb = wt;
  wb.cache.write_back = true;

  TestbedResult wt_res = FindSaturation(wt).result;
  TestbedResult wb_res = FindSaturation(wb).result;
  EXPECT_GT(wb_res.rx_rps, 1.2 * wt_res.rx_rps);
  EXPECT_EQ(wb_res.stale_reads, 0u);
  EXPECT_GT(wb_res.cache_served_rps, wt_res.cache_served_rps);
}

TEST(Testbed, MultiPacketItemsEndToEnd) {
  // Values spanning three packets: fragments circulate, clients
  // reassemble, coherence still holds. Run below server saturation — in
  // sustained overload, write replies return so late that newer writes
  // have always superseded them and entries legitimately stay invalid.
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.cache.multi_packet = true;
  cfg.workload.value_dist = wl::ValueDist::Fixed(4000);
  cfg.cache.orbit_cache_size = 8;  // 3 packets per entry: keep the ring modest
  cfg.workload.write_ratio = 0.05;
  cfg.topo.client_rate_rps = 120'000;  // below the 160K aggregate capacity
  TestbedResult res = RunTestbed(cfg);
  EXPECT_GT(res.rx_rps, 100'000.0);
  EXPECT_GT(res.cache_served_rps, 10'000.0)
      << "large items served by the switch";
  EXPECT_EQ(res.stale_reads, 0u);
  // Three fragments per cached entry orbit the switch; entries with a
  // write in flight at the snapshot may be momentarily packet-less.
  EXPECT_GE(res.cache_packets_in_flight, 12u);
  EXPECT_LE(res.cache_packets_in_flight, 24u);
}

TEST(Testbed, DynamicWorkloadRecoversAfterSwap) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.topo.num_servers = 4;
  cfg.topo.server_rate_rps = 50'000;
  cfg.topo.client_rate_rps = 180'000;
  cfg.workload.num_keys = 50'000;
  cfg.cache.orbit_cache_size = 32;
  cfg.workload.hot_in = true;
  cfg.workload.hot_in_count = 32;
  cfg.workload.hot_in_period = 400 * kMillisecond;
  cfg.control.run_cache_updates = true;
  cfg.control.update_period = 100 * kMillisecond;
  cfg.warmup = 0;
  cfg.duration = 1200 * kMillisecond;
  cfg.timeline_bin = 50 * kMillisecond;
  TestbedResult res = RunTestbed(cfg);
  ASSERT_GE(res.throughput_timeline.size(), 20u);
  // After the swap at 400 ms the controller must restore switch serving:
  // the last pre-swap bin and the tail of the post-swap window should both
  // be near the offered rate.
  const double before = res.throughput_timeline[6];   // 300-350 ms
  const double settled = res.throughput_timeline[14]; // 700-750 ms
  EXPECT_GT(before, 150'000.0);
  EXPECT_GT(settled, 0.9 * before) << "recovery within ~300 ms of the swap";
  EXPECT_EQ(res.stale_reads, 0u);
}

TEST(Testbed, SaturationSearchFindsTheServerLimit) {
  // With a uniform workload the saturation point must sit near the
  // aggregate server capacity, independent of the probe rate.
  TestbedConfig cfg = SmallConfig(Scheme::kNoCache);
  cfg.workload.zipf_theta = 0.0;
  SaturationResult sat = FindSaturation(cfg);
  const double capacity = cfg.topo.server_rate_rps * cfg.topo.num_servers;
  EXPECT_GT(sat.result.rx_rps, 0.75 * capacity);
  EXPECT_LE(sat.result.rx_rps, 1.05 * capacity);
  EXPECT_GE(sat.runs, 2);
}

// --- TestbedConfig::Validate -------------------------------------------

bool HasErrorMentioning(const std::vector<std::string>& errors,
                        const std::string& needle) {
  for (const auto& e : errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

TEST(TestbedValidate, DefaultAndSmallConfigsAreValid) {
  EXPECT_TRUE(TestbedConfig{}.Validate().empty());
  EXPECT_TRUE(SmallConfig(Scheme::kOrbitCache).Validate().empty());
}

TEST(TestbedValidate, CacheLargerThanCapacityIsActionable) {
  TestbedConfig cfg;
  cfg.cache.orbit_cache_size = 2048;
  cfg.cache.orbit_capacity = 1024;
  const auto errors = cfg.Validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(HasErrorMentioning(errors, "orbit_cache_size"));
  EXPECT_TRUE(HasErrorMentioning(errors, "2048"))
      << "the message must quote the offending values";
  EXPECT_TRUE(HasErrorMentioning(errors, "1024"));
}

TEST(TestbedValidate, EmptyOrbitCacheIsRejected) {
  TestbedConfig cfg;
  cfg.cache.orbit_cache_size = 0;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "orbit_cache_size"));
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "NoCache"))
      << "the message must name the scheme to use instead";
  // NetCache with no preloaded items stays valid: it is the NoCache oracle.
  cfg.scheme = Scheme::kNetCache;
  cfg.cache.netcache_size = 0;
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(TestbedValidate, OrbitCacheMultiPacketNeedsCloning) {
  // Validate() must catch what OrbitProgram's constructor aborts on.
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.cache.multi_packet = true;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.cache.enable_cloning = false;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "cache.enable_cloning"));
  cfg.scheme = Scheme::kNetCache;  // only OrbitCache clones fragments
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(TestbedValidate, OrbitCacheWriteBackNeedsTheEpochGuard) {
  // Validate() must catch what OrbitProgram's constructor aborts on.
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.cache.write_back = true;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.cache.epoch_guard = false;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "cache.epoch_guard"));
  cfg.scheme = Scheme::kNetCache;
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(TestbedValidate, ClientsBeyondTheAddressPlanAreRejected) {
  // Client i sits at 1000 + i; client 1000 would take server 0's address.
  // (NoCache: OrbitCache's clone-group table caps the hosts lower.)
  TestbedConfig cfg;
  cfg.scheme = Scheme::kNoCache;
  cfg.topo.num_clients = 1000;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.topo.num_clients = 1001;
  const auto errors = cfg.Validate();
  EXPECT_TRUE(HasErrorMentioning(errors, "num_clients"));
  EXPECT_TRUE(HasErrorMentioning(errors, "1001"))
      << "the message must quote the offending value";
}

TEST(TestbedValidate, ServersBeyondTheOneByteIdAreRejected) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kNoCache;
  cfg.topo.num_servers = 256;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.topo.num_servers = 300;
  const auto errors = cfg.Validate();
  EXPECT_TRUE(HasErrorMentioning(errors, "num_servers"));
  EXPECT_TRUE(HasErrorMentioning(errors, "300"));
  EXPECT_TRUE(HasErrorMentioning(errors, "SRV_ID"))
      << "the message must name the limiting header field";
}

TEST(TestbedValidate, OrbitCacheHostsBeyondTheCloneTableAreRejected) {
  // One clone group per client, server and controller: 250 + 5 + 1 fits
  // the 256-entry table, one more client does not.
  TestbedConfig cfg;
  cfg.topo.num_clients = 250;
  cfg.topo.num_servers = 5;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.topo.num_clients = 251;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "clone-group"));
  // NoCache and NetCache keep no clone groups.
  cfg.scheme = Scheme::kNoCache;
  EXPECT_TRUE(cfg.Validate().empty());
}

// The rules below reject configs that used to pass Validate() and then
// abort inside RunTestbed (or, for the recirculation rate, divide by zero).

TEST(TestbedValidate, ZipfThetaMustStayBelowOne) {
  TestbedConfig cfg = SmallConfig(Scheme::kNoCache);
  cfg.workload.zipf_theta = 0.99;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.workload.zipf_theta = 1.0;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "zipf_theta"));
}

TEST(TestbedValidate, KeySizeMustHoldEveryKeyId) {
  // A key is 'k' plus the decimal id, at least 8 bytes: 10M keys fit in 8
  // bytes (largest id 9,999,999), 20M keys need 9.
  TestbedConfig cfg = SmallConfig(Scheme::kNoCache);
  cfg.workload.key_size = 1;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "key_size"));
  cfg.workload.key_size = 8;
  cfg.workload.num_keys = 10'000'000;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.workload.num_keys = 20'000'000;
  const auto errors = cfg.Validate();
  EXPECT_TRUE(HasErrorMentioning(errors, "key_size must be >= 9"));
  cfg.workload.key_size = 9;
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(TestbedValidate, ValuesMustFitOnePacketOrItsFragments) {
  // 16B keys leave 1416B of value in one packet, under every scheme.
  for (Scheme scheme :
       {Scheme::kNoCache, Scheme::kNetCache, Scheme::kOrbitCache}) {
    TestbedConfig cfg = SmallConfig(scheme);
    cfg.workload.value_dist = wl::ValueDist::Fixed(1416);
    EXPECT_TRUE(cfg.Validate().empty()) << SchemeName(scheme);
    cfg.workload.value_dist = wl::ValueDist::Fixed(1500);
    EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "multi_packet"))
        << SchemeName(scheme);
  }
  // Multi-packet items: at most 255 fragments of 1416B.
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.cache.multi_packet = true;
  cfg.workload.value_dist = wl::ValueDist::Fixed(1500);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.workload.value_dist = wl::ValueDist::Fixed(400'000);
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "282 fragments"));
  // A key that fills the payload leaves no value budget at all.
  cfg.workload.value_dist = wl::ValueDist::Fixed(64);
  cfg.workload.key_size = 2000;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "leaves no room"));
  // Fig.-14 mode sizes values itself, up to 1024B: a 500B key leaves 932B.
  cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.workload.value_dist = wl::ValueDist::Fixed(64);
  cfg.workload.key_size = 500;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.workload.twitter = &wl::Fig14Profiles()[0];
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "1024B"));
}

TEST(TestbedValidate, HotInSetMustFitHalfTheKeys) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.workload.hot_in = true;
  cfg.workload.hot_in_period = 10 * kMillisecond;
  cfg.workload.num_keys = 100;
  cfg.workload.hot_in_count = 50;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.workload.hot_in_count = 1000;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "hot_in_count"));
}

TEST(TestbedValidate, LinkAndRecirculationRatesMustBePositive) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.topo.client_link_gbps = 0;
  cfg.topo.server_link_gbps = -1;
  cfg.topo.asic.recirc_rate_gbps = 0;
  const auto errors = cfg.Validate();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(HasErrorMentioning(errors, "client_link_gbps"));
  EXPECT_TRUE(HasErrorMentioning(errors, "server_link_gbps"));
  EXPECT_TRUE(HasErrorMentioning(errors, "recirc_rate_gbps"));
  cfg.topo.client_link_gbps = 0.001;
  cfg.topo.server_link_gbps = 0.001;
  cfg.topo.asic.recirc_rate_gbps = 0.001;
  EXPECT_TRUE(cfg.Validate().empty());
}

// A negative link delay, rebuild delay or fault time used to pass
// Validate() and then fail an event-core check mid-run (an arrival, a
// rebuild or a fault scheduled before the current time).

TEST(TestbedValidate, NegativeLinkDelayIsRejected) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.topo.link_delay = 0;
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.topo.link_delay = -100'000;
  const auto errors = cfg.Validate();
  EXPECT_TRUE(HasErrorMentioning(errors, "topo.link_delay"));
  EXPECT_TRUE(HasErrorMentioning(errors, "-100000"));
}

TEST(TestbedValidate, NegativeSwitchRebuildDelayIsRejected) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.fault = fault::SwitchResetAt(5 * kMillisecond, /*rebuild_delay=*/0);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.fault.switch_rebuild_delay = -1;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "switch_rebuild_delay"));
}

TEST(TestbedValidate, FaultEventsBeforeTheRunAreRejected) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.fault = fault::ServerCrashAt(0, 0, kMillisecond);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.fault = fault::ServerCrashAt(0, -kMillisecond, kMillisecond);
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "before the run starts"));
}

TEST(TestbedValidate, TimelineBinBeyondDurationIsRejected) {
  TestbedConfig cfg;
  cfg.duration = 100 * kMillisecond;
  cfg.timeline_bin = kSecond;
  EXPECT_TRUE(HasErrorMentioning(cfg.Validate(), "timeline_bin"));
}

TEST(TestbedValidate, CollectsEveryViolationNotJustTheFirst) {
  TestbedConfig cfg;
  cfg.topo.num_clients = 0;
  cfg.workload.num_keys = 0;
  cfg.workload.write_ratio = 1.5;
  cfg.duration = 0;
  const auto errors = cfg.Validate();
  EXPECT_GE(errors.size(), 4u);
  EXPECT_TRUE(HasErrorMentioning(errors, "num_clients"));
  EXPECT_TRUE(HasErrorMentioning(errors, "num_keys"));
  EXPECT_TRUE(HasErrorMentioning(errors, "write_ratio"));
  EXPECT_TRUE(HasErrorMentioning(errors, "duration"));
}

TEST(TestbedValidate, RunTestbedRefusesInvalidConfigs) {
  TestbedConfig cfg = SmallConfig(Scheme::kOrbitCache);
  cfg.cache.orbit_cache_size = cfg.cache.orbit_capacity + 1;
  EXPECT_THROW(RunTestbed(cfg), CheckFailure);
}

}  // namespace
}  // namespace orbit::testbed
