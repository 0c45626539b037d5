// The verification layer itself: each checker must fire on a known-bad
// scenario (otherwise a silent checker proves nothing), stay silent on
// clean full-testbed runs, and never perturb the measured results.
#include "verify/verify.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "fault/fault.h"
#include "sim/packet.h"
#include "testbed/testbed.h"

namespace orbit::verify {
namespace {

VerifyOptions Strict() {
  VerifyOptions opt;
  opt.epoch_guard = true;
  opt.write_back = false;
  return opt;
}

bool HasCheck(const Verifier& v, const std::string& check) {
  for (const auto& viol : v.violations())
    if (viol.check == check) return true;
  return false;
}

// ---- oracle: known-bad scenarios ----------------------------------------

TEST(VerifierOracle, StaleReadFlaggedUnderEpochGuard) {
  Verifier v(Strict());
  v.OnCommit("k", 64, 1);
  v.OnCommit("k", 64, 2);
  // A completed read observes v2, establishing the floor...
  v.OnClientSend(1, 10, "k", /*is_write=*/false, 0);
  v.OnClientAccept(1, 10, "k", false, false, 64, 2);
  EXPECT_TRUE(v.ok());
  // ...after which a reply carrying v1 is a forced stale read.
  v.OnClientSend(1, 11, "k", false, 0);
  v.OnClientAccept(1, 11, "k", false, false, 64, 1);
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(HasCheck(v, "stale_read")) << v.Report();
}

TEST(VerifierOracle, StaleReadOnlyCountedWithGuardOff) {
  // The paper's unhardened protocol permits the stale window; the same
  // sequence must be counted, not flagged.
  VerifyOptions opt = Strict();
  opt.epoch_guard = false;
  Verifier v(opt);
  v.OnCommit("k", 64, 1);
  v.OnCommit("k", 64, 2);
  v.OnClientSend(1, 10, "k", false, 0);
  v.OnClientAccept(1, 10, "k", false, false, 64, 2);
  v.OnClientSend(1, 11, "k", false, 0);
  v.OnClientAccept(1, 11, "k", false, false, 64, 1);
  EXPECT_TRUE(v.ok()) << v.Report();
  EXPECT_EQ(v.allowed_stale(), 1u);
}

TEST(VerifierOracle, FutureVersionAlwaysFlagged) {
  // Every version authority is hooked, so a version nobody minted is a
  // wiring bug or corruption even in the relaxed modes.
  VerifyOptions opt = Strict();
  opt.write_back = true;
  Verifier v(opt);
  v.OnCommit("k", 64, 1);
  v.OnClientSend(1, 1, "k", false, 0);
  v.OnClientAccept(1, 1, "k", false, false, 64, 7);
  EXPECT_TRUE(HasCheck(v, "future_version")) << v.Report();
}

TEST(VerifierOracle, SizeMismatchFlagged) {
  Verifier v(Strict());
  v.OnCommit("k", 64, 1);
  v.OnClientSend(1, 1, "k", false, 0);
  v.OnClientAccept(1, 1, "k", false, false, 100, 1);
  EXPECT_TRUE(HasCheck(v, "size_mismatch")) << v.Report();
}

TEST(VerifierOracle, KeyMismatchFlagged) {
  Verifier v(Strict());
  v.OnClientSend(1, 1, "a", false, 0);
  v.OnClientAccept(1, 1, "b", false, false, 64, 0);
  EXPECT_TRUE(HasCheck(v, "key_mismatch")) << v.Report();
}

TEST(VerifierOracle, AcceptWithoutSendFlagged) {
  Verifier v(Strict());
  v.OnClientAccept(1, 99, "k", false, false, 64, 0);
  EXPECT_TRUE(HasCheck(v, "unknown_accept")) << v.Report();
}

TEST(VerifierOracle, DroppedRequestIsNotChecked) {
  Verifier v(Strict());
  v.OnClientSend(1, 1, "k", false, 0);
  v.OnClientDrop(1, 1);
  // The later duplicate reply was already retired; nothing to check.
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.replies_checked(), 0u);
}

// ---- packet conservation: known-bad scenarios ---------------------------

TEST(VerifierPackets, SilentDropFlagged) {
  Verifier v(Strict());
  v.ArmPacketAccounting();
  sim::Packet pkt;  // never MarkEnd'ed: released without a terminal state
  v.OnRelease(pkt);
  EXPECT_TRUE(HasCheck(v, "silent_drop")) << v.Report();
}

TEST(VerifierPackets, MarkedReleaseIsClean) {
  Verifier v(Strict());
  v.ArmPacketAccounting();
  sim::Packet pkt;
  sim::MarkEnd(pkt, sim::PacketEnd::kConsumed);
  v.OnRelease(pkt);
  EXPECT_TRUE(v.ok()) << v.Report();
}

TEST(VerifierPackets, LeakFlaggedAtFinalize) {
  Verifier v(Strict());
  Verifier::EndOfRun eor;
  eor.pool_acquired = 10;
  eor.pool_released = 8;
  eor.expected_live = 1;  // one legitimate in-flight packet; one leaked
  v.Finalize(eor);
  EXPECT_TRUE(HasCheck(v, "packet_leak")) << v.Report();
}

TEST(VerifierPackets, BalancedPoolIsClean) {
  Verifier v(Strict());
  Verifier::EndOfRun eor;
  eor.pool_acquired = 10;
  eor.pool_released = 8;
  eor.expected_live = 2;
  v.Finalize(eor);
  EXPECT_TRUE(v.ok()) << v.Report();
}

// ---- switch invariants: known-bad scenarios -----------------------------

TEST(VerifierSwitch, OverCapacityQueueFlagged) {
  Verifier v(Strict());
  // qlen exceeding the ring size is exactly what a broken enqueue guard
  // would produce.
  v.OnQueueState("TryEnqueue", 3, /*qlen=*/9, /*front=*/0, /*rear=*/1,
                 /*queue_size=*/8);
  EXPECT_TRUE(HasCheck(v, "request_table_ring")) << v.Report();
}

TEST(VerifierSwitch, InconsistentRingPointersFlagged) {
  Verifier v(Strict());
  // rear must equal (front + qlen) mod size.
  v.OnQueueState("TryDequeue", 0, /*qlen=*/2, /*front=*/1, /*rear=*/1,
                 /*queue_size=*/8);
  EXPECT_TRUE(HasCheck(v, "request_table_ring")) << v.Report();
}

TEST(VerifierSwitch, ConsistentRingIsClean) {
  Verifier v(Strict());
  v.OnQueueState("TryEnqueue", 0, 3, 6, 1, 8);  // (6 + 3) % 8 == 1
  EXPECT_TRUE(v.ok()) << v.Report();
}

TEST(VerifierSwitch, OrbitCensusMismatchFlagged) {
  Verifier v(Strict());
  Verifier::EndOfRun eor;
  eor.recirc_in_flight = 5;
  eor.valid_entries = 3;
  v.Finalize(eor);
  EXPECT_TRUE(HasCheck(v, "orbit_census")) << v.Report();
}

TEST(VerifierSwitch, OrbitCensusSkipIsClean) {
  Verifier v(Strict());
  Verifier::EndOfRun eor;
  eor.recirc_in_flight = 5;
  eor.valid_entries = -1;
  eor.orbit_skip_reason = "write-back forks flush copies";
  v.Finalize(eor);
  EXPECT_TRUE(v.ok()) << v.Report();
}

TEST(Verifier, ReportListsViolationsDeterministically) {
  Verifier v(Strict());
  v.AddViolation("example", "detail text");
  const std::string report = v.Report();
  EXPECT_NE(report.find("example"), std::string::npos);
  EXPECT_NE(report.find("detail text"), std::string::npos);
  EXPECT_EQ(report, v.Report());
}

// ---- full-testbed integration -------------------------------------------

testbed::TestbedConfig SmallConfig(testbed::Scheme scheme) {
  testbed::TestbedConfig cfg;
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
  cfg.verify.enabled = true;
  return cfg;
}

TEST(VerifyTestbed, OrbitCacheCleanRun) {
  testbed::TestbedResult res =
      testbed::RunTestbed(SmallConfig(testbed::Scheme::kOrbitCache));
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
  EXPECT_GT(res.verify_replies_checked, 0u);
}

TEST(VerifyTestbed, NetCacheCleanRun) {
  testbed::TestbedResult res =
      testbed::RunTestbed(SmallConfig(testbed::Scheme::kNetCache));
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
  EXPECT_GT(res.verify_replies_checked, 0u);
}

TEST(VerifyTestbed, NoCacheCleanRun) {
  testbed::TestbedResult res =
      testbed::RunTestbed(SmallConfig(testbed::Scheme::kNoCache));
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
  EXPECT_GT(res.verify_replies_checked, 0u);
}

TEST(VerifyTestbed, NoCloningRunPassesTheOrbitCensus) {
  // Without cloning a served entry awaits its refetch with no packet in
  // orbit; the census counts only entries whose packet orbits. Offered
  // load stays below the servers' 160K RPS so that no refetch outlives
  // fetch_timeout (a retry skips the census).
  testbed::TestbedConfig cfg = SmallConfig(testbed::Scheme::kOrbitCache);
  cfg.cache.enable_cloning = false;
  cfg.topo.client_rate_rps = 100'000;
  testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
  EXPECT_NE(res.verify_report.find("orbit census checked"), std::string::npos)
      << res.verify_report;
  EXPECT_GT(res.cache_served_rps, 0.0);
}

TEST(VerifyTestbed, CleanUnderWritesAndRetries) {
  testbed::TestbedConfig cfg = SmallConfig(testbed::Scheme::kOrbitCache);
  cfg.workload.write_ratio = 0.2;
  cfg.client.max_retries = 2;
  testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
}

TEST(VerifyTestbed, CleanUnderSwitchResetAndCrash) {
  testbed::TestbedConfig cfg = SmallConfig(testbed::Scheme::kOrbitCache);
  cfg.fault = fault::SwitchResetAt(40 * kMillisecond);
  cfg.fault.events.push_back(
      {60 * kMillisecond, fault::FaultKind::kServerCrash, 0});
  cfg.fault.events.push_back(
      {80 * kMillisecond, fault::FaultKind::kServerRestart, 0});
  cfg.client.max_retries = 2;
  testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
}

TEST(VerifyTestbed, ResultsNeutral) {
  // The whole point of the layer: enabling it must not move a single
  // measured number.
  testbed::TestbedConfig off = SmallConfig(testbed::Scheme::kOrbitCache);
  off.verify.enabled = false;
  testbed::TestbedConfig on = SmallConfig(testbed::Scheme::kOrbitCache);
  const testbed::TestbedResult a = testbed::RunTestbed(off);
  const testbed::TestbedResult b = testbed::RunTestbed(on);
  EXPECT_EQ(a.rx_rps, b.rx_rps);
  EXPECT_EQ(a.tx_rps, b.tx_rps);
  EXPECT_EQ(a.cache_served_rps, b.cache_served_rps);
  EXPECT_EQ(a.lookup_hits, b.lookup_hits);
  EXPECT_EQ(a.absorbed, b.absorbed);
  EXPECT_EQ(a.cache_packets_in_flight, b.cache_packets_in_flight);
  EXPECT_EQ(a.stale_reads, b.stale_reads);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.server_loads, b.server_loads);
  // And only the instrumented run carries a verification outcome.
  EXPECT_EQ(a.verify_replies_checked, 0u);
  EXPECT_GT(b.verify_replies_checked, 0u);
}

TEST(VerifyTestbed, AcceptedAndCleanOnFabricTopology) {
  // The oracle follows traffic across the leaf-spine fabric too: replies
  // are checked and a healthy multi-rack run stays violation-free.
  testbed::TestbedConfig cfg = SmallConfig(testbed::Scheme::kOrbitCache);
  cfg.topo.fabric.num_racks = 2;
  cfg.topo.fabric.num_spines = 2;
  cfg.warmup = 5 * kMillisecond;
  cfg.duration = 30 * kMillisecond;
  EXPECT_TRUE(cfg.Validate().empty());
  testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
  EXPECT_GT(res.verify_replies_checked, 0u);
}

}  // namespace
}  // namespace orbit::verify
