// Fabric fault tolerance (PR 11): FaultSchedule validation for the fabric
// taxonomy, Gilbert–Elliott burst loss on leaf–spine uplinks with
// per-link seed decorrelation, probe-based failure detection + rerouting
// (fabric/failover.h), graceful cache degradation around leaf crashes,
// and the retries_exhausted accounting the CI quick suite gates on.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "fabric/topology.h"
#include "proto/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultSchedule;
using testbed::ConfigFingerprint;
using testbed::ResultMetrics;
using testbed::RunTestbed;
using testbed::Scheme;
using testbed::TestbedConfig;
using testbed::TestbedResult;

// ---- FaultSchedule::Validate -------------------------------------------

TEST(FabricFaultValidate, AcceptsEveryBuilder) {
  for (const FaultSchedule& s :
       {fault::FabricLinkDownAt(0, 1, kMillisecond, 2 * kMillisecond),
        fault::LeafCrashAt(1, kMillisecond, 2 * kMillisecond),
        fault::SpineCrashAt(0, kMillisecond, 2 * kMillisecond),
        fault::LinkDegradeAt(0, 0, /*dir=*/1, /*loss=*/0.3,
                             /*extra_latency=*/10 * kMicrosecond, kMillisecond,
                             2 * kMillisecond),
        fault::RackPartitionAt(0, kMillisecond, 2 * kMillisecond)}) {
    EXPECT_EQ(s.Validate(), "");
  }
}

TEST(FabricFaultValidate, RejectsMissingOrMalformedTargets) {
  FaultSchedule s;
  s.events.push_back({kMillisecond, FaultKind::kLeafCrash, -1});
  EXPECT_NE(s.Validate().find("needs rack"), std::string::npos)
      << s.Validate();

  s.events.clear();
  FaultEvent link{kMillisecond, FaultKind::kFabricLinkDown, -1};
  link.rack = 0;  // spine left unset
  s.events.push_back(link);
  EXPECT_NE(s.Validate().find("spine"), std::string::npos) << s.Validate();

  // A degrade that degrades nothing is an authoring mistake, not a no-op.
  s.events.clear();
  FaultEvent gray{kMillisecond, FaultKind::kLinkDegrade, -1};
  gray.rack = 0;
  gray.spine = 0;
  gray.dir = 0;
  s.events.push_back(gray);
  EXPECT_NE(s.Validate().find("degrades nothing"), std::string::npos)
      << s.Validate();

  gray.degrade_loss = 1.5;  // out of range
  s.events.back() = gray;
  EXPECT_NE(s.Validate().find("[0,1]"), std::string::npos) << s.Validate();

  gray.degrade_loss = 0.5;
  gray.dir = 2;  // not a direction
  s.events.back() = gray;
  EXPECT_NE(s.Validate().find("dir"), std::string::npos) << s.Validate();
}

TEST(FabricFaultValidate, RejectsOverlapsContradictionsAndZeroLength) {
  // Two crashes of the same leaf with no restart in between.
  FaultSchedule s = fault::LeafCrashAt(0, kMillisecond, 5 * kMillisecond);
  FaultEvent again{2 * kMillisecond, FaultKind::kLeafCrash, -1};
  again.rack = 0;
  s.events.push_back(again);
  EXPECT_NE(s.Validate().find("overlaps"), std::string::npos) << s.Validate();

  // A restart with nothing to restart.
  s.events.clear();
  FaultEvent up{kMillisecond, FaultKind::kLeafRestart, -1};
  up.rack = 0;
  s.events.push_back(up);
  EXPECT_NE(s.Validate().find("no preceding"), std::string::npos)
      << s.Validate();

  // Crash and restart at the same instant: a zero-length fault. (The
  // builders CHECK against this, so it can only be written by hand.)
  s.events.clear();
  FaultEvent down{kMillisecond, FaultKind::kLeafCrash, -1};
  down.rack = 0;
  up.at = kMillisecond;
  s.events.push_back(down);
  s.events.push_back(up);
  EXPECT_NE(s.Validate().find("zero-length"), std::string::npos)
      << s.Validate();

  // Distinct targets at the same instant stay legal (e.g. correlated
  // failures): only same-target same-instant pairs are rejected.
  s = fault::LeafCrashAt(0, kMillisecond, 5 * kMillisecond);
  const FaultSchedule other =
      fault::LeafCrashAt(1, kMillisecond, 5 * kMillisecond);
  s.events.insert(s.events.end(), other.events.begin(), other.events.end());
  EXPECT_EQ(s.Validate(), "");
}

TEST(FabricFaultValidate, RejectsPartitionAndLinkEventInteractions) {
  // A per-link down inside a partition window is redundant/contradictory:
  // the partition already holds every uplink of the rack down.
  FaultSchedule s = fault::RackPartitionAt(0, kMillisecond, 9 * kMillisecond);
  const FaultSchedule link =
      fault::FabricLinkDownAt(0, 0, 2 * kMillisecond, 3 * kMillisecond);
  s.events.insert(s.events.end(), link.events.begin(), link.events.end());
  EXPECT_NE(s.Validate().find("partition"), std::string::npos)
      << s.Validate();

  // And a partition while one of the rack's uplinks is individually down.
  s = fault::FabricLinkDownAt(0, 0, kMillisecond, 9 * kMillisecond);
  const FaultSchedule part =
      fault::RackPartitionAt(0, 2 * kMillisecond, 3 * kMillisecond);
  s.events.insert(s.events.end(), part.events.begin(), part.events.end());
  EXPECT_NE(s.Validate().find("individually down"), std::string::npos)
      << s.Validate();
}

// ---- testbed-level validation ------------------------------------------

// A 2-rack, 2-spine fabric small enough that every end-to-end run here
// finishes in well under a second: 4 servers per rack at 20K RPS each, one
// client per rack, offered load below rack capacity so a fault-free run is
// genuinely timeout-free.
TestbedConfig FaultFabricConfig(Scheme scheme) {
  TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.fabric.num_racks = 2;
  cfg.topo.fabric.num_spines = 2;
  cfg.topo.num_clients = 2;
  cfg.topo.num_servers = 8;
  cfg.topo.server_rate_rps = 20'000;
  cfg.topo.client_rate_rps = 120'000;
  cfg.workload.num_keys = 20'000;
  cfg.workload.zipf_theta = 0.99;
  cfg.cache.orbit_cache_size = 16;
  cfg.cache.orbit_capacity = 64;
  cfg.cache.netcache_size = 500;
  cfg.client.max_retries = 2;
  cfg.client.request_timeout = 2 * kMillisecond;
  cfg.warmup = 5 * kMillisecond;
  cfg.duration = 30 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

// TestbedConfig::Validate returns one message per problem; flatten for
// substring checks.
std::string Errors(const TestbedConfig& cfg) {
  std::string out;
  for (const std::string& e : cfg.Validate()) {
    out += e;
    out += "; ";
  }
  return out;
}

TEST(FabricFaultConfig, TargetsAreCheckedAgainstTheTopology) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.fault = fault::LeafCrashAt(2, kMillisecond, 2 * kMillisecond);
  EXPECT_NE(Errors(cfg).find("rack"), std::string::npos) << Errors(cfg);

  cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.fault = fault::SpineCrashAt(2, kMillisecond, 2 * kMillisecond);
  EXPECT_NE(Errors(cfg).find("spine"), std::string::npos) << Errors(cfg);
}

TEST(FabricFaultConfig, FailoverKnobsAreValidated) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.topo.fabric.failover = true;
  EXPECT_TRUE(cfg.Validate().empty()) << Errors(cfg);
  cfg.topo.fabric.detection_window = cfg.topo.fabric.probe_interval / 2;
  EXPECT_NE(Errors(cfg).find("detection_window"), std::string::npos)
      << Errors(cfg);
}

TEST(FabricFaultConfig, FabricFaultsAreRejectedOnSingleSwitchTestbeds) {
  TestbedConfig cfg;  // single switch
  cfg.fault = fault::LeafCrashAt(0, kMillisecond, 2 * kMillisecond);
  EXPECT_FALSE(cfg.Validate().empty());

  cfg = TestbedConfig{};
  cfg.fault.fabric_burst_loss.p_enter_bad = 0.01;
  EXPECT_FALSE(cfg.Validate().empty());

  cfg = TestbedConfig{};
  cfg.topo.fabric.failover = true;
  EXPECT_FALSE(cfg.Validate().empty());
}

TEST(FabricFaultConfig, FailoverAndFabricFaultsFeedTheFingerprint) {
  const TestbedConfig base = FaultFabricConfig(Scheme::kOrbitCache);
  EXPECT_EQ(ConfigFingerprint(base).find("failover"), std::string::npos)
      << "failover-off configs keep their pre-failover serialization";

  TestbedConfig fo = base;
  fo.topo.fabric.failover = true;
  EXPECT_NE(ConfigFingerprint(fo).find("failover"), std::string::npos);
  TestbedConfig narrow = fo;
  narrow.topo.fabric.detection_window = 250 * kMicrosecond;
  EXPECT_NE(ConfigFingerprint(fo), ConfigFingerprint(narrow));

  TestbedConfig crash = base;
  crash.fault = fault::LeafCrashAt(0, kMillisecond, 2 * kMillisecond);
  EXPECT_NE(ConfigFingerprint(base), ConfigFingerprint(crash));
  TestbedConfig burst = base;
  burst.fault.fabric_burst_loss.p_enter_bad = 0.01;
  EXPECT_NE(ConfigFingerprint(base), ConfigFingerprint(burst));
  EXPECT_NE(ConfigFingerprint(crash), ConfigFingerprint(burst));
}

// ---- burst loss on uplinks ---------------------------------------------

class SeqSink : public sim::Node {
 public:
  explicit SeqSink(std::string name) : name_(std::move(name)) {}
  void OnPacket(sim::PacketPtr pkt, int) override {
    seqs.insert(pkt->msg.seq);
  }
  std::string name() const override { return name_; }
  std::set<uint32_t> seqs;

 private:
  std::string name_;
};

TEST(FabricBurstLoss, UplinksLoseInBurstsWithPerLinkDecorrelation) {
  // Two streams from rack 0 to rack 1, one per spine (dst % 2 picks the
  // spine), over uplinks sharing one Gilbert–Elliott config and one
  // config-level seed. Interleaved sends make every uplink see the same
  // seq sequence, so if per-link seed mixing were broken the two streams
  // would lose exactly the same seqs. They must not — and each stream's
  // losses must cluster into bursts, not independent singles.
  sim::Simulator sim;
  sim::Network net(&sim);
  fabric::TopologySpec tspec;
  tspec.num_racks = 2;
  tspec.num_spines = 2;
  tspec.uplink.burst_loss.p_enter_bad = 0.05;
  tspec.uplink.burst_loss.p_exit_bad = 0.2;
  tspec.uplink.burst_loss.loss_bad = 1.0;
  tspec.uplink.loss_seed = 7;
  fabric::FabricTopology topo(&sim, &net, tspec);
  // No switch runs a program: every hop forwards by route.

  SeqSink sender("sender"), even("even"), odd("odd");
  const Addr kSender = 10, kEven = 4, kOdd = 5;
  (void)topo.AttachHost(&sender, kSender, /*rack=*/0, sim::LinkConfig{});
  (void)topo.AttachHost(&even, kEven, /*rack=*/1, sim::LinkConfig{});
  (void)topo.AttachHost(&odd, kOdd, /*rack=*/1, sim::LinkConfig{});

  constexpr uint32_t kN = 2000;
  for (uint32_t i = 0; i < kN; ++i) {
    for (const Addr dst : {kEven, kOdd}) {
      proto::Message msg;
      msg.op = proto::Op::kReadReq;
      msg.seq = i;
      msg.key = "burst-key";
      msg.hkey = HashKey128(msg.key);
      net.Send(&sender, 0,
               sim::MakePacket(kSender, dst, 9000, 5008, std::move(msg)));
    }
  }
  sim.RunToCompletion();

  ASSERT_GT(even.seqs.size(), 0u);
  ASSERT_LT(even.seqs.size(), kN);
  ASSERT_GT(odd.seqs.size(), 0u);
  ASSERT_LT(odd.seqs.size(), kN);
  EXPECT_NE(even.seqs, odd.seqs)
      << "uplinks through different spines must draw decorrelated loss";

  // Loss is visible in the uplink channel stats, on more than one link.
  int lossy_links = 0;
  for (int r = 0; r < 2; ++r)
    for (int s = 0; s < 2; ++s)
      if (topo.uplink(r, s)->stats(0).lost + topo.uplink(r, s)->stats(1).lost >
          0)
        ++lossy_links;
  EXPECT_GE(lossy_links, 2);

  // Burstiness: mean run length of consecutive losses well above the ~1 an
  // independent-loss model would give at the same rate.
  const auto mean_run = [](const std::set<uint32_t>& delivered) {
    uint64_t lost = 0, runs = 0;
    bool in_run = false;
    for (uint32_t i = 0; i < kN; ++i) {
      const bool dropped = delivered.count(i) == 0;
      if (dropped) ++lost;
      if (dropped && !in_run) ++runs;
      in_run = dropped;
    }
    return runs > 0 ? static_cast<double>(lost) / static_cast<double>(runs)
                    : 0.0;
  };
  EXPECT_GT(mean_run(even.seqs), 2.0);
  EXPECT_GT(mean_run(odd.seqs), 2.0);
}

TEST(FabricBurstLoss, TestbedRunAbsorbsUplinkBurstsWithRetries) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.fault.fabric_burst_loss.p_enter_bad = 0.02;
  cfg.fault.fabric_burst_loss.p_exit_bad = 0.3;
  cfg.fault.fabric_burst_loss.loss_bad = 1.0;
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_GT(res.rx_rps, 0.0);
  EXPECT_GT(res.retransmissions, 0u)
      << "bursty uplinks must cost some retransmissions";
  EXPECT_EQ(res.stale_reads, 0u);
}

// ---- failure detection and rerouting -----------------------------------

TEST(FabricFailover, HealthyFabricNeverReroutesOrTimesOut) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.topo.fabric.failover = true;
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_GT(res.rx_rps, 0.0);
  EXPECT_EQ(res.reroutes, 0u);
  EXPECT_EQ(res.blackholed_packets, 0u);
  EXPECT_EQ(res.timeouts, 0u);
  EXPECT_EQ(res.retries_exhausted, 0u)
      << "a fault-free run must never exhaust a retry budget";
}

TEST(FabricFailover, SpineCrashReroutesWithinTheDetectionWindow) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.fault = fault::SpineCrashAt(1, 12 * kMillisecond, 24 * kMillisecond);
  cfg.verify.enabled = true;

  // Without failover, static addr % 2 routing pins half the flows to the
  // dead spine for the full 12ms outage: their retries blackhole too.
  const TestbedResult stat = RunTestbed(cfg);
  EXPECT_EQ(stat.faults_injected, 2u);
  EXPECT_EQ(stat.reroutes, 0u);
  EXPECT_GT(stat.blackholed_packets, 0u);
  EXPECT_GT(stat.retries_exhausted, 0u);
  EXPECT_EQ(stat.verify_violations, 0u) << stat.verify_report;

  // With failover, probe timeouts declare the four dead legs within the
  // detection window and reroute everything over spine 0.
  cfg.topo.fabric.failover = true;
  const TestbedResult fo = RunTestbed(cfg);
  EXPECT_EQ(fo.faults_injected, 2u);
  EXPECT_GT(fo.reroutes, 0u);
  EXPECT_LT(fo.retries_exhausted, stat.retries_exhausted)
      << "rerouting must save most of the requests static routing loses";
  EXPECT_LT(fo.blackholed_packets, stat.blackholed_packets);
  EXPECT_GT(fo.rx_rps, stat.rx_rps);
  EXPECT_EQ(fo.stale_reads, 0u);
  EXPECT_EQ(fo.verify_violations, 0u) << fo.verify_report;
}

TEST(FabricFailover, AsymmetricGrayLinkIsDetectedByProbeLoss) {
  // A gray uplink that eats only the leaf->spine direction never takes the
  // link administratively down, but it starves the prober of acks — the
  // round-trip liveness model must declare it dead and reroute, with zero
  // blackholed packets (the link is up; drops count as injected loss).
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.topo.fabric.failover = true;
  cfg.fault = fault::LinkDegradeAt(/*rack=*/0, /*spine=*/0, /*dir=*/0,
                                   /*loss=*/1.0, /*extra_latency=*/0,
                                   12 * kMillisecond, 24 * kMillisecond);
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 2u);
  EXPECT_GT(res.reroutes, 0u) << "gray link must be detected and routed out";
  EXPECT_EQ(res.blackholed_packets, 0u);
  EXPECT_GT(res.rx_rps, 0.0);
}

TEST(FabricFailover, FaultedRunsAreDeterministic) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.topo.fabric.failover = true;
  cfg.fault = fault::SpineCrashAt(1, 12 * kMillisecond, 24 * kMillisecond);
  const TestbedResult a = RunTestbed(cfg);
  const TestbedResult b = RunTestbed(cfg);
  EXPECT_EQ(ResultMetrics(a).Dump(), ResultMetrics(b).Dump());
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// ---- graceful cache degradation ----------------------------------------

TEST(FabricDegradation, LeafCrashDegradesToPassThroughThenRebuilds) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.fault = fault::LeafCrashAt(0, 12 * kMillisecond, 24 * kMillisecond,
                                 /*rebuild_delay=*/kMillisecond);
  cfg.verify.enabled = true;
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 3u) << "crash + restart + rebuild";
  EXPECT_GT(res.rx_rps, 0.0) << "the degraded leaf still forwards";
  EXPECT_GT(res.cache_served_rps, 0.0);
  EXPECT_EQ(res.stale_reads, 0u);
  // After the heal the fabric controller withdrew the survivors' extras
  // and rebuilt leaf 0 from its shadow copy: both leaves are back to their
  // preloaded 16 entries.
  EXPECT_EQ(res.cache_entries, 32u);
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
}

TEST(FabricDegradation, SurvivorsAreToppedUpWhileALeafIsDown) {
  // Crash without restart: the run ends while rack 0 is degraded, so the
  // end-of-run census sees leaf 0 empty (pass-through) and leaf 1 holding
  // its own 16 preloaded entries plus the standby keys the fabric
  // controller installed when the crash landed.
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  FaultEvent crash{12 * kMillisecond, FaultKind::kLeafCrash, -1};
  crash.rack = 0;
  cfg.fault.events.push_back(crash);
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 1u);
  EXPECT_GT(res.cache_entries, 16u)
      << "the surviving leaf must hold extras beyond its preload";
  EXPECT_LE(res.cache_entries, 32u);
  EXPECT_GT(res.rx_rps, 0.0);
  EXPECT_EQ(res.stale_reads, 0u);
}

TEST(FabricDegradation, UpdateTickReranksTopUpExtras) {
  // Top-up extras are not pinned while a leaf is down: the survivor's next
  // update tick ranks them with its preloaded keys and trims the set back
  // to its cache size, keeping the hottest. With a 20 ms update period the
  // tick lands after the crash, so leaf 1 ends with exactly its budget.
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.control.update_period = 20 * kMillisecond;
  FaultEvent crash{12 * kMillisecond, FaultKind::kLeafCrash, -1};
  crash.rack = 0;
  cfg.fault.events.push_back(crash);
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 1u);
  EXPECT_EQ(res.cache_entries, cfg.cache.orbit_cache_size);
  EXPECT_EQ(res.stale_reads, 0u);
}

TEST(FabricDegradation, NetCacheLeavesDegradeToo) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kNetCache);
  cfg.fault = fault::LeafCrashAt(0, 12 * kMillisecond, 24 * kMillisecond,
                                 /*rebuild_delay=*/kMillisecond);
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 3u);
  EXPECT_GT(res.rx_rps, 0.0);
  EXPECT_GT(res.cache_served_rps, 0.0)
      << "the rebuilt leaf serves from cache again";
  EXPECT_EQ(res.stale_reads, 0u);
}

TEST(FabricDegradation, RackPartitionIsolatesThenHeals) {
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  cfg.fault = fault::RackPartitionAt(0, 12 * kMillisecond, 24 * kMillisecond);
  cfg.verify.enabled = true;
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 2u);
  EXPECT_GT(res.blackholed_packets, 0u)
      << "cross-rack traffic blackholes while partitioned";
  EXPECT_GT(res.rx_rps, 0.0) << "intra-rack service survives the partition";
  EXPECT_EQ(res.stale_reads, 0u);
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
}

// ---- retries_exhausted accounting --------------------------------------

TEST(RetriesExhausted, ZeroWithoutFaultsNonzeroUnderABlackhole) {
  // Fault-free: the retry budget exists but is never touched — this is the
  // invariant the CI quick suite asserts over every record.
  TestbedConfig cfg = FaultFabricConfig(Scheme::kOrbitCache);
  const TestbedResult clean = RunTestbed(cfg);
  EXPECT_EQ(clean.timeouts, 0u);
  EXPECT_EQ(clean.retries_exhausted, 0u);

  // A long dead uplink without failover blackholes one spine's flows past
  // any retry budget: every such timeout spent its whole budget first.
  cfg.fault = fault::FabricLinkDownAt(0, 1, 10 * kMillisecond,
                                      30 * kMillisecond);
  const TestbedResult dark = RunTestbed(cfg);
  EXPECT_GT(dark.retries_exhausted, 0u);
  EXPECT_EQ(dark.retries_exhausted, dark.timeouts)
      << "with max_retries > 0 every timeout is an exhausted budget";
  EXPECT_GT(dark.blackholed_packets, 0u);

  // Without a retry budget the same outage is timeouts-only.
  cfg.client.max_retries = 0;
  const TestbedResult no_budget = RunTestbed(cfg);
  EXPECT_GT(no_budget.timeouts, 0u);
  EXPECT_EQ(no_budget.retries_exhausted, 0u);
}

}  // namespace
}  // namespace orbit
