// Leaf–spine fabric (src/fabric/): config validation and fingerprinting,
// end-to-end scale-out runs through RunTestbed (including the one-rack ≡
// single-ToR oracle), per-leaf / per-spine / per-link telemetry,
// cross-switch flow stitching, and the determinism guarantees the harness
// relies on (serial == parallel bytes, equal-time FIFO ordering across
// spine hops).
#include "fabric/topology.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "fault/fault.h"
#include "harness/metrics.h"
#include "harness/runner.h"
#include "proto/message.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/netstats.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit {
namespace {

using testbed::ConfigFingerprint;
using testbed::FindSaturation;
using testbed::ResultMetrics;
using testbed::RunTestbed;
using testbed::Scheme;
using testbed::TestbedConfig;
using testbed::TestbedResult;

// A 2–4 rack fabric small enough that every test here runs in well under a
// second: 4 servers per rack at 20K RPS each, one client per rack.
TestbedConfig SmallFabricConfig(Scheme scheme, int racks) {
  TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.fabric.num_racks = racks;
  cfg.topo.num_clients = racks;
  cfg.topo.num_servers = racks * 4;
  cfg.topo.server_rate_rps = 20'000;
  cfg.topo.client_rate_rps = racks * 150'000.0;
  cfg.workload.num_keys = 50'000;
  cfg.workload.zipf_theta = 0.99;
  cfg.cache.orbit_cache_size = 16;
  cfg.cache.orbit_capacity = 64;
  cfg.cache.netcache_size = 500;
  cfg.warmup = 10 * kMillisecond;
  cfg.duration = 40 * kMillisecond;
  cfg.seed = 7;
  return cfg;
}

// ---- config plumbing ----------------------------------------------------

TEST(FabricConfig, ValidateAcceptsTheSmallFabric) {
  EXPECT_TRUE(SmallFabricConfig(Scheme::kOrbitCache, 2).Validate().empty());
}

TEST(FabricConfig, ValidateRejectsUnevenRacks) {
  TestbedConfig cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  cfg.topo.num_servers = 7;  // not divisible by 2
  EXPECT_FALSE(cfg.Validate().empty());
}

TEST(FabricConfig, ValidateRejectsEmptyRacksAndZeroSpines) {
  TestbedConfig cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  cfg.topo.num_servers = 1;  // fewer servers than racks
  EXPECT_FALSE(cfg.Validate().empty());

  cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  cfg.topo.fabric.num_spines = 0;
  EXPECT_FALSE(cfg.Validate().empty());
}

TEST(FabricConfig, ValidateAcceptsFaultInjectionOnFabrics) {
  // Server and fabric faults are both first-class on leaf–spine testbeds
  // (tests/test_fabric_faults.cc exercises the schedules end to end); only
  // the single-switch control channel has no fabric equivalent.
  TestbedConfig cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  cfg.fault = fault::ServerCrashAt(0, kMillisecond, 2 * kMillisecond);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.fault = fault::LeafCrashAt(0, kMillisecond, 2 * kMillisecond);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.fault = fault::FaultSchedule{};
  cfg.fault.events.push_back({kMillisecond, fault::FaultKind::kCtrlDown, -1});
  cfg.fault.events.push_back({2 * kMillisecond, fault::FaultKind::kCtrlUp, -1});
  EXPECT_FALSE(cfg.Validate().empty())
      << "the switch-CPU channel fault has no fabric equivalent";
}

TEST(FabricConfig, DisabledFabricStaysOutOfTheFingerprint) {
  // Pre-fabric configs must keep their exact identity: the section only
  // serializes when enabled, so existing baselines and saturation-cache
  // keys stay byte-identical.
  const TestbedConfig single;
  EXPECT_EQ(ConfigFingerprint(single).find("fabric"), std::string::npos);

  const TestbedConfig two = SmallFabricConfig(Scheme::kOrbitCache, 2);
  TestbedConfig four = two;
  four.topo.fabric.num_racks = 4;
  EXPECT_NE(ConfigFingerprint(two).find("fabric"), std::string::npos);
  EXPECT_NE(ConfigFingerprint(two), ConfigFingerprint(four));
}

// ---- end-to-end runs ----------------------------------------------------

TEST(FabricTestbed, TwoRackOrbitCacheSmoke) {
  const TestbedResult res =
      RunTestbed(SmallFabricConfig(Scheme::kOrbitCache, 2));
  EXPECT_GT(res.rx_rps, 0);
  EXPECT_GT(res.cache_served_rps, 0) << "leaves must serve their hot keys";
  EXPECT_GT(res.lookup_hits, 0u);
  EXPECT_GT(res.server_served_rps, 0);
  EXPECT_EQ(res.stale_reads, 0u);
  // Per-leaf budgets: every leaf preloads its rack's 16 hottest items.
  EXPECT_EQ(res.cache_entries, 32u);
}

TEST(FabricTestbed, EverySchemeRunsOnAFabric) {
  for (const Scheme scheme :
       {Scheme::kNoCache, Scheme::kNetCache, Scheme::kOrbitCache}) {
    const TestbedResult res = RunTestbed(SmallFabricConfig(scheme, 2));
    EXPECT_GT(res.rx_rps, 0) << testbed::SchemeName(scheme);
    EXPECT_EQ(res.stale_reads, 0u) << testbed::SchemeName(scheme);
    if (scheme == Scheme::kNoCache)
      EXPECT_EQ(res.cache_served_rps, 0);
    else
      EXPECT_GT(res.cache_served_rps, 0) << testbed::SchemeName(scheme);
  }
}

TEST(FabricTestbed, OneRackFabricMatchesTheSingleToR) {
  // RunTestbed builds the single-ToR testbed as one spineless leaf, so a
  // one-rack fabric behind one spine must measure exactly the same run —
  // switch resets included. Loss models stay off: Network::Connect mixes
  // each link's creation index into its loss seed, and the spine's uplink
  // is created before any host link, so lossy runs would legitimately
  // draw different losses.
  for (const Scheme scheme :
       {Scheme::kNoCache, Scheme::kNetCache, Scheme::kOrbitCache}) {
    for (const bool reset : {false, true}) {
      TestbedConfig single = SmallFabricConfig(scheme, 1);
      single.topo.fabric.num_racks = 0;
      if (reset)
        single.fault = fault::SwitchResetAt(20 * kMillisecond, kMillisecond);
      TestbedConfig one_rack = single;
      one_rack.topo.fabric.num_racks = 1;
      one_rack.topo.fabric.num_spines = 1;
      EXPECT_EQ(ResultMetrics(RunTestbed(single)).Dump(),
                ResultMetrics(RunTestbed(one_rack)).Dump())
          << testbed::SchemeName(scheme) << (reset ? " with a reset" : "");
    }
  }
}

TEST(FabricTestbed, CrossRackWritesStayCoherent) {
  TestbedConfig cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  cfg.workload.write_ratio = 0.2;
  const TestbedResult res = RunTestbed(cfg);
  EXPECT_GT(res.rx_rps, 0);
  EXPECT_GT(res.write_latency.count(), 0u);
  EXPECT_EQ(res.stale_reads, 0u) << "invalidation must hold across the spine";
}

TEST(FabricTestbed, SaturatedThroughputScalesWithRackCount) {
  // The acceptance property behind `run_all fig_fabric`: doubling the racks
  // (servers, clients, and per-leaf caches scale along) must raise the
  // aggregate saturated throughput materially — each leaf keeps absorbing
  // its own rack's hot keys, so racks add capacity instead of contending.
  const testbed::SaturationResult two =
      FindSaturation(SmallFabricConfig(Scheme::kOrbitCache, 2));
  const testbed::SaturationResult four =
      FindSaturation(SmallFabricConfig(Scheme::kOrbitCache, 4));
  EXPECT_GT(four.result.rx_rps, 1.5 * two.result.rx_rps);
}

// ---- telemetry ----------------------------------------------------------

TEST(FabricTestbed, TelemetryCoversLeavesSpinesAndLinks) {
  TestbedConfig cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  cfg.topo.fabric.num_spines = 2;
  telemetry::RunCapture cap;
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 16;
  (void)RunTestbed(cfg);

  ASSERT_FALSE(cap.snapshots.empty());
  const telemetry::Snapshot& snap = cap.snapshots.back();
  const auto counter = [&snap](const std::string& name) -> const uint64_t* {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return &v;
    return nullptr;
  };
  // Per-leaf and per-spine scopes: every switch reports under its own
  // prefix, and the cross-rack client placement pushes traffic through
  // both spines (addresses split across addr % 2).
  for (const char* name : {"leaf0.switch.rx_packets", "leaf1.switch.rx_packets",
                           "spine0.switch.rx_packets",
                           "spine1.switch.rx_packets"}) {
    const uint64_t* v = counter(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_GT(*v, 0u) << name;
  }
  // Per-link drop-reason counters: every link direction exports all three
  // reasons, named by its endpoints.
  size_t overflow_counters = 0, loss_counters = 0, down_counters = 0;
  for (const auto& [n, v] : snap.counters) {
    if (n.rfind("net.link.", 0) != 0) continue;
    EXPECT_NE(n.find("->"), std::string::npos) << n;
    if (n.find(".drop.queue_overflow") != std::string::npos)
      ++overflow_counters;
    if (n.find(".drop.injected_loss") != std::string::npos) ++loss_counters;
    if (n.find(".drop.link_down") != std::string::npos) ++down_counters;
  }
  EXPECT_GT(overflow_counters, 0u);
  EXPECT_EQ(overflow_counters, loss_counters);
  EXPECT_EQ(overflow_counters, down_counters);
}

TEST(FabricTestbed, FlowIdsSurviveLeafSpineLeafHops) {
  TestbedConfig cfg = SmallFabricConfig(Scheme::kOrbitCache, 2);
  telemetry::RunCapture cap;
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 8;
  (void)RunTestbed(cfg);

  // A sampled cross-rack request keeps its packet-borne flow id through
  // every hop: one flow records pipeline passes on both leaves and on the
  // spine between them.
  const telemetry::IntCapture& ic = cap.int_capture;
  bool stitched = false;
  for (const telemetry::IntFlowRec& flow : ic.flows) {
    bool leaf0 = false, leaf1 = false, spine0 = false;
    for (const telemetry::IntHop& hop : flow.hops) {
      const std::string& name = ic.hop_names.at(hop.hop);
      leaf0 = leaf0 || name == "leaf0.pipeline";
      leaf1 = leaf1 || name == "leaf1.pipeline";
      spine0 = spine0 || name == "spine0.pipeline";
    }
    stitched = leaf0 && leaf1 && spine0;
    if (stitched) break;
  }
  EXPECT_TRUE(stitched) << "no flow crosses leaf0, spine0 and leaf1";
}

TEST(FabricTestbed, TelemetryIsResultsNeutral) {
  // Instrumentation must never change what a fabric run measures: metrics
  // and the (telemetry-excluded) event count match the bare run exactly.
  const TestbedConfig bare = SmallFabricConfig(Scheme::kOrbitCache, 2);
  const TestbedResult plain = RunTestbed(bare);

  TestbedConfig instrumented = bare;
  telemetry::RunCapture cap;
  instrumented.telemetry.capture = &cap;
  instrumented.telemetry.trace_sample = 4;
  instrumented.telemetry.snapshot_interval = 5 * kMillisecond;
  const TestbedResult traced = RunTestbed(instrumented);

  EXPECT_EQ(ResultMetrics(plain).Dump(), ResultMetrics(traced).Dump());
  EXPECT_EQ(plain.events_processed, traced.events_processed);
  EXPECT_FALSE(cap.empty());
}

// ---- determinism --------------------------------------------------------

TEST(FabricHarness, ParallelMatchesSerialOnAFourRackSweep) {
  harness::ExperimentSpec spec;
  spec.name = "unit_fabric_sweep";
  spec.apply_paper_scale = false;
  spec.base.topo.server_rate_rps = 20'000;
  spec.base.topo.client_rate_rps = 100'000;  // per rack; the axis scales it
  spec.base.workload.num_keys = 20'000;
  spec.base.cache.orbit_cache_size = 8;
  spec.base.cache.orbit_capacity = 32;
  spec.base.warmup = 2 * kMillisecond;
  spec.base.duration = 10 * kMillisecond;
  spec.axes = {
      harness::SchemeAxis({Scheme::kNoCache, Scheme::kOrbitCache}),
      harness::FabricRackAxis({4}, /*servers_per_rack=*/2,
                              /*clients_per_rack=*/1),
      harness::NumericAxis("zipf_theta", {0.9, 0.99},
                           [](TestbedConfig& c, double v) {
                             c.workload.zipf_theta = v;
                           })};
  spec.run = harness::FixedLoadRun();

  harness::RunnerOptions serial;
  serial.scale = harness::Scale::kQuick;
  serial.jobs = 1;
  serial.progress = false;
  harness::RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const harness::RunOutcome a = harness::RunExperiments({spec}, serial);
  const harness::RunOutcome b = harness::RunExperiments({spec}, parallel);
  ASSERT_EQ(a.records.size(), 4u);
  ASSERT_EQ(b.records.size(), 4u);
  EXPECT_EQ(a.errors, 0);
  EXPECT_EQ(b.errors, 0);
  EXPECT_EQ(harness::DumpJsonl(a.records), harness::DumpJsonl(b.records));
}

// Minimal leaf-spine passthrough hosts for the FIFO test.
class SinkNode : public sim::Node {
 public:
  SinkNode(sim::Simulator* sim, std::string name)
      : sim_(sim), name_(std::move(name)) {}
  void OnPacket(sim::PacketPtr pkt, int) override {
    arrivals.emplace_back(pkt->msg.seq, sim_->now());
  }
  std::string name() const override { return name_; }
  std::vector<std::pair<uint32_t, SimTime>> arrivals;

 private:
  sim::Simulator* sim_;
  std::string name_;
};

TEST(FabricTopologyTest, EqualTimeSendsKeepFifoOrderAcrossSpineHops) {
  // 16 packets injected at the same instant toward the remote rack must
  // arrive in injection order: every queue on the leaf→spine→leaf path is
  // FIFO, and equal-time events keep their scheduling order.
  sim::Simulator sim;
  sim::Network net(&sim);
  fabric::TopologySpec tspec;
  tspec.num_racks = 2;
  tspec.num_spines = 1;
  fabric::FabricTopology topo(&sim, &net, tspec);
  // No switch runs a program: every hop forwards by route.

  SinkNode sender(&sim, "sender"), receiver(&sim, "receiver");
  const Addr kSender = 1, kReceiver = 2;
  (void)topo.AttachHost(&sender, kSender, /*rack=*/0, sim::LinkConfig{});
  (void)topo.AttachHost(&receiver, kReceiver, /*rack=*/1, sim::LinkConfig{});

  constexpr uint32_t kPackets = 16;
  for (uint32_t i = 0; i < kPackets; ++i) {
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    msg.seq = i;
    msg.key = "fifo-key";
    msg.hkey = HashKey128(msg.key);
    net.Send(&sender, 0,
             sim::MakePacket(kSender, kReceiver, 9000, 5008, std::move(msg)));
  }
  sim.RunUntil(kMillisecond);

  ASSERT_EQ(receiver.arrivals.size(), kPackets);
  for (uint32_t i = 0; i < kPackets; ++i)
    EXPECT_EQ(receiver.arrivals[i].first, i) << "out-of-order at slot " << i;
  EXPECT_GE(topo.spine(0).stats().rx_packets, static_cast<uint64_t>(kPackets))
      << "the cross-rack path must traverse the spine";
}

// ---- per-link drop counters (telemetry/netstats.h) ----------------------

TEST(NetStats, QueueOverflowBumpsTheNamedLinkCounter) {
  sim::Simulator sim;
  sim::Network net(&sim);
  SinkNode a(&sim, "a"), b(&sim, "b");
  sim::LinkConfig lc;
  lc.rate_gbps = 0.001;         // 1 Mbps: the first packet occupies the wire
  lc.queue_limit_bytes = 256;   // room for only a few more behind it
  (void)net.Connect(&a, &b, lc);

  telemetry::Registry reg;
  telemetry::RegisterLinkDropCounters(reg, net);

  for (uint32_t i = 0; i < 64; ++i) {
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    msg.seq = i;
    msg.key = "overflow-key";
    msg.hkey = HashKey128(msg.key);
    net.Send(&a, 0, sim::MakePacket(1, 2, 9000, 5008, std::move(msg)));
  }
  sim.RunUntil(kSecond);

  const telemetry::Snapshot snap = reg.Sample(sim.now());
  const auto counter = [&snap](const std::string& name) -> const uint64_t* {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return &v;
    return nullptr;
  };
  const uint64_t* overflow = counter("net.link.0.a->b.drop.queue_overflow");
  ASSERT_NE(overflow, nullptr);
  EXPECT_GT(*overflow, 0u);
  // The other reasons exist but stay untouched on a clean, up link.
  const uint64_t* loss = counter("net.link.0.a->b.drop.injected_loss");
  const uint64_t* down = counter("net.link.0.a->b.drop.link_down");
  ASSERT_NE(loss, nullptr);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(*loss, 0u);
  EXPECT_EQ(*down, 0u);
  // And the reverse direction never carried traffic.
  const uint64_t* rev = counter("net.link.0.b->a.drop.queue_overflow");
  ASSERT_NE(rev, nullptr);
  EXPECT_EQ(*rev, 0u);
}

}  // namespace
}  // namespace orbit
