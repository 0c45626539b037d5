// Fault injection (§3.9): the Gilbert–Elliott burst-loss model on links,
// the link down/up switchgear, the FaultInjector's scripted timeline, and
// end-to-end testbed runs around injected server crashes, switch resets,
// and controller-channel outages.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit::fault {
namespace {

// ---- link-level models --------------------------------------------------

class Sink : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr pkt, int) override {
    seqs.push_back(pkt->msg.seq);
  }
  std::string name() const override { return "sink"; }
  std::vector<uint32_t> seqs;
};

sim::PacketPtr Pkt(uint32_t seq) {
  auto pkt = sim::NewPacket(0, 0, 0, 0);
  pkt->msg.seq = seq;
  return pkt;
}

TEST(GilbertElliott, DisabledByDefault) {
  sim::GilbertElliottConfig ge;
  EXPECT_FALSE(ge.enabled());
  ge.p_enter_bad = 0.01;
  EXPECT_TRUE(ge.enabled());
}

TEST(GilbertElliott, StickyBadStateDropsEverything) {
  // p_enter_bad = 1 with no exit: the very first packet transitions the
  // channel into the bad state (transition precedes the loss draw) and
  // loss_bad = 1 then eats every packet.
  sim::Simulator sim;
  sim::Network net(&sim);
  Sink a, b;
  sim::LinkConfig cfg;
  cfg.burst_loss.p_enter_bad = 1.0;
  cfg.burst_loss.p_exit_bad = 0.0;
  cfg.burst_loss.loss_bad = 1.0;
  auto at = net.Connect(&a, &b, cfg);
  for (uint32_t i = 0; i < 50; ++i) net.Send(&a, 0, Pkt(i));
  sim.RunToCompletion();
  EXPECT_TRUE(b.seqs.empty());
  EXPECT_EQ(at.link->stats(0).lost, 50u);
}

TEST(GilbertElliott, LossesArriveInBursts) {
  // Bad episodes last 1/p_exit_bad ≈ 5 packets on average; independent
  // loss at the same long-run rate would average run length ~1. The mean
  // run length of consecutive drops is the burstiness signature.
  sim::Simulator sim;
  sim::Network net(&sim);
  Sink a, b;
  sim::LinkConfig cfg;
  cfg.burst_loss.p_enter_bad = 0.05;
  cfg.burst_loss.p_exit_bad = 0.2;
  cfg.burst_loss.loss_bad = 1.0;
  cfg.loss_seed = 7;
  auto at = net.Connect(&a, &b, cfg);
  const uint32_t kN = 4000;
  for (uint32_t i = 0; i < kN; ++i) net.Send(&a, 0, Pkt(i));
  sim.RunToCompletion();

  const uint64_t lost = at.link->stats(0).lost;
  ASSERT_GT(lost, 0u);
  ASSERT_EQ(lost + b.seqs.size(), kN);
  std::set<uint32_t> delivered(b.seqs.begin(), b.seqs.end());
  uint64_t runs = 0;
  bool in_run = false;
  for (uint32_t i = 0; i < kN; ++i) {
    const bool dropped = delivered.count(i) == 0;
    if (dropped && !in_run) ++runs;
    in_run = dropped;
  }
  ASSERT_GT(runs, 0u);
  const double mean_run = static_cast<double>(lost) / runs;
  EXPECT_GT(mean_run, 2.0) << "losses should cluster into bursts";
}

TEST(LinkDown, DropsEverythingWithoutTouchingTheLossRng) {
  // Run the same lossy link twice (same Network creation index, so the
  // same mixed seed). In run B, 50 packets are offered while the link is
  // down before the real traffic; since down-drops never draw the RNG,
  // run B's survivor pattern must match run A's draw-for-draw.
  sim::LinkConfig cfg;
  cfg.loss_rate = 0.4;
  cfg.loss_seed = 11;

  sim::Simulator sim_a;
  sim::Network net_a(&sim_a);
  Sink a1, a2;
  net_a.Connect(&a1, &a2, cfg);
  for (uint32_t i = 0; i < 200; ++i) net_a.Send(&a1, 0, Pkt(i));
  sim_a.RunToCompletion();
  ASSERT_GT(a2.seqs.size(), 0u);
  ASSERT_LT(a2.seqs.size(), 200u);

  sim::Simulator sim_b;
  sim::Network net_b(&sim_b);
  Sink b1, b2;
  auto at = net_b.Connect(&b1, &b2, cfg);
  at.link->set_down(true);
  EXPECT_TRUE(at.link->down());
  for (uint32_t i = 0; i < 50; ++i) net_b.Send(&b1, 0, Pkt(1000 + i));
  EXPECT_EQ(at.link->stats(0).down_drops, 50u)
      << "down link discards everything";
  at.link->set_down(false);
  for (uint32_t i = 0; i < 200; ++i) net_b.Send(&b1, 0, Pkt(i));
  sim_b.RunToCompletion();
  EXPECT_EQ(a2.seqs, b2.seqs)
      << "a down/up episode must not perturb later loss draws";
}

TEST(ConfigFingerprint, FaultScheduleChangesIdentity) {
  testbed::TestbedConfig base;
  testbed::TestbedConfig with_fault = base;
  with_fault.fault = SwitchResetAt(5 * kMillisecond);
  testbed::TestbedConfig with_burst = base;
  with_burst.fault.server_burst_loss.p_enter_bad = 0.01;
  EXPECT_NE(testbed::ConfigFingerprint(base),
            testbed::ConfigFingerprint(with_fault));
  EXPECT_NE(testbed::ConfigFingerprint(base),
            testbed::ConfigFingerprint(with_burst));
  EXPECT_NE(testbed::ConfigFingerprint(with_fault),
            testbed::ConfigFingerprint(with_burst));
}

// ---- FaultInjector ------------------------------------------------------

using Log = std::vector<std::pair<SimTime, std::string>>;

// Records every event the injector applies and every rebuild it fires.
struct Recorder {
  explicit Recorder(sim::Simulator* sim) : sim(sim) {}
  FaultInjector::ApplyFn Apply() {
    return [this](const FaultEvent& ev) {
      log.emplace_back(sim->now(), FaultKindName(ev.kind));
    };
  }
  FaultInjector::RebuildFn Rebuild() {
    return [this](int rack) {
      log.emplace_back(sim->now(), "rebuild:" + std::to_string(rack));
    };
  }
  sim::Simulator* sim;
  Log log;
};

TEST(FaultInjector, AppliesEachEventAtItsTimeAndRebuildsAfterAReset) {
  sim::Simulator sim;
  FaultSchedule schedule;
  schedule.events.push_back({10 * kMicrosecond, FaultKind::kServerCrash, 3});
  schedule.events.push_back({20 * kMicrosecond, FaultKind::kServerRestart, 3});
  schedule.events.push_back({30 * kMicrosecond, FaultKind::kCtrlDown, -1});
  schedule.events.push_back({40 * kMicrosecond, FaultKind::kCtrlUp, -1});
  schedule.events.push_back({50 * kMicrosecond, FaultKind::kSwitchReset, -1});
  schedule.switch_rebuild_delay = 5 * kMicrosecond;

  Recorder rec(&sim);
  FaultInjector injector(&sim, schedule, rec.Apply(), rec.Rebuild());
  injector.Arm();
  sim.RunToCompletion();

  EXPECT_EQ(rec.log, (Log{{10 * kMicrosecond, "server_crash"},
                          {20 * kMicrosecond, "server_restart"},
                          {30 * kMicrosecond, "ctrl_down"},
                          {40 * kMicrosecond, "ctrl_up"},
                          {50 * kMicrosecond, "switch_reset"},
                          {55 * kMicrosecond, "rebuild:-1"}}))
      << "a reset rebuilds every rack rebuild_delay later";
  const FaultInjector::Stats& s = injector.stats();
  EXPECT_EQ(s.server_crashes, 1u);
  EXPECT_EQ(s.server_restarts, 1u);
  EXPECT_EQ(s.switch_resets, 1u);
  EXPECT_EQ(s.cache_rebuilds, 1u);
  EXPECT_EQ(s.ctrl_transitions, 2u);
  EXPECT_EQ(s.injected, 6u);
}

TEST(FaultInjector, LeafRestartRebuildsThatRackAfterTheDelay) {
  sim::Simulator sim;
  const FaultSchedule schedule = LeafCrashAt(
      3, 10 * kMicrosecond, 30 * kMicrosecond, /*rebuild_delay=*/7 * kMicrosecond);
  Recorder rec(&sim);
  FaultInjector injector(&sim, schedule, rec.Apply(), rec.Rebuild());
  injector.Arm();
  sim.RunToCompletion();

  EXPECT_EQ(rec.log, (Log{{10 * kMicrosecond, "leaf_crash"},
                          {30 * kMicrosecond, "leaf_restart"},
                          {37 * kMicrosecond, "rebuild:3"}}))
      << "the rebuild fires rebuild_delay after the restart, for rack 3";
  const FaultInjector::Stats& s = injector.stats();
  EXPECT_EQ(s.leaf_crashes, 1u);
  EXPECT_EQ(s.leaf_restarts, 1u);
  EXPECT_EQ(s.leaf_rebuilds, 1u);
  EXPECT_EQ(s.cache_rebuilds, 0u);
  EXPECT_EQ(s.injected, 3u);
}

TEST(FaultInjector, WithoutARebuildNoRebuildIsArmed) {
  sim::Simulator sim;
  FaultSchedule schedule = LeafCrashAt(0, kMicrosecond, 2 * kMicrosecond);
  schedule.events.push_back({3 * kMicrosecond, FaultKind::kSwitchReset, -1});
  Recorder rec(&sim);
  FaultInjector injector(&sim, schedule, rec.Apply());
  injector.Arm();
  sim.RunToCompletion();
  EXPECT_EQ(rec.log.size(), 3u) << "only the scheduled events";
  EXPECT_EQ(injector.stats().injected, 3u);
  EXPECT_EQ(injector.stats().cache_rebuilds, 0u);
  EXPECT_EQ(injector.stats().leaf_rebuilds, 0u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(FaultKind, EachPairOpensWithItsFirstKind) {
  const std::vector<std::pair<FaultKind, FaultKind>> pairs = {
      {FaultKind::kServerCrash, FaultKind::kServerRestart},
      {FaultKind::kCtrlDown, FaultKind::kCtrlUp},
      {FaultKind::kFabricLinkDown, FaultKind::kFabricLinkUp},
      {FaultKind::kLeafCrash, FaultKind::kLeafRestart},
      {FaultKind::kSpineCrash, FaultKind::kSpineRestart},
      {FaultKind::kLinkDegrade, FaultKind::kLinkRestore},
      {FaultKind::kRackPartition, FaultKind::kRackHeal},
  };
  std::set<std::string> names = {FaultKindName(FaultKind::kSwitchReset)};
  EXPECT_TRUE(OpensFault(FaultKind::kSwitchReset));
  for (const auto& [open, close] : pairs) {
    EXPECT_TRUE(OpensFault(open)) << FaultKindName(open);
    EXPECT_FALSE(OpensFault(close)) << FaultKindName(close);
    names.insert(FaultKindName(open));
    names.insert(FaultKindName(close));
  }
  EXPECT_EQ(names.size(), 15u) << "every kind has its own name";
}

TEST(FaultSchedule, BuildersAndEmptiness) {
  FaultSchedule none;
  EXPECT_TRUE(none.empty());
  FaultSchedule reset = SwitchResetAt(3 * kMillisecond, kMillisecond);
  EXPECT_FALSE(reset.empty());
  ASSERT_EQ(reset.events.size(), 1u);
  EXPECT_EQ(reset.events[0].kind, FaultKind::kSwitchReset);
  EXPECT_EQ(reset.switch_rebuild_delay, kMillisecond);
  FaultSchedule crash = ServerCrashAt(2, kMillisecond, 4 * kMillisecond);
  ASSERT_EQ(crash.events.size(), 2u);
  EXPECT_EQ(crash.events[0].kind, FaultKind::kServerCrash);
  EXPECT_EQ(crash.events[1].kind, FaultKind::kServerRestart);
  EXPECT_EQ(crash.events[1].server, 2);
  FaultSchedule burst_only;
  burst_only.server_burst_loss.p_enter_bad = 0.01;
  EXPECT_FALSE(burst_only.empty());
}

TEST(FaultSchedule, CheckTargetsNamesTargetsTheTopologyLacks) {
  const int servers = 4, racks = 2, spines = 2;
  EXPECT_EQ(ServerCrashAt(3, 1, 2).CheckTargets(servers, racks, spines), "");
  EXPECT_EQ(ServerCrashAt(4, 1, 2).CheckTargets(servers, racks, spines),
            "fault event server_crash targets server 4 but only 4 servers "
            "exist");
  EXPECT_NE(LeafCrashAt(2, 1, 2).CheckTargets(servers, racks, spines)
                .find("targets rack 2 but only 2 racks exist"),
            std::string::npos);
  EXPECT_NE(SpineCrashAt(2, 1, 2).CheckTargets(servers, racks, spines)
                .find("targets spine 2 but only 2 spines exist"),
            std::string::npos);
  EXPECT_NE(RackPartitionAt(0, 1, 2).CheckTargets(servers, 0, 0)
                .find("topo.fabric is disabled"),
            std::string::npos)
      << "a single switch has no fabric targets";
  FaultSchedule ctrl;
  ctrl.events.push_back({1, FaultKind::kCtrlDown, -1});
  EXPECT_EQ(ctrl.CheckTargets(servers, 0, 0), "");
  EXPECT_NE(ctrl.CheckTargets(servers, racks, spines).find("crash the leaf"),
            std::string::npos)
      << "a fabric has no single controller channel";
}

// ---- end-to-end testbed runs -------------------------------------------

testbed::TestbedConfig TinyConfig() {
  testbed::TestbedConfig cfg;
  cfg.topo.num_clients = 2;
  cfg.topo.num_servers = 4;
  cfg.workload.num_keys = 2'000;
  cfg.topo.server_rate_rps = 100'000;
  cfg.topo.client_rate_rps = 400'000;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 10 * kMillisecond;
  return cfg;
}

TEST(TestbedFaults, ServerTargetBeyondTheTopologyFailsValidate) {
  // A crash of a server the topology lacks fails Validate() instead of
  // aborting the run when it fires.
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.fault = ServerCrashAt(7, 4 * kMillisecond, 8 * kMillisecond);
  const std::vector<std::string> errors = cfg.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0],
            "fault event server_crash targets server 7 but only 4 servers "
            "exist");
}

TEST(TestbedFaults, ServerCrashCollapsesThenRecoversWithRetries) {
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.scheme = testbed::Scheme::kNoCache;
  // Mild skew and headroom below saturation: the clean run must be
  // genuinely timeout-free so every retransmission is fault-attributable.
  cfg.workload.zipf_theta = 0.5;
  cfg.topo.client_rate_rps = 250'000;
  cfg.client.max_retries = 2;
  cfg.client.request_timeout = 2 * kMillisecond;
  const testbed::TestbedResult clean = testbed::RunTestbed(cfg);
  ASSERT_EQ(clean.faults_injected, 0u);
  ASSERT_EQ(clean.retransmissions, 0u);

  cfg.fault = ServerCrashAt(0, 4 * kMillisecond, 8 * kMillisecond);
  const testbed::TestbedResult faulted = testbed::RunTestbed(cfg);
  EXPECT_EQ(faulted.faults_injected, 2u) << "crash + restart";
  EXPECT_GT(faulted.retransmissions, 0u)
      << "requests to the dead server must be retried";
  EXPECT_LT(faulted.rx_rps, clean.rx_rps)
      << "a quarter of the key space was dark for 4 of 10 ms";
  EXPECT_GT(faulted.rx_rps, 0.5 * clean.rx_rps)
      << "the other servers keep serving through the outage";
}

TEST(TestbedFaults, SwitchResetIsRebuiltByTheController) {
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.scheme = testbed::Scheme::kOrbitCache;
  cfg.cache.orbit_cache_size = 32;
  cfg.client.max_retries = 2;
  cfg.client.request_timeout = kMillisecond;
  cfg.fault = SwitchResetAt(5 * kMillisecond, kMillisecond);
  const testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 2u) << "reset + cache rebuild";
  EXPECT_GT(res.cache_entries, 0u)
      << "the controller reinstalls its shadow copy after the reset";
  EXPECT_GT(res.cache_served_rps, 0.0)
      << "cached service resumes after the rebuild";
}

TEST(TestbedFaults, NetCacheSwitchResetIsRebuiltByTheController) {
  // A reset wipes NetCache's lookup table and value registers too, and its
  // controller reinstalls and refetches every entry from its shadow copy.
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.scheme = testbed::Scheme::kNetCache;
  cfg.cache.netcache_size = 256;
  cfg.client.max_retries = 2;
  cfg.client.request_timeout = kMillisecond;
  cfg.verify.enabled = true;
  const testbed::TestbedResult clean = testbed::RunTestbed(cfg);

  cfg.fault = SwitchResetAt(5 * kMillisecond, kMillisecond);
  const testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 2u) << "reset + cache rebuild";
  EXPECT_EQ(res.cache_entries, clean.cache_entries)
      << "the rebuild restores every preloaded entry";
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
}

// A switch reset whose rebuild refetches are all lost (the controller
// channel is down when they leave) must not leave the cache dark until the
// next update tick: the rebuild sweep re-sends unanswered refetches every
// fetch timeout, for both schemes.
class TestbedFaults : public ::testing::TestWithParam<testbed::Scheme> {};

TEST_P(TestbedFaults, NetCacheRebuildRetriesLostRefetches) {
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.scheme = GetParam();
  cfg.topo.client_rate_rps = 300'000;
  cfg.cache.netcache_size = 256;
  cfg.cache.orbit_cache_size = 128;
  cfg.client.max_retries = 2;
  cfg.client.request_timeout = kMillisecond;
  cfg.warmup = 10 * kMillisecond;
  cfg.duration = 30 * kMillisecond;
  cfg.verify.enabled = true;
  const testbed::TestbedResult clean = testbed::RunTestbed(cfg);
  ASSERT_GT(clean.cache_served_rps, 0.0);

  cfg.fault = SwitchResetAt(5 * kMillisecond, /*rebuild_delay=*/kMillisecond);
  cfg.fault.events.push_back(
      {5 * kMillisecond + kMillisecond / 2, FaultKind::kCtrlDown, -1});
  cfg.fault.events.push_back(
      {6 * kMillisecond + kMillisecond / 2, FaultKind::kCtrlUp, -1});
  const testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 4u) << "reset, ctrl down, rebuild, ctrl up";
  EXPECT_GE(res.cache_served_rps, 0.9 * clean.cache_served_rps)
      << "lost rebuild refetches are retried before the window opens";
  EXPECT_EQ(res.verify_violations, 0u) << res.verify_report;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TestbedFaults,
    ::testing::Values(testbed::Scheme::kNetCache,
                      testbed::Scheme::kOrbitCache),
    [](const ::testing::TestParamInfo<testbed::Scheme>& info) {
      return std::string(testbed::SchemeName(info.param));
    });

TEST(TestbedFaults, CtrlChannelOutageIsInjected) {
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.scheme = testbed::Scheme::kOrbitCache;
  cfg.control.run_cache_updates = true;
  cfg.control.update_period = 2 * kMillisecond;
  cfg.fault.events.push_back({4 * kMillisecond, FaultKind::kCtrlDown, -1});
  cfg.fault.events.push_back({7 * kMillisecond, FaultKind::kCtrlUp, -1});
  const testbed::TestbedResult res = testbed::RunTestbed(cfg);
  EXPECT_EQ(res.faults_injected, 2u);
  EXPECT_GT(res.rx_rps, 0.0) << "data path keeps serving without the CPU";
}

TEST(TestbedFaults, BurstLossIsAbsorbedByRetransmission) {
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.scheme = testbed::Scheme::kNoCache;
  cfg.client.request_timeout = kMillisecond;
  cfg.fault.server_burst_loss.p_enter_bad = 0.02;
  cfg.fault.server_burst_loss.p_exit_bad = 0.3;

  cfg.client.max_retries = 0;
  const testbed::TestbedResult no_retry = testbed::RunTestbed(cfg);
  cfg.client.max_retries = 3;
  const testbed::TestbedResult retry = testbed::RunTestbed(cfg);

  EXPECT_GT(no_retry.timeouts, 0u) << "burst loss must bite without retries";
  EXPECT_GT(retry.retransmissions, 0u);
  EXPECT_LT(retry.timeouts, no_retry.timeouts)
      << "retries recover most lost requests";
  EXPECT_GT(retry.rx_rps, no_retry.rx_rps);
}

TEST(TestbedFaults, RetryBudgetIsResultsNeutralWithoutLoss) {
  // With no loss and no faults a deadline never finds a pending request
  // still unanswered, so enabling retries changes nothing — not even the
  // event count (one deadline event is armed per request either way).
  testbed::TestbedConfig cfg = TinyConfig();
  cfg.client.max_retries = 0;
  const testbed::TestbedResult a = testbed::RunTestbed(cfg);
  cfg.client.max_retries = 3;
  const testbed::TestbedResult b = testbed::RunTestbed(cfg);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.rx_rps, b.rx_rps);
  EXPECT_DOUBLE_EQ(a.tx_rps, b.tx_rps);
  EXPECT_EQ(a.timeouts, 0u);
  EXPECT_EQ(b.timeouts, 0u);
  EXPECT_EQ(b.retransmissions, 0u);
  EXPECT_EQ(a.inflight_at_stop, b.inflight_at_stop);
}

}  // namespace
}  // namespace orbit::fault
