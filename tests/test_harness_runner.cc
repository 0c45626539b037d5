// The parallel runner's core promise: running sweep points across a
// thread pool changes wall-clock time only — the JSONL bytes, record
// order, and every metric are identical to a serial run. Each worker's
// Simulator installs its own thread-local packet pool, so these tests
// also pin down that pooling cannot leak state across concurrent points.
// Also covers failure isolation and the per-point wall-clock timeout.
#include "harness/runner.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/fault.h"
#include "harness/metrics.h"
#include "harness/sat_cache.h"

namespace orbit::harness {
namespace {

// A real-simulation spec kept tiny so the 2x4-point suite runs in well
// under a second per job count.
ExperimentSpec TinySimSpec() {
  ExperimentSpec spec;
  spec.name = "unit_tiny_sim";
  spec.apply_paper_scale = false;
  spec.base.topo.num_clients = 2;
  spec.base.topo.num_servers = 4;
  spec.base.workload.num_keys = 2'000;
  spec.base.topo.server_rate_rps = 100'000;
  spec.base.topo.client_rate_rps = 400'000;
  spec.base.warmup = 2 * kMillisecond;
  spec.base.duration = 10 * kMillisecond;
  spec.axes = {SchemeAxis({testbed::Scheme::kNoCache,
                           testbed::Scheme::kOrbitCache}),
               NumericAxis("zipf_theta", {0.9, 0.99},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.zipf_theta = v;
                           })};
  spec.run = FixedLoadRun();
  return spec;
}

TEST(RunExperiments, ParallelOutputIsByteIdenticalToSerial) {
  const std::vector<ExperimentSpec> specs = {TinySimSpec()};
  RunnerOptions serial;
  serial.scale = Scale::kQuick;
  serial.jobs = 1;
  serial.progress = false;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const RunOutcome a = RunExperiments(specs, serial);
  const RunOutcome b = RunExperiments(specs, parallel);
  ASSERT_EQ(a.records.size(), 4u);
  ASSERT_EQ(b.records.size(), 4u);
  EXPECT_EQ(a.errors, 0);
  EXPECT_EQ(b.errors, 0);
  // The whole point: byte-for-byte identical machine-readable output.
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
}

// Faulted, lossy, retrying runs are the hardest case for parallel-equals-
// serial: retransmission timing, burst-loss RNG draws, and injected fault
// events must all be functions of the point config alone.
ExperimentSpec TinyFaultSpec() {
  ExperimentSpec spec = TinySimSpec();
  spec.name = "unit_tiny_fault";
  spec.base.client.max_retries = 2;
  spec.base.client.request_timeout = kMillisecond;
  spec.axes = {
      SchemeAxis({testbed::Scheme::kOrbitCache}),
      FaultAxis(
          {{"switch-reset",
            [](testbed::TestbedConfig& cfg) {
              cfg.fault =
                  fault::SwitchResetAt(5 * kMillisecond, kMillisecond);
              cfg.fault.server_burst_loss.p_enter_bad = 0.002;
            }},
           {"server-crash", [](testbed::TestbedConfig& cfg) {
              cfg.fault = fault::ServerCrashAt(0, 4 * kMillisecond,
                                               8 * kMillisecond);
              cfg.fault.server_burst_loss.p_enter_bad = 0.002;
            }}})};
  return spec;
}

TEST(RunExperiments, FaultedRetryingRunsStayDeterministicAcrossJobs) {
  const std::vector<ExperimentSpec> specs = {TinyFaultSpec()};
  RunnerOptions serial;
  serial.scale = Scale::kQuick;
  serial.jobs = 1;
  serial.progress = false;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const RunOutcome a = RunExperiments(specs, serial);
  const RunOutcome b = RunExperiments(specs, parallel);
  ASSERT_EQ(a.records.size(), 2u);
  ASSERT_EQ(b.records.size(), 2u);
  EXPECT_EQ(a.errors, 0);
  EXPECT_EQ(b.errors, 0);
  for (const auto& rec : a.records) {
    EXPECT_EQ(rec.Metric("faults_injected"), 2.0);
    EXPECT_GT(rec.Metric("retransmissions"), 0.0);
  }
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
}

TEST(RunExperiments, FailingPointIsIsolated) {
  ExperimentSpec spec;
  spec.name = "unit_failures";
  spec.apply_paper_scale = false;
  spec.axes = {NumericAxis("x", {1, 2, 3}, nullptr)};
  spec.run = [](const PointRun& p, SaturationCache&) {
    if (p.point == 1) throw std::runtime_error("boom");
    JsonValue m = JsonValue::MakeObject();
    m.Set("x", p.Value("x"));
    return m;
  };
  RunnerOptions options;
  options.progress = false;
  const RunOutcome out = RunExperiments({spec}, options);
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.errors, 1);
  EXPECT_TRUE(out.records[0].ok());
  EXPECT_FALSE(out.records[1].ok());
  EXPECT_EQ(out.records[1].error, "boom");
  EXPECT_TRUE(out.records[2].ok());
  EXPECT_DOUBLE_EQ(out.records[2].Metric("x"), 3.0);
}

// --verify covers every point, fabric ones included: the runner turns the
// checker on in each point's config before the RunFn sees it.
TEST(RunExperiments, VerifyCoversFabricPoints) {
  ExperimentSpec spec;
  spec.name = "unit_verify_fabric";
  spec.apply_paper_scale = false;
  spec.base.topo.fabric.num_racks = 2;
  spec.axes = {NumericAxis("x", {1}, nullptr)};
  spec.run = [](const PointRun& p, SaturationCache&) {
    JsonValue m = JsonValue::MakeObject();
    m.Set("verify", p.config.verify.enabled);
    return m;
  };
  RunnerOptions options;
  options.progress = false;
  options.verify = true;
  const RunOutcome out = RunExperiments({spec}, options);
  ASSERT_EQ(out.records.size(), 1u);
  ASSERT_TRUE(out.records[0].ok()) << out.records[0].error;
  EXPECT_TRUE(out.records[0].metrics.Find("verify")->AsBool());
}

TEST(RunExperiments, PointTimeoutRecordsErrorAndContinues) {
  ExperimentSpec spec = TinySimSpec();
  spec.name = "unit_timeout";
  // A simulated 10 minutes cannot complete within the 0.2s budget; the
  // deadline check inside Simulator::Step aborts the point instead of
  // hanging the suite.
  spec.base.duration = 600 * kSecond;
  spec.axes = {SchemeAxis({testbed::Scheme::kNoCache})};
  RunnerOptions options;
  options.scale = Scale::kQuick;
  options.progress = false;
  options.point_timeout_sec = 0.2;
  const RunOutcome out = RunExperiments({spec}, options);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.errors, 1);
  EXPECT_FALSE(out.records[0].ok());
  EXPECT_NE(out.records[0].error.find("deadline"), std::string::npos)
      << out.records[0].error;
}

TEST(RunExperiments, SaturationCacheDeduplicatesIdenticalConfigs) {
  ExperimentSpec spec = TinySimSpec();
  spec.name = "unit_sat_cache";
  // Two labels, no config difference: the second point must reuse the
  // first point's saturation search.
  spec.axes = {NumericAxis("probe", {1, 2}, nullptr)};
  spec.run = SaturationRun();
  spec.max_corrections = 0;
  RunnerOptions options;
  options.scale = Scale::kQuick;
  options.progress = false;
  const RunOutcome out = RunExperiments({spec}, options);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.errors, 0);
  EXPECT_EQ(out.sat_cache_hits, 1u);
  EXPECT_DOUBLE_EQ(out.records[0].Metric("sat_tx_mrps"),
                   out.records[1].Metric("sat_tx_mrps"));
}

TEST(SaturationCacheTest, FailedComputeIsEvictedAndRetried) {
  // A compute that throws must not poison the memo: the exception reaches
  // the first caller, but a later Get with the same config recomputes.
  int calls = 0;
  SaturationCache cache(
      [&calls](const testbed::TestbedConfig&, double, int) {
        if (++calls == 1) throw std::runtime_error("flaky");
        testbed::SaturationResult r;
        r.sat_tx_rps = 123456;
        r.runs = 1;
        return r;
      });
  testbed::TestbedConfig cfg;
  EXPECT_THROW(cache.Get(cfg, 0.03, 0), std::runtime_error);
  EXPECT_EQ(cache.failures(), 1u);
  const testbed::SaturationResult r = cache.Get(cfg, 0.03, 0);
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(r.sat_tx_rps, 123456);
  EXPECT_EQ(cache.failures(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  // And the recomputed entry is a normal cache hit afterwards.
  const uint64_t hits_before = cache.hits();
  (void)cache.Get(cfg, 0.03, 0);
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_EQ(calls, 2);
}

TEST(SaturationCacheTest, ValueSeedIsPartOfTheKey) {
  // Bimodal sizes at two seeds share their min, max and mean but give
  // keys different sizes, so each config needs its own search.
  int calls = 0;
  SaturationCache cache([&calls](const testbed::TestbedConfig&, double, int) {
    ++calls;
    return testbed::SaturationResult{};
  });
  testbed::TestbedConfig seed0;
  seed0.scheme = testbed::Scheme::kNetCache;
  seed0.topo.num_servers = 8;
  seed0.topo.server_rate_rps = 50'000;
  seed0.workload.num_keys = 50'000;
  seed0.workload.value_dist = wl::ValueDist::Bimodal(64, 1024, 0.82, 0);
  testbed::TestbedConfig seed7 = seed0;
  seed7.workload.value_dist = wl::ValueDist::Bimodal(64, 1024, 0.82, 7);
  (void)cache.Get(seed0, 0.03, 0);
  (void)cache.Get(seed7, 0.03, 0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace orbit::harness
