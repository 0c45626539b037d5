// The testbed's timeline contract: with timeline_bin set, RunTestbed
// reports ⌊(warmup + duration) / timeline_bin⌋ throughput and
// overflow-ratio entries, entry k covering [k·bin, (k+1)·bin) from t = 0,
// whether or not replies keep arriving; and the throughput bins count the
// same replies as the window's rx_rps.
#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault.h"
#include "testbed/testbed.h"

namespace orbit::testbed {
namespace {

TEST(TimelineContract, EveryBinIsReportedAfterRepliesStop) {
  for (const Scheme scheme : {Scheme::kNoCache, Scheme::kOrbitCache}) {
    SCOPED_TRACE(SchemeName(scheme));
    TestbedConfig cfg;
    cfg.scheme = scheme;
    cfg.topo.num_clients = 1;
    cfg.topo.num_servers = 1;
    cfg.topo.server_rate_rps = 50'000;
    cfg.topo.client_rate_rps = 40'000;
    cfg.workload.num_keys = 2'000;
    cfg.warmup = 20 * kMillisecond;
    cfg.duration = 40 * kMillisecond;
    cfg.timeline_bin = 10 * kMillisecond;
    // The only server dies at 25 ms and is still down when the run ends.
    cfg.fault = fault::ServerCrashAt(0, 25 * kMillisecond, 100 * kMillisecond);
    const TestbedResult res = RunTestbed(cfg);

    ASSERT_EQ(res.throughput_timeline.size(), 6u);
    ASSERT_EQ(res.overflow_ratio_timeline.size(), 6u);
    EXPECT_NEAR(res.throughput_timeline[1], 40'000, 10'000)
        << "bin 1 lies in the warmup, before the crash";
    if (scheme == Scheme::kNoCache) {
      // Nothing answers once the server is gone, and nothing is cached.
      for (size_t k = 3; k < 6; ++k)
        EXPECT_EQ(res.throughput_timeline[k], 0.0) << "bin " << k;
      for (size_t k = 0; k < 6; ++k)
        EXPECT_EQ(res.overflow_ratio_timeline[k], 0.0) << "bin " << k;
    }
  }
}

TEST(TimelineContract, ThroughputBinsSumToTheWindowsReplies) {
  for (const Scheme scheme :
       {Scheme::kNoCache, Scheme::kNetCache, Scheme::kOrbitCache}) {
    SCOPED_TRACE(SchemeName(scheme));
    TestbedConfig cfg;
    cfg.scheme = scheme;
    cfg.topo.num_clients = 2;
    cfg.topo.num_servers = 4;
    cfg.topo.server_rate_rps = 100'000;
    cfg.topo.client_rate_rps = 300'000;
    cfg.workload.num_keys = 2'000;
    cfg.warmup = 0;  // the window then covers every bin
    cfg.duration = 50 * kMillisecond;
    cfg.timeline_bin = 10 * kMillisecond;
    const TestbedResult res = RunTestbed(cfg);

    ASSERT_EQ(res.throughput_timeline.size(), 5u);
    ASSERT_EQ(res.overflow_ratio_timeline.size(), 5u);
    double binned = 0;
    for (const double rps : res.throughput_timeline) binned += rps * 0.010;
    const long window = std::lround(res.rx_rps * 0.050);
    EXPECT_GT(window, 10'000);
    // A reply landing exactly at the end instant counts in the window but
    // in no bin; every other reply counts in both.
    EXPECT_LE(std::lround(binned), window);
    EXPECT_GE(std::lround(binned), window - 2);
  }
}

}  // namespace
}  // namespace orbit::testbed
