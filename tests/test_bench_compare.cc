// Result files round-trip through JSONL and compare with a relative
// tolerance plus an absolute slack floor — the contract behind the CI
// regression gate (tools/bench_compare vs the committed baseline).
#include "harness/compare.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/metrics.h"

namespace orbit::harness {
namespace {

MetricsRecord MakeRecord(const std::string& experiment,
                         const std::string& scheme, int point,
                         double rx_mrps) {
  MetricsRecord r;
  r.experiment = experiment;
  r.point = point;
  r.rep = 0;
  r.seed = 42;
  r.params = {{"scheme", scheme}};
  r.metrics.Set("rx_mrps", rx_mrps);
  r.metrics.Set("read_p99_us", 120.5);
  return r;
}

TEST(MetricsRecord, JsonlRoundTripPreservesEverything) {
  std::vector<MetricsRecord> records = {
      MakeRecord("fig09", "NoCache", 0, 1.25),
      MakeRecord("fig09", "OrbitCache", 1, 4.5)};
  records[1].seed = ~uint64_t{0};  // full uint64 range must survive
  records[1].error = "timed out";

  const std::string text = DumpJsonl(records);
  std::vector<MetricsRecord> back;
  std::string error;
  ASSERT_TRUE(ParseJsonl(text, &back, &error)) << error;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].Key(), records[0].Key());
  EXPECT_EQ(back[1].seed, ~uint64_t{0});
  EXPECT_EQ(back[1].error, "timed out");
  EXPECT_DOUBLE_EQ(back[0].Metric("rx_mrps"), 1.25);
  // Byte stability: dumping the parse is the identity.
  EXPECT_EQ(DumpJsonl(back), text);
}

TEST(MetricsRecord, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/compare_rt.jsonl";
  const std::vector<MetricsRecord> records = {
      MakeRecord("fig12", "NetCache", 3, 2.0)};
  std::string error;
  ASSERT_TRUE(WriteJsonlFile(path, records, &error)) << error;
  std::vector<MetricsRecord> back;
  ASSERT_TRUE(ReadJsonlFile(path, &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].Key(), records[0].Key());
  std::remove(path.c_str());
}

TEST(CompareResults, IdenticalFilesMatch) {
  const std::vector<MetricsRecord> a = {MakeRecord("fig09", "NoCache", 0, 1.25)};
  const CompareReport report = CompareResults(a, a, CompareOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.matched, 1u);
  EXPECT_GE(report.metrics_compared, 2u);
}

TEST(CompareResults, DriftBeyondToleranceFails) {
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 10.0)};
  const std::vector<MetricsRecord> b = {MakeRecord("e", "s", 0, 12.0)};
  CompareOptions options;
  options.tolerance = 0.05;
  const CompareReport tight = CompareResults(a, b, options);
  EXPECT_FALSE(tight.ok());
  ASSERT_EQ(tight.diffs.size(), 1u);
  EXPECT_EQ(tight.diffs[0].metric, "rx_mrps");

  options.tolerance = 0.25;  // 20% drift within a 25% tolerance
  EXPECT_TRUE(CompareResults(a, b, options).ok());
}

TEST(CompareResults, SlackFloorsTinyAbsoluteWobble) {
  // 0.001 vs 0.003 is a 200% relative difference but far below the
  // absolute slack — near-zero metrics must not trip the gate.
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 0.001)};
  const std::vector<MetricsRecord> b = {MakeRecord("e", "s", 0, 0.003)};
  CompareOptions options;
  options.tolerance = 0.05;
  options.slack = 0.02;
  EXPECT_TRUE(CompareResults(a, b, options).ok());
  options.slack = 0;
  EXPECT_FALSE(CompareResults(a, b, options).ok());
}

TEST(CompareResults, MissingRecordsAndAsymmetricErrorsFail) {
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 1.0),
                                        MakeRecord("e", "t", 1, 2.0)};
  std::vector<MetricsRecord> b = {MakeRecord("e", "s", 0, 1.0)};
  const CompareReport missing = CompareResults(a, b, CompareOptions{});
  EXPECT_FALSE(missing.ok());
  ASSERT_EQ(missing.only_a.size(), 1u);

  b = a;
  b[1].error = "deadline exceeded";
  const CompareReport asym = CompareResults(a, b, CompareOptions{});
  EXPECT_FALSE(asym.ok());
  EXPECT_EQ(asym.errored.size(), 1u);

  // Both sides failing identically is still a match (deterministic
  // failures should not flap the gate).
  std::vector<MetricsRecord> a2 = a;
  a2[1].error = "deadline exceeded";
  EXPECT_TRUE(CompareResults(a2, b, CompareOptions{}).ok());
}

TEST(CompareResults, ExplicitMetricListAndDottedPaths) {
  std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 1.0)};
  std::vector<MetricsRecord> b = {MakeRecord("e", "s", 0, 9.0)};
  JsonValue nested = JsonValue::MakeObject();
  nested.Set("p99_us", 10.0);
  a[0].metrics.Set("read_cached", nested);
  nested.Set("p99_us", 10.1);
  b[0].metrics.Set("read_cached", nested);
  CompareOptions options;
  options.metrics = {"read_cached.p99_us"};  // rx_mrps drift is ignored
  EXPECT_TRUE(CompareResults(a, b, options).ok());
}

TEST(CompareResults, ZeroBaselineUsesLargerSideAsScale) {
  // A metric that was 0 in the baseline and becomes 1.0 is a 100%
  // relative difference (scale = max side), not a divide-by-zero pass.
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 0.0)};
  const std::vector<MetricsRecord> b = {MakeRecord("e", "s", 0, 1.0)};
  CompareOptions options;
  options.tolerance = 0.05;
  options.slack = 0;
  const CompareReport report = CompareResults(a, b, options);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.diffs.size(), 1u);
  EXPECT_DOUBLE_EQ(report.diffs[0].rel, 1.0);
  // Two exact zeros agree under any tolerance, even with zero slack.
  EXPECT_TRUE(CompareResults(a, a, options).ok());
}

TEST(CompareResults, AsymmetricMissingMetricFails) {
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 1.0)};
  std::vector<MetricsRecord> b = {MakeRecord("e", "s", 0, 1.0)};
  // B's record lost rx_mrps entirely (e.g. a metric got renamed).
  MetricsRecord stripped;
  stripped.experiment = b[0].experiment;
  stripped.point = b[0].point;
  stripped.rep = b[0].rep;
  stripped.seed = b[0].seed;
  stripped.params = b[0].params;
  stripped.metrics.Set("read_p99_us", 120.5);
  b[0] = stripped;
  const CompareReport report = CompareResults(a, b, CompareOptions{});
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.missing_metrics.size(), 1u);
  EXPECT_NE(report.missing_metrics[0].find("rx_mrps"), std::string::npos);
  // read_p99_us still compared; the loss is surfaced, not silently skipped.
  EXPECT_EQ(report.metrics_compared, 1u);
}

TEST(CompareResults, MetricAbsentFromBothSidesIsASkip) {
  // The default set includes metrics (sat_tx_mrps, ...) that not every
  // experiment emits; absent-on-both-sides must stay a silent skip.
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 1.0)};
  const CompareReport report = CompareResults(a, a, CompareOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.missing_metrics.empty());
  EXPECT_EQ(report.metrics_compared, 2u);  // rx_mrps + read_p99_us only
}

TEST(CompareResults, DefaultSetGatesSimulatorWork) {
  // The simulator's event count is deterministic work: the default gate
  // must catch a run that does 20% more of it with the same outcomes.
  std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 1.0)};
  std::vector<MetricsRecord> b = a;
  a[0].metrics.Set("events_processed", uint64_t{5'000'000});
  b[0].metrics.Set("events_processed", uint64_t{6'000'000});
  const CompareReport report = CompareResults(a, b, CompareOptions{});
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.diffs.size(), 1u);
  EXPECT_EQ(report.diffs[0].metric, "events_processed");
  EXPECT_EQ(report.metrics_compared, 3u);
}

TEST(CompareResults, VacuousComparisonIsNotAPass) {
  const std::vector<MetricsRecord> a = {MakeRecord("e", "s", 0, 1.0)};
  CompareOptions options;
  options.metrics = {"no_such_metric"};  // e.g. a typo'd --metrics flag
  const CompareReport report = CompareResults(a, a, options);
  EXPECT_EQ(report.matched, 1u);
  EXPECT_EQ(report.metrics_compared, 0u);
  EXPECT_TRUE(report.vacuous());
  EXPECT_FALSE(report.ok()) << "a gate that compared nothing must fail";
}

}  // namespace
}  // namespace orbit::harness
