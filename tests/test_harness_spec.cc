// Declarative sweep layer: grid expansion order, seed derivation, and the
// single source of truth for quick/default/full scaling.
#include "harness/spec.h"

#include <gtest/gtest.h>

#include <set>

namespace orbit::harness {
namespace {

ExperimentSpec TwoAxisSpec() {
  ExperimentSpec spec;
  spec.name = "unit_two_axis";
  spec.axes = {SchemeAxis({testbed::Scheme::kNoCache,
                           testbed::Scheme::kOrbitCache}),
               NumericAxis("zipf_theta", {0.9, 0.99},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.zipf_theta = v;
                           })};
  return spec;
}

TEST(ExpandGrid, RowMajorLastAxisFastest) {
  const ExperimentSpec spec = TwoAxisSpec();
  const auto points = ExpandGrid(spec, Scale::kQuick, 42);
  ASSERT_EQ(points.size(), 4u);
  // (scheme, zipf): NoCache×0.9, NoCache×0.99, Orbit×0.9, Orbit×0.99.
  EXPECT_EQ(points[0].params[0].second, "NoCache");
  EXPECT_EQ(points[0].params[1].second, "0.9");
  EXPECT_EQ(points[1].params[0].second, "NoCache");
  EXPECT_EQ(points[1].params[1].second, "0.99");
  EXPECT_EQ(points[2].params[0].second, "OrbitCache");
  EXPECT_EQ(points[3].params[1].second, "0.99");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(points[i].point, i);
  // The apply functions actually landed on the config.
  EXPECT_EQ(points[2].config.scheme, testbed::Scheme::kOrbitCache);
  EXPECT_DOUBLE_EQ(points[1].config.workload.zipf_theta, 0.99);
  EXPECT_DOUBLE_EQ(points[1].Value("zipf_theta"), 0.99);
}

TEST(ExpandGrid, AppliesScaleProfileAndScaleFn) {
  ExperimentSpec spec = TwoAxisSpec();
  spec.scale_fn = [](testbed::TestbedConfig& cfg, Scale) {
    cfg.duration = cfg.duration / 2;
  };
  const ScaleProfile quick = PaperScaleProfile(Scale::kQuick);
  const auto points = ExpandGrid(spec, Scale::kQuick, 42);
  EXPECT_EQ(points[0].config.workload.num_keys, quick.num_keys);
  EXPECT_EQ(points[0].config.warmup, quick.warmup);
  EXPECT_EQ(points[0].config.duration, quick.duration / 2);

  spec.apply_paper_scale = false;
  const auto raw = ExpandGrid(spec, Scale::kQuick, 42);
  EXPECT_EQ(raw[0].config.workload.num_keys, spec.base.workload.num_keys);
  EXPECT_EQ(raw[0].config.duration, spec.base.duration / 2);
}

TEST(ExpandGrid, RepetitionsInnerAndSeedsDerived) {
  ExperimentSpec spec = TwoAxisSpec();
  spec.repetitions = 3;
  const auto points = ExpandGrid(spec, Scale::kQuick, 42);
  ASSERT_EQ(points.size(), 12u);
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].point, static_cast<int>(i / 3));
    EXPECT_EQ(points[i].rep, static_cast<int>(i % 3));
    // Rep 0 keeps the base seed so single-rep figures reproduce the
    // documented numbers; further reps get derived seeds.
    if (points[i].rep == 0) {
      EXPECT_EQ(points[i].seed, 42u);
    } else {
      EXPECT_NE(points[i].seed, 42u);
      seeds.insert(points[i].seed);
    }
    EXPECT_EQ(points[i].config.seed, points[i].seed);
  }
  EXPECT_EQ(seeds.size(), 8u);  // 4 points x 2 derived reps, all distinct
}

TEST(DeriveSeed, StableAndExperimentScoped) {
  EXPECT_EQ(DeriveSeed(42, "fig09_skewness", 3, 0), 42u);
  const uint64_t a = DeriveSeed(42, "fig09_skewness", 3, 1);
  EXPECT_EQ(DeriveSeed(42, "fig09_skewness", 3, 1), a);  // deterministic
  EXPECT_NE(DeriveSeed(42, "fig12_write_ratio", 3, 1), a);
  EXPECT_NE(DeriveSeed(42, "fig09_skewness", 4, 1), a);
  EXPECT_NE(DeriveSeed(42, "fig09_skewness", 3, 2), a);
  EXPECT_NE(DeriveSeed(43, "fig09_skewness", 3, 1), a);
}

TEST(ExpandGrid, DefaultBaseAtFullScaleIsSection51) {
  const testbed::TestbedConfig cfg =
      ExpandGrid(ExperimentSpec{}, Scale::kFull, 42).at(0).config;
  EXPECT_EQ(cfg.topo.num_clients, 4);
  EXPECT_EQ(cfg.topo.num_servers, 32);
  EXPECT_EQ(cfg.workload.num_keys, 10'000'000u);
  EXPECT_DOUBLE_EQ(cfg.workload.zipf_theta, 0.99);
  EXPECT_EQ(cfg.cache.orbit_cache_size, 128u);
  EXPECT_EQ(cfg.seed, 42u);
}

TEST(NumericAxis, LabelsUseShortestForm) {
  const ParamAxis axis = NumericAxis("x", {0.25, 16, 1416}, nullptr);
  EXPECT_EQ(axis.params[0].label, "0.25");
  EXPECT_EQ(axis.params[1].label, "16");
  EXPECT_EQ(axis.params[2].label, "1416");
}

TEST(GridSize, ProductOfAxes) {
  EXPECT_EQ(TwoAxisSpec().GridSize(), 4u);
  ExperimentSpec empty;
  EXPECT_EQ(empty.GridSize(), 1u);  // one point, no axes
}

}  // namespace
}  // namespace orbit::harness
