// The experiments promise the paper's §5.1 methodology; pin the shared
// configuration to the paper's constants so a drive-by edit can't
// silently change what the benches measure. run_all selects its scale
// through harness::ParseCli, its experiments through
// harness::SelectExperiments, and builds each point's testbed with
// harness::ExpandGrid from the spec's base (the TestbedConfig defaults
// unless the spec overrides them), so all three are pinned here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/experiments.h"
#include "harness/cli.h"
#include "harness/spec.h"

namespace orbit::harness {
namespace {

// The testbed run_all builds for an experiment that keeps the default base.
testbed::TestbedConfig DefaultBaseConfig(Scale scale) {
  return ExpandGrid(ExperimentSpec{}, scale, 42).at(0).config;
}

TEST(PaperConfig, MatchesSection51) {
  const testbed::TestbedConfig cfg = DefaultBaseConfig(Scale::kFull);
  EXPECT_EQ(cfg.topo.num_clients, 4);              // 4 client nodes
  EXPECT_EQ(cfg.topo.num_servers, 32);             // 4 nodes x 8 emulated servers
  EXPECT_DOUBLE_EQ(cfg.topo.server_rate_rps, 100'000);  // Rx limit per server
  EXPECT_EQ(cfg.workload.num_keys, 10'000'000u);       // 10M key-value pairs
  EXPECT_DOUBLE_EQ(cfg.workload.zipf_theta, 0.99);     // typical skewness
  EXPECT_EQ(cfg.workload.key_size, 16u);               // 16B keys "for simplicity"
  EXPECT_EQ(cfg.cache.orbit_cache_size, 128u);      // near-optimal cache size
  EXPECT_EQ(cfg.cache.netcache_size, 10'000u);      // 10K hottest preloaded
  // 82% 64B / 18% 1024B bimodal values (Cluster018-derived).
  EXPECT_TRUE(cfg.workload.value_dist.bimodal());
  EXPECT_EQ(cfg.workload.value_dist.small_size(), 64u);
  EXPECT_EQ(cfg.workload.value_dist.large_size(), 1024u);
  EXPECT_DOUBLE_EQ(cfg.workload.value_dist.p_small(), 0.82);
}

TEST(PaperConfig, QuickModeOnlyShrinksScale) {
  const testbed::TestbedConfig f = DefaultBaseConfig(Scale::kFull);
  for (const Scale scale : {Scale::kQuick, Scale::kDefault}) {
    const testbed::TestbedConfig q = DefaultBaseConfig(scale);
    // Smaller scales may shrink the key space and windows but must not
    // alter the comparison-relevant knobs.
    EXPECT_LT(q.workload.num_keys, f.workload.num_keys);
    EXPECT_LE(q.duration, f.duration);
    EXPECT_EQ(q.topo.num_servers, f.topo.num_servers);
    EXPECT_EQ(q.cache.orbit_cache_size, f.cache.orbit_cache_size);
    EXPECT_EQ(q.cache.netcache_size, f.cache.netcache_size);
    EXPECT_DOUBLE_EQ(q.workload.zipf_theta, f.workload.zipf_theta);
    EXPECT_EQ(q.seed, f.seed);
  }
}

TEST(ParseCli, RecognizesFullFlag) {
  const char* argv1[] = {"bench"};
  EXPECT_EQ(ParseCli(1, const_cast<char**>(argv1)).runner.scale,
            Scale::kDefault);
  const char* argv2[] = {"bench", "--full"};
  EXPECT_EQ(ParseCli(2, const_cast<char**>(argv2)).runner.scale,
            Scale::kFull);
}

TEST(ParseCli, RecognizesQuickFlag) {
  const char* argv[] = {"bench", "--quick"};
  const CliOptions opts = ParseCli(2, const_cast<char**>(argv));
  EXPECT_TRUE(opts.ok());
  EXPECT_EQ(opts.runner.scale, Scale::kQuick);
}

std::vector<std::string> Selected(const std::vector<std::string>& filters) {
  std::vector<std::string> names;
  for (const auto& spec :
       SelectExperiments(benchexp::AllExperiments(), filters))
    names.push_back(spec.name);
  return names;
}

// `run_all NAME` runs exactly the experiment called NAME even when NAME is
// a substring of another experiment's name; any other filter still
// selects by substring, and the selection keeps registration order.
TEST(SelectExperiments, ExactNameElseSubstring) {
  using Names = std::vector<std::string>;
  EXPECT_EQ(Selected({"fig_fabric"}), Names{"fig_fabric"});
  EXPECT_EQ(Selected({"fig_fabric_failover"}), Names{"fig_fabric_failover"});
  EXPECT_EQ(Selected({"fig17"}),
            (Names{"fig17_item_size", "fig17_effective_size"}));
  EXPECT_EQ(Selected({"ablation"}),
            (Names{"ablation_cloning", "ablation_queue_depth",
                   "ablation_write_policy", "ablation_recirc_bw"}));
  EXPECT_EQ(Selected({"fig_fabric", "fig09"}),
            (Names{"fig09_skewness", "fig_fabric"}));
  EXPECT_TRUE(Selected({"no_such_experiment"}).empty());
  EXPECT_EQ(Selected({}).size(), benchexp::AllExperiments().size());
}

// The three scales are ordered; full is the §5.1 paper scale; the
// testbed takes its scale only from the single ScaleProfile source of
// truth.
TEST(ScaleProfile, OrderedAndDelegated) {
  const ScaleProfile q = PaperScaleProfile(Scale::kQuick);
  const ScaleProfile d = PaperScaleProfile(Scale::kDefault);
  const ScaleProfile f = PaperScaleProfile(Scale::kFull);
  EXPECT_LT(q.num_keys, d.num_keys);
  EXPECT_LT(d.num_keys, f.num_keys);
  EXPECT_LT(q.duration, d.duration);
  EXPECT_LT(d.duration, f.duration);
  EXPECT_EQ(f.num_keys, 10'000'000u);

  EXPECT_EQ(DefaultBaseConfig(Scale::kFull).workload.num_keys, f.num_keys);
  EXPECT_EQ(DefaultBaseConfig(Scale::kFull).duration, f.duration);
  EXPECT_EQ(DefaultBaseConfig(Scale::kDefault).workload.num_keys, d.num_keys);
}

}  // namespace
}  // namespace orbit::harness
