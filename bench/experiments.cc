#include "bench/experiments.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "proto/message.h"
#include "testbed/serialize.h"
#include "workload/twitter.h"
#include "workload/value_dist.h"
#include "workload/ycsb.h"

namespace orbit::benchexp {

using harness::ExperimentSpec;
using harness::JsonValue;
using harness::MetricsRecord;
using harness::NumericAxis;
using harness::ParamAxis;
using harness::SchemeAxis;

namespace {

// First record whose params contain every (name, label) pair given.
const MetricsRecord* FindRecord(
    const std::vector<MetricsRecord>& records,
    std::initializer_list<std::pair<const char*, const char*>> match) {
  for (const auto& r : records) {
    bool all = true;
    for (const auto& [name, label] : match) {
      bool found = false;
      for (const auto& [n, l] : r.params)
        if (n == name && l == label) {
          found = true;
          break;
        }
      if (!found) {
        all = false;
        break;
      }
    }
    if (all && r.ok()) return &r;
  }
  return nullptr;
}

// The label a record carries for axis `name` ("" when it has none).
std::string Param(const MetricsRecord& r, const char* name) {
  for (const auto& [k, v] : r.params)
    if (k == name) return v;
  return std::string();
}

// Windows and bins of the fault-timeline experiments (fig_failures,
// fig_fabric_failover). Warmup is 0: the full timeline is the result.
void FaultTimelineScale(testbed::TestbedConfig& cfg, harness::Scale scale) {
  cfg.warmup = 0;
  switch (scale) {
    case harness::Scale::kFull:
      cfg.duration = 3 * kSecond;
      cfg.timeline_bin = 50 * kMillisecond;
      break;
    case harness::Scale::kDefault:
      cfg.duration = 900 * kMillisecond;
      cfg.timeline_bin = 20 * kMillisecond;
      break;
    case harness::Scale::kQuick:
      cfg.duration = 300 * kMillisecond;
      cfg.timeline_bin = 10 * kMillisecond;
      break;
  }
}

const std::vector<testbed::Scheme> kAllSchemes = {
    testbed::Scheme::kNoCache, testbed::Scheme::kNetCache,
    testbed::Scheme::kOrbitCache};

// Runs one faulted point and adds the recovery analysis of its throughput
// timeline. Baseline = mean of the pre-fault bins (skipping bin 0's cold
// start); collapse_frac = the deepest post-fault dip below it; recovered =
// two consecutive bins back at ≥ `recovered_frac` of baseline.
JsonValue RunWithRecoveryAnalysis(const testbed::TestbedConfig& config,
                                  double recovered_frac) {
  const testbed::TestbedResult res = testbed::RunTestbed(config);
  JsonValue metrics = testbed::ResultMetrics(res);
  metrics.Set("window_s", static_cast<double>(config.duration) / kSecond);
  metrics.Set("timeline_bin_s",
              static_cast<double>(config.timeline_bin) / kSecond);

  const SimTime bin = config.timeline_bin;
  const SimTime fault_at = config.fault.events.front().at;
  const size_t fault_bin = static_cast<size_t>(fault_at / bin);
  const auto& tl = res.throughput_timeline;
  double baseline = 0;
  size_t n_base = 0;
  for (size_t i = 1; i < fault_bin && i < tl.size(); ++i) {
    baseline += tl[i];
    ++n_base;
  }
  if (n_base > 0) baseline /= static_cast<double>(n_base);
  double min_tput = baseline;
  for (size_t i = fault_bin; i < tl.size(); ++i)
    min_tput = std::min(min_tput, tl[i]);
  double recovery_ms = -1;  // -1 = did not recover inside the window
  for (size_t i = fault_bin; i + 1 < tl.size(); ++i) {
    if (tl[i] >= recovered_frac * baseline &&
        tl[i + 1] >= recovered_frac * baseline) {
      recovery_ms =
          static_cast<double>(static_cast<SimTime>(i + 1) * bin - fault_at) /
          kMillisecond;
      break;
    }
  }
  metrics.Set("fault_at_ms", static_cast<double>(fault_at) / kMillisecond);
  metrics.Set("baseline_mrps", baseline / 1e6);
  metrics.Set("collapse_frac", baseline > 0 ? 1.0 - min_tput / baseline : 0.0);
  metrics.Set("recovery_ms", recovery_ms);
  return metrics;
}

}  // namespace

// §2.1 motivation analysis: how many items of 54 Twitter-like workloads
// could NetCache-class systems cache (16B keys / 128B values), vs
// OrbitCache's single-packet limit? Paper: 3.7% of workloads have >80% of
// keys ≤ 16B, 38.9% have >80% of values ≤ 128B, 85% have <10% cacheable
// items (77.8% essentially none), only 2 exceed 50% cacheable.
ExperimentSpec MotivationCacheability() {
  ExperimentSpec spec;
  spec.name = "motivation_cacheability";
  spec.title = "§2.1 — cacheability of 54 Twitter-like workloads";
  spec.apply_paper_scale = false;
  spec.run = [](const harness::PointRun&, harness::SaturationCache&) {
    const auto workloads = wl::MotivationWorkloads();
    const int kSamples = 20000;
    const wl::CacheabilityLimits netcache_limits;  // 16B keys, 128B values
    const wl::CacheabilityLimits key_only{16, UINT32_MAX, 0};
    const wl::CacheabilityLimits value_only{UINT32_MAX, 128, 0};
    const wl::CacheabilityLimits orbit_limits{UINT32_MAX, UINT32_MAX,
                                              proto::kMaxPayloadBytes};
    int small_keys = 0, small_values = 0, none = 0, under10 = 0, over50 = 0;
    double netcache_sum = 0, orbit_sum = 0;
    for (const auto& w : workloads) {
      const double kf = wl::CacheableFraction(w, key_only, kSamples, 1);
      const double vf = wl::CacheableFraction(w, value_only, kSamples, 2);
      const double nc = wl::CacheableFraction(w, netcache_limits, kSamples, 3);
      const double oc = wl::CacheableFraction(w, orbit_limits, kSamples, 4);
      if (kf > 0.8) ++small_keys;
      if (vf > 0.8) ++small_values;
      if (nc < 1e-4) ++none;
      if (nc < 0.10) ++under10;
      if (nc > 0.50) ++over50;
      netcache_sum += nc;
      orbit_sum += oc;
    }
    const double n = static_cast<double>(workloads.size());
    JsonValue m = JsonValue::MakeObject();
    m.Set("workloads", static_cast<int64_t>(workloads.size()));
    m.Set("pct_small_keys", 100.0 * small_keys / n);
    m.Set("pct_small_values", 100.0 * small_values / n);
    m.Set("pct_under10_cacheable", 100.0 * under10 / n);
    m.Set("pct_zero_cacheable", 100.0 * none / n);
    m.Set("n_over50_cacheable", over50);
    m.Set("mean_netcacheable_pct", 100.0 * netcache_sum / n);
    m.Set("mean_orbit_cacheable_pct", 100.0 * orbit_sum / n);
    return m;
  };
  spec.table_metrics = {"workloads",
                        "pct_small_keys",
                        "pct_small_values",
                        "pct_under10_cacheable",
                        "pct_zero_cacheable",
                        "n_over50_cacheable",
                        "mean_orbit_cacheable_pct"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    if (rs.empty() || !rs[0].ok()) return;
    std::printf("paper: 3.7%% / 38.9%% / 85%% / 77.8%% / 2 workloads; "
                "measured above.\n");
  };
  return spec;
}

// Figure 9: throughput with different key access distributions. Paper:
// OrbitCache sustains high throughput regardless of skew; at zipf-0.99 it
// beats NoCache by ~3.6x and NetCache by ~2x.
ExperimentSpec Fig09Skewness() {
  ExperimentSpec spec;
  spec.name = "fig09_skewness";
  spec.title = "Fig. 9 — saturated throughput (MRPS) vs key skewness";
  spec.axes = {SchemeAxis(kAllSchemes),
               NumericAxis("zipf_theta", {0.0, 0.90, 0.95, 0.99},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.zipf_theta = v;
                           })};
  spec.table_metrics = {"rx_mrps", "balancing_efficiency"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    const MetricsRecord* orbit =
        FindRecord(rs, {{"scheme", "OrbitCache"}, {"zipf_theta", "0.99"}});
    const MetricsRecord* nocache =
        FindRecord(rs, {{"scheme", "NoCache"}, {"zipf_theta", "0.99"}});
    const MetricsRecord* netcache =
        FindRecord(rs, {{"scheme", "NetCache"}, {"zipf_theta", "0.99"}});
    if (orbit == nullptr || nocache == nullptr || netcache == nullptr) return;
    std::printf("zipf-0.99 speedup: OrbitCache/NoCache = %.2fx (paper: "
                "3.59x), OrbitCache/NetCache = %.2fx (paper: 1.95x)\n",
                orbit->Metric("rx_mrps") / nocache->Metric("rx_mrps"),
                orbit->Metric("rx_mrps") / netcache->Metric("rx_mrps"));
  };
  return spec;
}

// Figure 10: load on individual storage servers (zipf-0.99, 32 servers).
// Paper: baselines leave hot-partition servers overloaded; OrbitCache's
// per-server loads are nearly flat.
ExperimentSpec Fig10ServerLoads() {
  ExperimentSpec spec;
  spec.name = "fig10_server_loads";
  spec.title = "Fig. 10 — per-server load (KRPS) at saturation, zipf-0.99";
  spec.axes = {SchemeAxis(kAllSchemes)};
  spec.include_server_loads = true;
  spec.table_metrics = {"rx_mrps", "balancing_efficiency"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    for (const auto& r : rs) {
      if (!r.ok()) continue;
      const JsonValue* loads = r.metrics.Find("server_loads");
      const double secs = r.Metric("window_s");
      if (loads == nullptr || !(secs > 0)) continue;
      std::printf("%-12s", r.params.empty() ? "?" : r.params[0].second.c_str());
      for (size_t i = 0; i < loads->array().size(); ++i) {
        if (i % 8 == 0 && i > 0) std::printf("\n%-12s", "");
        std::printf(" %6.1f", loads->array()[i].AsDouble() / secs / 1e3);
      }
      std::printf("\n%-12s min=%.1fK max=%.1fK balancing-efficiency=%.2f\n",
                  "", r.Metric("server_load_min") / secs / 1e3,
                  r.Metric("server_load_max") / secs / 1e3,
                  r.Metric("balancing_efficiency"));
    }
  };
  return spec;
}

// Figure 11: median and 99th-percentile read latency vs Rx throughput.
// Paper: OrbitCache reaches the highest throughput before its latency
// knee; its median sits ~1us above NetCache but far below the saturating
// baselines.
ExperimentSpec Fig11LatencyThroughput() {
  ExperimentSpec spec;
  spec.name = "fig11_latency_throughput";
  spec.title = "Fig. 11 — read latency vs Rx throughput";
  spec.axes = {SchemeAxis(kAllSchemes),
               NumericAxis("load_fraction",
                           {0.2, 0.4, 0.6, 0.8, 0.95, 1.05}, nullptr)};
  spec.run = harness::FractionOfSaturationRun("load_fraction");
  spec.table_metrics = {"rx_mrps", "read_p50_us", "read_p99_us", "loss"};
  return spec;
}

// Figure 12: throughput vs write ratio. Paper: OrbitCache's gain shrinks
// as writes grow and converges to NoCache at 100% writes.
ExperimentSpec Fig12WriteRatio() {
  ExperimentSpec spec;
  spec.name = "fig12_write_ratio";
  spec.title =
      "Fig. 12 — saturated throughput (MRPS) vs write ratio, zipf-0.99";
  spec.axes = {SchemeAxis(kAllSchemes),
               NumericAxis("write_ratio", {0.0, 0.1, 0.25, 0.5, 0.75, 1.0},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.write_ratio = v;
                           })};
  spec.table_metrics = {"rx_mrps"};
  return spec;
}

// Figure 13: scalability with the number of storage servers (50K RPS per
// server so the servers stay the bottleneck even at 64). Paper: OrbitCache
// grows almost linearly; baselines are pinned by their hottest partitions.
ExperimentSpec Fig13Scalability() {
  ExperimentSpec spec;
  spec.name = "fig13_scalability";
  spec.title = "Fig. 13 — scalability (zipf-0.99, 50K RPS/server)";
  spec.base.topo.server_rate_rps = 50'000;
  spec.axes = {SchemeAxis(kAllSchemes),
               NumericAxis("num_servers", {8, 16, 32, 64},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.topo.num_servers = static_cast<int>(v);
                           })};
  spec.table_metrics = {"rx_mrps", "balancing_efficiency"};
  return spec;
}

// Figure 14: production (Twitter-like) workloads A-E. Paper: OrbitCache is
// best on all five; the gap is smallest on A (95% cacheable, higher write
// ratio) and largest on E (1% cacheable).
ExperimentSpec Fig14Production() {
  ExperimentSpec spec;
  spec.name = "fig14_production";
  spec.title = "Fig. 14 — saturated throughput (MRPS) on production workloads";
  ParamAxis workloads;
  workloads.name = "workload";
  const auto& profiles = wl::Fig14Profiles();  // static storage
  for (size_t i = 0; i < profiles.size(); ++i) {
    const wl::TwitterProfile* p = &profiles[i];
    workloads.params.push_back(
        {p->id, static_cast<double>(i),
         [p](testbed::TestbedConfig& cfg) { cfg.workload.twitter = p; }});
  }
  spec.axes = {SchemeAxis(kAllSchemes), std::move(workloads)};
  spec.table_metrics = {"rx_mrps"};
  return spec;
}

// Figure 15: latency breakdown — switch-served vs server-served requests
// as throughput rises. Paper: OrbitCache's switch-handled median sits
// slightly above NetCache's and its switch tail grows with load yet stays
// in the tens of microseconds while server tails blow up at saturation.
ExperimentSpec Fig15LatencyBreakdown() {
  ExperimentSpec spec;
  spec.name = "fig15_latency_breakdown";
  spec.title = "Fig. 15 — latency breakdown (us) vs throughput";
  spec.axes = {SchemeAxis({testbed::Scheme::kNetCache,
                           testbed::Scheme::kOrbitCache}),
               NumericAxis("load_fraction", {0.25, 0.5, 0.75, 1.0}, nullptr)};
  spec.run = harness::FractionOfSaturationRun("load_fraction");
  spec.table_metrics = {"rx_mrps",
                        "read_cached.p50_us",
                        "read_cached.p99_us",
                        "read_server.p50_us",
                        "read_server.p99_us",
                        "switch_resident.p99_us"};
  return spec;
}

// Figure 16: impact of the OrbitCache cache size. Paper: throughput
// saturates around 128 items, the switch tail climbs past 64-128, and the
// overflow ratio takes off from 256 as the longer recirculation ring slows
// each packet's orbit.
ExperimentSpec Fig16CacheSize() {
  ExperimentSpec spec;
  spec.name = "fig16_cache_size";
  spec.title = "Fig. 16 — impact of cache size (OrbitCache)";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.base.cache.orbit_capacity = 1024;
  spec.axes = {NumericAxis("entries", {8, 16, 32, 64, 128, 256, 512, 1024},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.cache.orbit_cache_size = static_cast<size_t>(v);
                           })};
  spec.table_metrics = {"rx_mrps",           "cache_mrps",
                        "server_mrps",       "read_cached.p50_us",
                        "read_cached.p99_us", "overflow_ratio"};
  return spec;
}

// Figure 17 (a,b): impact of item size with 100% fixed-size values — the
// worst case for OrbitCache. Paper: only a mild throughput drop even for
// MTU-sized items, and balancing efficiency stays high.
ExperimentSpec Fig17ItemSize() {
  ExperimentSpec spec;
  spec.name = "fig17_item_size";
  spec.title = "Fig. 17(a,b) — impact of item size (OrbitCache, 128 entries)";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.axes = {NumericAxis("value_size", {64, 128, 256, 512, 1024, 1416},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.value_dist =
                                 wl::ValueDist::Fixed(static_cast<uint32_t>(v));
                           })};
  spec.table_metrics = {"rx_mrps", "balancing_efficiency"};
  return spec;
}

// Figure 17 (c): the effective cache size — the entry count with the best
// throughput — shrinks as values grow, because larger cache packets
// stretch the orbit.
ExperimentSpec Fig17EffectiveSize() {
  ExperimentSpec spec;
  spec.name = "fig17_effective_size";
  spec.title = "Fig. 17(c) — effective cache size vs item size";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  // Sweep points use a shorter window and a looser saturation search; the
  // panel only needs the argmax.
  spec.scale_fn = [](testbed::TestbedConfig& cfg, harness::Scale) {
    cfg.duration = cfg.duration / 2;
  };
  spec.loss_tolerance = 0.05;
  spec.max_corrections = 1;
  spec.axes = {NumericAxis("value_size", {64, 128, 256, 512, 1024, 1416},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.value_dist =
                                 wl::ValueDist::Fixed(static_cast<uint32_t>(v));
                           }),
               NumericAxis("entries", {16, 32, 64, 128, 256},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.cache.orbit_cache_size = static_cast<size_t>(v);
                           })};
  spec.table_metrics = {"rx_mrps"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    // label → (best entries label, best rx), in first-seen order.
    std::vector<std::pair<std::string, std::pair<std::string, double>>> best;
    for (const auto& r : rs) {
      if (!r.ok() || r.params.size() < 2) continue;
      const std::string& value = r.params[0].second;
      const std::string& entries = r.params[1].second;
      const double rx = r.Metric("rx_mrps");
      auto it = std::find_if(best.begin(), best.end(),
                             [&](const auto& e) { return e.first == value; });
      if (it == best.end())
        best.push_back({value, {entries, rx}});
      else if (rx > it->second.second)
        it->second = {entries, rx};
    }
    std::printf("best-throughput entry count per value size:\n");
    for (const auto& [value, e] : best)
      std::printf("  %6sB -> %4s entries (%.2f MRPS)\n", value.c_str(),
                  e.first.c_str(), e.second);
  };
  return spec;
}

// Figure 18: dynamic workloads — the "hot-in" pattern swaps the popularity
// of the hottest and coldest items periodically, instantly staling the
// whole cache. Paper: throughput dips at each swap and recovers within a
// few seconds as the controller installs the new hot set; the
// overflow-request ratio spikes at the swap and settles after fetches
// complete. The paper runs 60s/10s swaps on 4 servers; smaller scales
// compress the timeline (the dip-and-recover dynamics are unchanged). We
// keep a finite per-server capacity (the paper's real CPUs have one too)
// so the post-swap miss traffic can actually overload the hot partition.
ExperimentSpec Fig18Dynamic() {
  ExperimentSpec spec;
  spec.name = "fig18_dynamic";
  spec.title = "Fig. 18 — hot-in dynamic workload (OrbitCache)";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.base.topo.num_clients = 4;
  spec.base.topo.num_servers = 4;
  spec.base.topo.server_rate_rps = 100'000;
  spec.base.topo.client_rate_rps = 450'000;
  spec.base.workload.hot_in = true;
  spec.base.workload.hot_in_count = 128;
  spec.base.control.run_cache_updates = true;  // the experiment is about updates
  spec.base.control.update_period = 500 * kMillisecond;
  spec.scale_fn = [](testbed::TestbedConfig& cfg, harness::Scale scale) {
    cfg.warmup = 0;  // the full timeline is the result
    switch (scale) {
      case harness::Scale::kFull:
        cfg.workload.hot_in_period = 10 * kSecond;
        cfg.duration = 60 * kSecond;
        cfg.timeline_bin = kSecond;
        break;
      case harness::Scale::kDefault:
        cfg.workload.hot_in_period = 2 * kSecond;
        cfg.duration = 12 * kSecond;
        cfg.timeline_bin = 200 * kMillisecond;
        break;
      case harness::Scale::kQuick:
        cfg.workload.hot_in_period = kSecond;
        cfg.duration = 6 * kSecond;
        cfg.timeline_bin = 200 * kMillisecond;
        break;
    }
  };
  spec.run = harness::FixedLoadRun();
  spec.table_metrics = {"rx_mrps", "overflow_ratio", "collisions",
                        "stale_reads"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    if (rs.empty() || !rs[0].ok()) return;
    const JsonValue* tput = rs[0].metrics.Find("throughput_timeline_rps");
    const JsonValue* ovf = rs[0].metrics.Find("overflow_ratio_timeline");
    const double bin = rs[0].Metric("timeline_bin_s");
    if (tput == nullptr || ovf == nullptr || !(bin > 0)) return;
    std::printf("%8s %12s %12s\n", "t(s)", "rx(KRPS)", "overflow");
    const size_t n = std::min(tput->array().size(), ovf->array().size());
    for (size_t i = 0; i < n; ++i)
      std::printf("%8.1f %12.1f %11.2f%%\n", static_cast<double>(i) * bin,
                  tput->array()[i].AsDouble() / 1e3,
                  100.0 * ovf->array()[i].AsDouble());
  };
  return spec;
}

// Ablation 1 — PRE cloning vs the §3.5 refetch strawman (serve one
// request, then refetch the cache packet from the server): cloning is what
// lets one fetch serve arbitrarily many requests.
ExperimentSpec AblationCloning() {
  ExperimentSpec spec;
  spec.name = "ablation_cloning";
  spec.title = "Ablation — PRE cloning vs refetch strawman";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.base.control.run_cache_updates = true;  // the refetch path runs via the CPU
  ParamAxis variant;
  variant.name = "variant";
  variant.params = {
      {"PRE-cloning", 0,
       [](testbed::TestbedConfig& cfg) { cfg.cache.enable_cloning = true; }},
      {"refetch-strawman", 1,
       [](testbed::TestbedConfig& cfg) { cfg.cache.enable_cloning = false; }}};
  spec.axes = {std::move(variant)};
  spec.table_metrics = {"rx_mrps", "cache_mrps", "overflow_ratio"};
  return spec;
}

// Ablation 2 — request-table queue depth S: deeper queues absorb bursts
// for hot keys; shallow queues overflow to the servers.
ExperimentSpec AblationQueueDepth() {
  ExperimentSpec spec;
  spec.name = "ablation_queue_depth";
  spec.title = "Ablation — request-table queue depth S";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.axes = {NumericAxis("queue_depth", {1, 2, 4, 8, 16},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.cache.orbit_queue_size = static_cast<size_t>(v);
                           })};
  spec.table_metrics = {"rx_mrps", "overflow_ratio", "read_cached.p99_us"};
  return spec;
}

// Ablation — write-through vs write-back (§3.10) across write ratios.
// Write-back holds most of the read-only gain regardless of write ratio.
ExperimentSpec AblationWritePolicy() {
  ExperimentSpec spec;
  spec.name = "ablation_write_policy";
  spec.title = "Ablation — write-through vs write-back (§3.10)";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  ParamAxis policy;
  policy.name = "policy";
  policy.params = {
      {"write-through", 0,
       [](testbed::TestbedConfig& cfg) { cfg.cache.write_back = false; }},
      {"write-back", 1,
       [](testbed::TestbedConfig& cfg) { cfg.cache.write_back = true; }}};
  spec.axes = {std::move(policy),
               NumericAxis("write_ratio", {0.10, 0.25, 0.50, 1.00},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.write_ratio = v;
                           })};
  spec.table_metrics = {"rx_mrps"};
  return spec;
}

// Ablation 3 — recirculation-port bandwidth: the single recirc port sets
// the orbit period and thus the wait time and request-table pressure.
ExperimentSpec AblationRecircBandwidth() {
  ExperimentSpec spec;
  spec.name = "ablation_recirc_bw";
  spec.title = "Ablation — recirculation-port bandwidth";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.axes = {NumericAxis("recirc_gbps", {10, 25, 50, 100},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.topo.asic.recirc_rate_gbps = v;
                           })};
  spec.table_metrics = {"rx_mrps", "overflow_ratio", "read_cached.p99_us"};
  return spec;
}

// §2.2 design rationale: the strawman the paper argues against reads large
// values by recirculating the *request* once per 64B slice, so the single
// internal port caps cache-hit throughput; OrbitCache pays one pass per
// serve and keeps a constant packet ring. A tiny all-hot key space makes
// the switch itself the bottleneck.
ExperimentSpec RationaleRequestRecirc() {
  ExperimentSpec spec;
  spec.name = "rationale_request_recirc";
  spec.title =
      "§2.2 rationale — request recirculation vs circulating cache packets";
  spec.apply_paper_scale = false;
  spec.base.topo.num_clients = 4;
  spec.base.topo.num_servers = 8;
  spec.base.topo.server_rate_rps = 100'000;
  spec.base.topo.client_rate_rps = 12'000'000;  // drive the switch, not servers
  spec.base.workload.num_keys = 32;                 // everything cacheable and cached
  spec.base.workload.zipf_theta = 0.0;              // spread load across all hot keys
  spec.base.cache.orbit_cache_size = 32;
  spec.base.cache.netcache_size = 32;
  spec.base.warmup = 30 * kMillisecond;
  spec.base.duration = 100 * kMillisecond;
  spec.scale_fn = [](testbed::TestbedConfig& cfg, harness::Scale scale) {
    if (scale == harness::Scale::kQuick) {
      cfg.warmup = 10 * kMillisecond;
      cfg.duration = 40 * kMillisecond;
    }
  };
  ParamAxis variant;
  variant.name = "variant";
  variant.params = {
      {"request-recirc", 0,
       [](testbed::TestbedConfig& cfg) {
         cfg.scheme = testbed::Scheme::kNetCache;
         cfg.cache.netcache_recirc_read = true;
       }},
      {"OrbitCache", 1,
       [](testbed::TestbedConfig& cfg) {
         cfg.scheme = testbed::Scheme::kOrbitCache;
       }}};
  spec.axes = {NumericAxis("value_size", {64, 256, 1024},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.value_dist =
                                 wl::ValueDist::Fixed(static_cast<uint32_t>(v));
                           }),
               std::move(variant)};
  spec.run = harness::FixedLoadRun();
  spec.table_metrics = {"rx_mrps", "read_cached.p50_us",
                        "read_cached.p99_us"};
  spec.epilogue = [](const std::vector<MetricsRecord>&) {
    std::printf("request-recirc pays ceil(len/64)-1 recirculation passes per "
                "hit, so latency and recirc-port load grow with value size "
                "and offered load; OrbitCache's ring is constant.\n");
  };
  return spec;
}

// Extra: impact of key size (the figure §5.3 omits). One byte past the 16B
// match-key width and NetCache cannot install a single entry; OrbitCache
// matches on the key's hash and carries the key in the packet.
ExperimentSpec ExtraKeySize() {
  ExperimentSpec spec;
  spec.name = "extra_key_size";
  spec.title = "Extra — impact of key size (64B values)";
  spec.base.workload.value_dist = wl::ValueDist::Fixed(64);
  spec.axes = {NumericAxis("key_size", {16, 32, 64, 128},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.workload.key_size = static_cast<uint32_t>(v);
                           }),
               SchemeAxis({testbed::Scheme::kOrbitCache,
                           testbed::Scheme::kNetCache})};
  spec.table_metrics = {"rx_mrps", "cache_entries"};
  spec.epilogue = [](const std::vector<MetricsRecord>&) {
    std::printf("NetCache entry count collapses to 0 beyond 16B keys: the "
                "match-key width is burned into the ASIC.\n");
  };
  return spec;
}

// Extra: the three schemes on the classic YCSB core mixes — the workload
// shapes practitioners actually quote.
ExperimentSpec YcsbSuite() {
  ExperimentSpec spec;
  spec.name = "ycsb_suite";
  spec.title = "YCSB core mixes — saturated throughput (MRPS)";
  ParamAxis mixes;
  mixes.name = "mix";
  const auto& profiles = wl::YcsbCoreWorkloads();  // static storage
  for (size_t i = 0; i < profiles.size(); ++i) {
    const wl::YcsbProfile* p = &profiles[i];
    mixes.params.push_back({p->id, static_cast<double>(i),
                            [p](testbed::TestbedConfig& cfg) {
                              cfg.workload.zipf_theta = p->zipf_theta;
                              cfg.workload.write_ratio = p->write_ratio;
                            }});
  }
  spec.axes = {SchemeAxis(kAllSchemes), std::move(mixes)};
  spec.table_metrics = {"rx_mrps"};
  spec.epilogue = [](const std::vector<MetricsRecord>&) {
    std::printf("(D and F are left out: the open-loop model would run them "
                "as B and A; see src/workload/ycsb.h)\n");
  };
  return spec;
}

ExperimentSpec FigFailures() {
  ExperimentSpec spec;
  spec.name = "fig_failures";
  spec.title = "Failures — collapse and recovery under injected faults (§3.9)";
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.base.topo.num_clients = 4;
  spec.base.topo.num_servers = 4;
  spec.base.topo.server_rate_rps = 100'000;
  // Above aggregate server capacity: the workload is only sustainable
  // while the cache absorbs the hot keys, so losing the cache (switch
  // reset) or a server (crash) collapses delivered throughput until the
  // controller rebuilds / the server returns.
  spec.base.topo.client_rate_rps = 450'000;
  spec.base.client.max_retries = 3;
  spec.base.client.request_timeout = 5 * kMillisecond;
  spec.scale_fn = FaultTimelineScale;
  // Builders run after scaling, so fault times track the scaled window:
  // the fault lands a third of the way in, leaving a pre-fault baseline
  // and room to observe recovery.
  spec.axes = {harness::FaultAxis(
      {{"switch-reset",
        [](testbed::TestbedConfig& cfg) {
          cfg.fault = fault::SwitchResetAt(cfg.duration / 3,
                                           /*rebuild_delay=*/cfg.duration / 20);
        }},
       {"server-crash", [](testbed::TestbedConfig& cfg) {
          cfg.fault = fault::ServerCrashAt(/*server=*/0, cfg.duration / 3,
                                           /*restart_at=*/2 * cfg.duration / 3);
        }}})};
  spec.run = [](const harness::PointRun& p, harness::SaturationCache&) {
    return RunWithRecoveryAnalysis(p.config, /*recovered_frac=*/0.9);
  };
  spec.table_metrics = {"rx_mrps", "collapse_frac", "recovery_ms",
                        "retransmissions", "timeouts", "faults_injected"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    for (const auto& r : rs) {
      if (!r.ok()) continue;
      const JsonValue* tl = r.metrics.Find("throughput_timeline_rps");
      const double bin_s = r.Metric("timeline_bin_s");
      if (tl == nullptr || !(bin_s > 0)) continue;
      const std::string recovery =
          r.Metric("recovery_ms") < 0
              ? "none"
              : std::to_string(static_cast<int>(r.Metric("recovery_ms"))) +
                    "ms";
      std::printf("  %s: fault at %.0fms, collapse %.0f%%, recovery %s\n",
                  r.params.empty() ? "?" : r.params[0].second.c_str(),
                  r.Metric("fault_at_ms"), 100 * r.Metric("collapse_frac"),
                  recovery.c_str());
      std::printf("  %8s %12s\n", "t(ms)", "rx(KRPS)");
      for (size_t i = 0; i < tl->array().size(); ++i)
        std::printf("  %8.0f %12.1f\n",
                    static_cast<double>(i) * bin_s * 1e3,
                    tl->array()[i].AsDouble() / 1e3);
    }
  };
  return spec;
}

ExperimentSpec FigFabric() {
  ExperimentSpec spec;
  spec.name = "fig_fabric";
  spec.title = "Fabric — scale-out throughput vs rack count and skew (§3.9)";
  // Per-rack building block: 8 storage servers behind one leaf, 2 clients,
  // and a one-rack offered load just above the rack's aggregate server
  // capacity (8 × 100K). FabricRackAxis grows servers, clients, and the
  // offered load proportionally, so every rack count starts its saturation
  // search from the same per-rack operating point.
  spec.base.topo.num_servers = 8;
  spec.base.topo.num_clients = 2;
  spec.base.topo.server_rate_rps = 100'000;
  spec.base.topo.client_rate_rps = 1'000'000;
  spec.base.cache.orbit_cache_size = 128;  // per leaf
  spec.axes = {SchemeAxis({testbed::Scheme::kNoCache,
                           testbed::Scheme::kOrbitCache}),
               harness::FabricRackAxis({2, 4, 8}, /*servers_per_rack=*/8,
                                       /*clients_per_rack=*/2),
               harness::NumericAxis("zipf_theta", {0.9, 0.99},
                                    [](testbed::TestbedConfig& cfg, double v) {
                                      cfg.workload.zipf_theta = v;
                                    })};
  spec.table_metrics = {"sat_tx_mrps", "rx_mrps", "read_p99_us",
                        "balancing_efficiency"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    // Scaling factor per (scheme, theta): throughput at the largest rack
    // count over the smallest. Near-linear scaling means the per-leaf
    // caches keep absorbing each rack's hot keys as the fabric grows.
    struct Group {
      std::string scheme, theta;
      double min_racks = 0, max_racks = 0, min_rx = 0, max_rx = 0;
    };
    std::vector<Group> groups;
    for (const auto& r : rs) {
      if (!r.ok()) continue;
      const std::string scheme = Param(r, "scheme");
      const std::string theta = Param(r, "zipf_theta");
      const double racks = std::atof(Param(r, "racks").c_str());
      const double rx = r.Metric("rx_mrps");
      Group* g = nullptr;
      for (auto& cand : groups)
        if (cand.scheme == scheme && cand.theta == theta) g = &cand;
      if (g == nullptr) {
        groups.push_back({scheme, theta, racks, racks, rx, rx});
        continue;
      }
      if (racks < g->min_racks) { g->min_racks = racks; g->min_rx = rx; }
      if (racks > g->max_racks) { g->max_racks = racks; g->max_rx = rx; }
    }
    for (const auto& g : groups) {
      if (g.min_rx <= 0 || g.max_racks <= g.min_racks) continue;
      std::printf("  %s theta=%s: %.0f -> %.0f racks, %.2f -> %.2f MRPS "
                  "(x%.2f)\n",
                  g.scheme.c_str(), g.theta.c_str(), g.min_racks, g.max_racks,
                  g.min_rx, g.max_rx, g.max_rx / g.min_rx);
    }
  };
  return spec;
}

ExperimentSpec FigFabricFailover() {
  ExperimentSpec spec;
  spec.name = "fig_fabric_failover";
  spec.title =
      "Fabric failover — collapse and recovery vs detection window (§3.9)";
  // Per-rack building block: 4 servers + 2 clients per rack (half of
  // fig_fabric's block, keeping the 8-rack timeline points affordable),
  // at a fixed offered load above each rack's aggregate server capacity
  // (4 × 100K): the workload is only sustainable while the per-leaf
  // caches absorb the hot keys, so a leaf crash collapses that rack's
  // delivered throughput until the survivors' top-up and the rebuild
  // land. Two spines with static addr%2 routing mean a spine crash
  // blackholes half of every rack's flows for exactly the failover
  // detection window — the collapse depth is the window made visible.
  spec.base.scheme = testbed::Scheme::kOrbitCache;
  spec.base.topo.num_servers = 4;
  spec.base.topo.num_clients = 2;
  spec.base.topo.server_rate_rps = 100'000;
  spec.base.topo.client_rate_rps = 500'000;
  spec.base.cache.orbit_cache_size = 128;  // per leaf
  spec.base.topo.fabric.num_spines = 2;
  spec.base.topo.fabric.failover = true;
  spec.base.topo.fabric.probe_interval = 100 * kMicrosecond;
  spec.base.client.max_retries = 3;
  spec.base.client.request_timeout = 5 * kMillisecond;
  spec.scale_fn = FaultTimelineScale;
  // Axis order: scenario (slowest) × detection window × rack count, so the
  // table groups each fault's window sweep per rack count. Fault builders
  // run after scaling and after the rack axis, so event times track the
  // scaled window and rack targets are always in range.
  spec.axes = {
      harness::FaultAxis(
          {{"spine-crash",
            [](testbed::TestbedConfig& cfg) {
              cfg.fault = fault::SpineCrashAt(/*spine=*/1, cfg.duration / 3,
                                              /*restart_at=*/2 * cfg.duration /
                                                  3);
            }},
           {"leaf-crash",
            [](testbed::TestbedConfig& cfg) {
              cfg.fault = fault::LeafCrashAt(
                  /*rack=*/0, cfg.duration / 3,
                  /*restart_at=*/2 * cfg.duration / 3,
                  /*rebuild_delay=*/cfg.duration / 20);
            }}}),
      harness::NumericAxis("detection_window_ms", {0.5, 2, 8},
                           [](testbed::TestbedConfig& cfg, double v) {
                             cfg.topo.fabric.detection_window =
                                 static_cast<SimTime>(v * kMillisecond);
                           }),
      harness::FabricRackAxis({2, 4, 8}, /*servers_per_rack=*/4,
                              /*clients_per_rack=*/2)};
  spec.run = [](const harness::PointRun& p, harness::SaturationCache&) {
    // A stricter bar than fig_failures: failover + degradation should
    // restore ≥95% within the detection window plus the rebuild delay.
    return RunWithRecoveryAnalysis(p.config, /*recovered_frac=*/0.95);
  };
  spec.table_metrics = {"rx_mrps",      "collapse_frac",      "recovery_ms",
                        "reroutes",     "blackholed_packets", "retransmissions",
                        "retries_exhausted"};
  spec.epilogue = [](const std::vector<MetricsRecord>& rs) {
    for (const auto& r : rs) {
      if (!r.ok()) continue;
      const std::string recovery =
          r.Metric("recovery_ms") < 0
              ? "none"
              : std::to_string(static_cast<int>(r.Metric("recovery_ms"))) +
                    "ms";
      std::printf(
          "  %s window=%sms racks=%s: collapse %.0f%%, recovery %s, "
          "%" PRIu64 " reroutes, %" PRIu64 " blackholed\n",
          Param(r, "fault").c_str(), Param(r, "detection_window_ms").c_str(),
          Param(r, "racks").c_str(), 100 * r.Metric("collapse_frac"),
          recovery.c_str(), static_cast<uint64_t>(r.Metric("reroutes")),
          static_cast<uint64_t>(r.Metric("blackholed_packets")));
    }
    std::printf("(spine-crash recovery rides the detection window: shorter "
                "windows reroute sooner and blackhole less; leaf-crash "
                "recovery adds the controller's rebuild delay)\n");
  };
  return spec;
}

std::vector<harness::ExperimentSpec> AllExperiments() {
  return {MotivationCacheability(),
          Fig09Skewness(),
          Fig10ServerLoads(),
          Fig11LatencyThroughput(),
          Fig12WriteRatio(),
          Fig13Scalability(),
          Fig14Production(),
          Fig15LatencyBreakdown(),
          Fig16CacheSize(),
          Fig17ItemSize(),
          Fig17EffectiveSize(),
          Fig18Dynamic(),
          AblationCloning(),
          AblationQueueDepth(),
          AblationWritePolicy(),
          AblationRecircBandwidth(),
          RationaleRequestRecirc(),
          ExtraKeySize(),
          YcsbSuite(),
          // Appended last so earlier experiments keep their record slots
          // in existing baselines.
          FigFailures(),
          FigFabric(),
          FigFabricFailover()};
}

}  // namespace orbit::benchexp
