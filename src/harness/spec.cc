#include "harness/spec.h"

#include <cstdio>

#include "common/check.h"
#include "common/hash.h"
#include "harness/sat_cache.h"
#include "testbed/serialize.h"

namespace orbit::harness {

const char* ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return "quick";
    case Scale::kDefault: return "default";
    case Scale::kFull: return "full";
  }
  return "?";
}

ScaleProfile PaperScaleProfile(Scale scale) {
  switch (scale) {
    case Scale::kQuick:
      return {100'000, 20 * kMillisecond, 60 * kMillisecond};
    case Scale::kDefault:
      return {1'000'000, 50 * kMillisecond, 150 * kMillisecond};
    case Scale::kFull:
      return {10'000'000, 100 * kMillisecond, 500 * kMillisecond};
  }
  return {};
}

ParamAxis SchemeAxis(const std::vector<testbed::Scheme>& schemes) {
  ParamAxis axis;
  axis.name = "scheme";
  for (size_t i = 0; i < schemes.size(); ++i) {
    const testbed::Scheme s = schemes[i];
    axis.params.push_back({testbed::SchemeName(s), static_cast<double>(i),
                           [s](testbed::TestbedConfig& cfg) { cfg.scheme = s; }});
  }
  return axis;
}

ParamAxis FabricRackAxis(const std::vector<int>& rack_counts,
                         int servers_per_rack, int clients_per_rack) {
  ORBIT_CHECK(servers_per_rack >= 1 && clients_per_rack >= 1);
  ParamAxis axis;
  axis.name = "racks";
  for (const int racks : rack_counts) {
    ORBIT_CHECK_MSG(racks >= 1, "rack count must be positive");
    axis.params.push_back(
        {std::to_string(racks), static_cast<double>(racks),
         [racks, servers_per_rack,
          clients_per_rack](testbed::TestbedConfig& cfg) {
           cfg.topo.fabric.num_racks = racks;
           cfg.topo.num_servers = racks * servers_per_rack;
           cfg.topo.num_clients = racks * clients_per_rack;
           cfg.topo.client_rate_rps *= racks;
         }});
  }
  return axis;
}

ParamAxis FaultAxis(std::vector<FaultScenario> scenarios) {
  ParamAxis axis;
  axis.name = "fault";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    axis.params.push_back({std::move(scenarios[i].label),
                           static_cast<double>(i),
                           std::move(scenarios[i].apply)});
  }
  return axis;
}

ParamAxis NumericAxis(
    std::string name, const std::vector<double>& values,
    std::function<void(testbed::TestbedConfig&, double)> apply) {
  ParamAxis axis;
  axis.name = std::move(name);
  for (double v : values) {
    char label[32];
    std::snprintf(label, sizeof(label), "%g", v);
    axis.params.push_back(
        {label, v,
         apply ? std::function<void(testbed::TestbedConfig&)>(
                     [apply, v](testbed::TestbedConfig& cfg) { apply(cfg, v); })
               : std::function<void(testbed::TestbedConfig&)>()});
  }
  return axis;
}

double PointRun::Value(std::string_view axis_name) const {
  for (size_t i = 0; i < params.size(); ++i)
    if (params[i].first == axis_name) return values[i];
  ORBIT_CHECK_MSG(false, "no axis named " << axis_name);
  return 0;
}

size_t ExperimentSpec::GridSize() const {
  size_t n = 1;
  for (const auto& axis : axes) n *= axis.params.size();
  return n;
}

uint64_t DeriveSeed(uint64_t base_seed, std::string_view experiment,
                    int point, int rep) {
  if (rep == 0) return base_seed;
  uint64_t x = base_seed;
  x ^= Hash64(experiment, /*seed=*/0x0b17cac8e);
  x = Mix64(x + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(point + 1));
  x = Mix64(x + static_cast<uint64_t>(rep));
  return x;
}

std::vector<PointRun> ExpandGrid(const ExperimentSpec& spec, Scale scale,
                                 uint64_t base_seed) {
  ORBIT_CHECK(spec.repetitions >= 1);
  testbed::TestbedConfig scaled = spec.base;
  if (spec.apply_paper_scale) {
    const ScaleProfile p = PaperScaleProfile(scale);
    scaled.workload.num_keys = p.num_keys;
    scaled.warmup = p.warmup;
    scaled.duration = p.duration;
  }
  if (spec.scale_fn) spec.scale_fn(scaled, scale);

  std::vector<PointRun> out;
  const size_t grid = spec.GridSize();
  out.reserve(grid * static_cast<size_t>(spec.repetitions));
  for (size_t linear = 0; linear < grid; ++linear) {
    // Decode row-major: the last axis varies fastest.
    std::vector<size_t> idx(spec.axes.size(), 0);
    size_t rem = linear;
    for (size_t a = spec.axes.size(); a-- > 0;) {
      idx[a] = rem % spec.axes[a].params.size();
      rem /= spec.axes[a].params.size();
    }
    for (int rep = 0; rep < spec.repetitions; ++rep) {
      PointRun pr;
      pr.spec = &spec;
      pr.scale = scale;
      pr.point = static_cast<int>(linear);
      pr.rep = rep;
      pr.seed = DeriveSeed(base_seed, spec.name, pr.point, rep);
      pr.config = scaled;
      pr.config.seed = pr.seed;
      for (size_t a = 0; a < spec.axes.size(); ++a) {
        const Param& param = spec.axes[a].params[idx[a]];
        pr.params.emplace_back(spec.axes[a].name, param.label);
        pr.values.push_back(param.value);
        if (param.apply) param.apply(pr.config);
      }
      out.push_back(std::move(pr));
    }
  }
  return out;
}

RunFn SaturationRun() {
  return [](const PointRun& p, SaturationCache& cache) {
    // The cache is shared across points, so the search itself always runs
    // uninstrumented; a memoized hit would otherwise skip filling this
    // point's capture (and a miss would race captures across threads).
    testbed::TestbedConfig base = p.config;
    base.telemetry = {};
    const testbed::SaturationResult sat =
        cache.Get(base, p.spec->loss_tolerance, p.spec->max_corrections);
    if (p.config.telemetry.capture != nullptr) {
      // Replay the saturating measurement once with instrumentation on.
      // RunTestbed is deterministic and telemetry is results-neutral, so
      // this reproduces sat.result exactly while filling the capture.
      testbed::TestbedConfig instrumented = p.config;
      instrumented.topo.client_rate_rps = sat.sat_tx_rps;
      (void)testbed::RunTestbed(instrumented);
    }
    testbed::ResultMetricsOptions opts;
    opts.include_server_loads = p.spec->include_server_loads;
    JsonValue metrics = testbed::ResultMetrics(sat.result, opts);
    metrics.Set("window_s",
                static_cast<double>(p.config.duration) / kSecond);
    metrics.Set("sat_tx_mrps", sat.sat_tx_rps / 1e6);
    metrics.Set("sat_runs", sat.runs);
    return metrics;
  };
}

RunFn FixedLoadRun() {
  return [](const PointRun& p, SaturationCache&) {
    const testbed::TestbedResult res = testbed::RunTestbed(p.config);
    testbed::ResultMetricsOptions opts;
    opts.include_server_loads = p.spec->include_server_loads;
    JsonValue metrics = testbed::ResultMetrics(res, opts);
    metrics.Set("window_s",
                static_cast<double>(p.config.duration) / kSecond);
    if (p.config.timeline_bin > 0)
      metrics.Set("timeline_bin_s",
                  static_cast<double>(p.config.timeline_bin) / kSecond);
    return metrics;
  };
}

RunFn FractionOfSaturationRun(std::string fraction_axis) {
  return [fraction_axis](const PointRun& p, SaturationCache& cache) {
    const double fraction = p.Value(fraction_axis);
    // The shared base (config without the fraction applied) is what the
    // saturation search measures; every fraction of one base hits the
    // same cache entry. Telemetry is stripped so the shared search never
    // writes into one point's capture — the fraction run below keeps it.
    testbed::TestbedConfig base = p.config;
    base.telemetry = {};
    const testbed::SaturationResult sat =
        cache.Get(base, p.spec->loss_tolerance, p.spec->max_corrections);
    testbed::TestbedConfig cfg = p.config;
    cfg.topo.client_rate_rps = fraction * sat.sat_tx_rps;
    const testbed::TestbedResult res = testbed::RunTestbed(cfg);
    testbed::ResultMetricsOptions opts;
    opts.include_server_loads = p.spec->include_server_loads;
    JsonValue metrics = testbed::ResultMetrics(res, opts);
    metrics.Set("sat_tx_mrps", sat.sat_tx_rps / 1e6);
    metrics.Set("load_fraction", fraction);
    return metrics;
  };
}

}  // namespace orbit::harness
