// Declarative experiment descriptions.
//
// Instead of hand-rolling nested sweep loops, each experiment declares an
// ExperimentSpec: a base testbed configuration, the axes being swept (each
// axis a named list of labeled values that mutate the config), repetitions
// with derived seeds, and how one point runs (saturation search, fixed
// offered load, or a custom function). ExpandGrid() turns the spec into a
// flat list of self-contained PointRuns — each point carries its fully
// resolved config, so points execute independently and in parallel with
// bit-identical results to a serial run.
//
// The quick/--full duration knobs that every fig binary used to re-derive
// live here, in one place: PaperScaleProfile() maps the CLI scale to the
// key-space size and measurement windows, and specs opt out only when an
// experiment owns its own timeline (e.g. Fig. 18's hot-in swaps).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.h"
#include "harness/metrics.h"
#include "testbed/testbed.h"

namespace orbit::harness {

class SaturationCache;

// ---- scale (quick / default / full) ------------------------------------

enum class Scale { kQuick, kDefault, kFull };
const char* ScaleName(Scale scale);

struct ScaleProfile {
  uint64_t num_keys = 0;
  SimTime warmup = 0;
  SimTime duration = 0;
};

// The single source of truth for how each scale shrinks the paper's §5.1
// setup: kFull is paper scale (10M keys, 100/500 ms windows), kDefault is
// the figure-reproduction scale EXPERIMENTS.md quotes (1M keys, 50/150 ms),
// kQuick is the CI smoke scale (100K keys, 20/60 ms).
ScaleProfile PaperScaleProfile(Scale scale);

// ---- sweep axes ---------------------------------------------------------

struct Param {
  std::string label;  // printed value, e.g. "0.99" or "NetCache"
  double value = 0;   // numeric view (axis index for categorical axes)
  std::function<void(testbed::TestbedConfig&)> apply;  // may be empty
};

struct ParamAxis {
  std::string name;
  std::vector<Param> params;
};

// Axis helpers for the common cases.
ParamAxis SchemeAxis(const std::vector<testbed::Scheme>& schemes);
ParamAxis NumericAxis(std::string name, const std::vector<double>& values,
                      std::function<void(testbed::TestbedConfig&, double)> apply);

// Axis over leaf–spine rack counts (src/fabric/): each value enables the
// fabric with that many racks and grows the testbed proportionally —
// num_servers = racks × servers_per_rack, num_clients = racks ×
// clients_per_rack — and multiplies the aggregate client_rate_rps by the
// rack count (the base config's rate is read as the one-rack offered
// load). Axis name "racks"; the numeric value is the rack count.
ParamAxis FabricRackAxis(const std::vector<int>& rack_counts,
                         int servers_per_rack, int clients_per_rack);

// Axis over named fault scenarios: each entry installs a fault schedule
// (and any related knobs, e.g. the client retry budget) into the point's
// config. Builders run after scaling, so they can place fault times
// relative to the scaled cfg.warmup / cfg.duration window.
struct FaultScenario {
  std::string label;  // e.g. "switch-reset", "server-crash"
  std::function<void(testbed::TestbedConfig&)> apply;
};
ParamAxis FaultAxis(std::vector<FaultScenario> scenarios);

// ---- one expanded point -------------------------------------------------

struct ExperimentSpec;

struct PointRun {
  const ExperimentSpec* spec = nullptr;
  // Base config with scale, axis values, and the derived seed applied.
  testbed::TestbedConfig config;
  std::vector<std::pair<std::string, std::string>> params;  // name → label
  std::vector<double> values;                               // axis values
  Scale scale = Scale::kDefault;
  int point = 0;
  int rep = 0;
  uint64_t seed = 0;

  // Numeric value of a named axis (throws CheckFailure when absent).
  double Value(std::string_view axis_name) const;
};

// How one point produces its metrics object.
using RunFn = std::function<JsonValue(const PointRun&, SaturationCache&)>;

// ---- the spec -----------------------------------------------------------

struct ExperimentSpec {
  std::string name;   // stable identifier; the JSONL "experiment" field
  std::string title;  // table heading, e.g. "Fig. 9 — throughput vs skew"

  testbed::TestbedConfig base;     // full-scale base; scale shrinks it
  bool apply_paper_scale = true;   // apply PaperScaleProfile to the base
  // Extra per-scale adjustments (fig18's timeline, reduced sweep windows).
  std::function<void(testbed::TestbedConfig&, Scale)> scale_fn;

  std::vector<ParamAxis> axes;  // row-major: first axis varies slowest
  int repetitions = 1;          // rep 0 keeps the base seed; later reps derive

  // Saturation-search parameters (used by SaturationRun points).
  double loss_tolerance = 0.03;
  int max_corrections = 2;

  RunFn run;  // defaults to SaturationRun() when unset

  // Result shaping. Timelines are reported whenever the point's config
  // sets timeline_bin.
  bool include_server_loads = false;
  // Metric keys the text table prints (params always lead the row).
  std::vector<std::string> table_metrics = {"rx_mrps", "read_p50_us",
                                            "read_p99_us",
                                            "balancing_efficiency",
                                            "overflow_ratio"};
  // Printed after the table (speedup summaries, timelines, paper notes).
  std::function<void(const std::vector<MetricsRecord>&)> epilogue;

  size_t GridSize() const;  // product over axes (excludes repetitions)
};

// Stable per-point seed derivation: rep 0 returns base_seed unchanged (so
// figure numbers keep matching EXPERIMENTS.md), later reps mix the
// experiment name, point index, and rep through SplitMix64.
uint64_t DeriveSeed(uint64_t base_seed, std::string_view experiment,
                    int point, int rep);

// Expands the sweep grid into per-point runs, ordered by (point, rep).
std::vector<PointRun> ExpandGrid(const ExperimentSpec& spec, Scale scale,
                                 uint64_t base_seed);

// ---- stock run functions ------------------------------------------------

// FindSaturation at the point's config, metrics from the saturating run
// (plus sat_tx_mrps / sat_runs). Memoizes through the SaturationCache.
RunFn SaturationRun();

// One RunTestbed at the config's own client_rate_rps.
RunFn FixedLoadRun();

// Finds the *base* config's saturation (shared across the fraction axis
// via the cache), then measures one run at fraction × saturating load.
// `fraction_axis` names the axis holding the fraction; that axis must not
// mutate the config.
RunFn FractionOfSaturationRun(std::string fraction_axis);

}  // namespace orbit::harness
