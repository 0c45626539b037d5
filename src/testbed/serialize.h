// JSON serialization for testbed configs and results.
//
// Two consumers: the experiment harness turns a TestbedResult into the
// metrics object of one JSON-lines record, and the parallel runner's
// saturation cache keys memoized FindSaturation calls on a config
// fingerprint. Both require determinism — every field that can change a
// simulation's outcome appears in the fingerprint, and nothing
// wall-clock-dependent appears in the metrics.
#pragma once

#include <string>

#include "harness/json.h"
#include "testbed/testbed.h"

namespace orbit::testbed {

// Every outcome-affecting TestbedConfig field as an ordered JSON object.
// The twitter profile pointer serializes as the profile id; the value
// distribution as its parameters: a Fixed one's size, or a Bimodal one's
// two sizes, p_small and seed.
harness::JsonValue ConfigJson(const TestbedConfig& config);

// Canonical string identity of a config: two configs with equal
// fingerprints produce identical simulations.
std::string ConfigFingerprint(const TestbedConfig& config);

struct ResultMetricsOptions {
  bool include_server_loads = false;
};

// Flattens a TestbedResult into the harness metrics object: rates in
// MRPS, latency percentiles in microseconds, ratios, protocol counters,
// cache state, RMT resource usage, and the two timelines of a run that
// has them (timeline_bin > 0).
harness::JsonValue ResultMetrics(const TestbedResult& result,
                                 const ResultMetricsOptions& options = {});

}  // namespace orbit::testbed
