// Parallel experiment execution.
//
// Every PointRun is independent (the simulator is single-threaded and
// deterministic per point), so the runner fans the expanded grid out over
// a pool of worker threads pulling from a shared queue. Records land in
// pre-assigned slots ordered by (spec order, point, rep), which makes the
// JSON-lines output of `--jobs 8` byte-identical to `--jobs 1`. One
// point's failure (timeout, divergence, CHECK) is captured in its record's
// error field and never kills the suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/metrics.h"
#include "harness/spec.h"
#include "telemetry/counters.h"

namespace orbit::harness {

struct RunnerOptions {
  Scale scale = Scale::kDefault;
  uint64_t base_seed = 42;
  int jobs = 1;
  double point_timeout_sec = 0;  // 0 disables the per-point deadline
  bool progress = true;          // one stderr line per finished point

  // Telemetry (off by default). When enabled every point runs with a copy
  // of `telemetry` whose capture is that slot's RunCapture; captures land
  // alongside records and never touch the metrics themselves, so record
  // JSONL stays byte-identical either way. Sim-time timestamps keep
  // captures deterministic across --jobs.
  bool capture_telemetry = false;
  testbed::TestbedConfig::Telemetry telemetry;

  // Verification (off by default). Enables the shadow oracle + packet
  // conservation + switch invariant checks (src/verify/) on every point.
  // Results-neutral: record JSONL stays byte-identical either way; a
  // violation surfaces as the point's error field (fail-fast CHECK).
  bool verify = false;
};

struct RunOutcome {
  // Ordered by (spec order, point, rep) regardless of jobs.
  std::vector<MetricsRecord> records;
  // Slot-aligned with records when capture_telemetry was set; else empty.
  std::vector<telemetry::RunCapture> captures;
  int errors = 0;
  double wall_seconds = 0;   // never serialized (would break determinism)
  uint64_t sat_cache_hits = 0;
};

RunOutcome RunExperiments(const std::vector<ExperimentSpec>& specs,
                          const RunnerOptions& options);

// Text output: per-experiment aligned tables (params + table_metrics) and
// the spec's epilogue, from the already-collected records.
void PrintTables(const std::vector<ExperimentSpec>& specs,
                 const std::vector<MetricsRecord>& records);

}  // namespace orbit::harness
