// Result-file comparison: the regression gate behind tools/bench_compare.
//
// Two JSON-lines result files are matched record-by-record on (experiment,
// params, rep). For each matched pair the chosen numeric metrics are
// compared with a relative tolerance plus a small absolute slack (so a
// 0.000 → 0.003 overflow ratio doesn't read as a 100% regression), and
// any drift beyond the bound — in either direction — is reported. Records
// present on only one side, and error records, fail the comparison.
#pragma once

#include <string>
#include <vector>

#include "harness/metrics.h"

namespace orbit::harness {

struct CompareOptions {
  double tolerance = 0.05;  // relative
  double slack = 0.02;      // absolute floor under which drift is ignored
  // Metric keys to compare; empty selects the default robust set
  // (rx_mrps, balancing_efficiency, overflow_ratio, read_p50/p99_us,
  // cache_mrps, sat_tx_mrps, events_processed) intersected with what each
  // record carries.
  std::vector<std::string> metrics;
  bool all_metrics = false;  // compare every numeric scalar instead
};

struct MetricDiff {
  std::string key;     // record identity
  std::string metric;
  double a = 0;
  double b = 0;
  double rel = 0;      // |a-b| / max(|a|,|b|)
};

struct CompareReport {
  size_t matched = 0;
  size_t metrics_compared = 0;
  std::vector<std::string> only_a;   // record keys missing from B
  std::vector<std::string> only_b;
  std::vector<std::string> errored;  // records with error fields
  std::vector<MetricDiff> diffs;     // beyond tolerance
  // A selected metric present (and numeric) on exactly one side of a
  // matched pair. Missing from BOTH sides is a documented skip — the
  // default metric set deliberately spans experiments that emit different
  // metrics — but one-sided disappearance is a regression, not a skip.
  std::vector<std::string> missing_metrics;

  // Records matched but not a single metric value was compared: every
  // selected metric was absent from both sides (typo'd --metrics, or
  // result files from a different suite). A gate that compares nothing
  // must not report success.
  bool vacuous() const { return matched > 0 && metrics_compared == 0; }

  bool ok() const {
    return only_a.empty() && only_b.empty() && errored.empty() &&
           diffs.empty() && missing_metrics.empty() && !vacuous();
  }
};

const std::vector<std::string>& DefaultCompareMetrics();

CompareReport CompareResults(const std::vector<MetricsRecord>& a,
                             const std::vector<MetricsRecord>& b,
                             const CompareOptions& options = {});

// Human-readable multi-line summary of a report.
std::string FormatReport(const CompareReport& report,
                         const CompareOptions& options);

}  // namespace orbit::harness
