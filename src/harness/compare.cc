#include "harness/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace orbit::harness {

const std::vector<std::string>& DefaultCompareMetrics() {
  // events_processed is the simulator's deterministic work count: runner
  // noise cannot move it, so a drift in it is a change in what ran.
  static const std::vector<std::string> kDefault = {
      "rx_mrps",     "balancing_efficiency", "overflow_ratio",
      "read_p50_us", "read_p99_us",          "cache_mrps",
      "sat_tx_mrps", "events_processed",
  };
  return kDefault;
}

namespace {

void CompareMetricSet(const MetricsRecord& ra, const MetricsRecord& rb,
                      const std::vector<std::string>& metrics,
                      const CompareOptions& options, CompareReport* report) {
  for (const auto& name : metrics) {
    const JsonValue* va = ra.metrics.FindPath(name);
    const JsonValue* vb = rb.metrics.FindPath(name);
    const bool has_a = va != nullptr && va->is_number();
    const bool has_b = vb != nullptr && vb->is_number();
    // Absent from both sides: the metric simply doesn't apply to this
    // experiment (the default set spans several suites). Absent from one
    // side only: the metric disappeared or changed type — a failure.
    if (!has_a && !has_b) continue;
    if (has_a != has_b) {
      report->missing_metrics.push_back(ra.Key() + " " + name +
                                        " (missing or non-numeric in " +
                                        (has_a ? "B" : "A") + ")");
      continue;
    }
    const double a = va->AsDouble();
    const double b = vb->AsDouble();
    ++report->metrics_compared;
    const double diff = std::fabs(a - b);
    const double scale = std::max(std::fabs(a), std::fabs(b));
    if (diff <= options.slack) continue;
    if (diff <= options.tolerance * scale) continue;
    report->diffs.push_back(
        {ra.Key(), name, a, b, scale > 0 ? diff / scale : 0});
  }
}

std::vector<std::string> NumericScalarKeys(const MetricsRecord& r) {
  std::vector<std::string> keys;
  for (const auto& [k, v] : r.metrics.object())
    if (v.is_number()) keys.push_back(k);
  return keys;
}

}  // namespace

CompareReport CompareResults(const std::vector<MetricsRecord>& a,
                             const std::vector<MetricsRecord>& b,
                             const CompareOptions& options) {
  CompareReport report;

  // Ordered map keeps the report deterministic.
  std::map<std::string, const MetricsRecord*> bindex;
  for (const auto& r : b) bindex[r.Key()] = &r;

  std::map<std::string, bool> seen_b;
  for (const auto& ra : a) {
    const std::string key = ra.Key();
    auto it = bindex.find(key);
    if (it == bindex.end()) {
      report.only_a.push_back(key);
      continue;
    }
    seen_b[key] = true;
    const MetricsRecord& rb = *it->second;
    if (!ra.ok() || !rb.ok()) {
      // Two runs failing identically is still a match; anything else is a
      // failure worth surfacing.
      if (ra.error != rb.error)
        report.errored.push_back(key + " (a: " +
                                 (ra.ok() ? "ok" : ra.error) + ", b: " +
                                 (rb.ok() ? "ok" : rb.error) + ")");
      continue;
    }
    ++report.matched;
    if (options.all_metrics) {
      CompareMetricSet(ra, rb, NumericScalarKeys(ra), options, &report);
    } else {
      CompareMetricSet(
          ra, rb,
          options.metrics.empty() ? DefaultCompareMetrics() : options.metrics,
          options, &report);
    }
  }
  for (const auto& rb : b)
    if (seen_b.find(rb.Key()) == seen_b.end())
      report.only_b.push_back(rb.Key());
  return report;
}

std::string FormatReport(const CompareReport& report,
                         const CompareOptions& options) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%zu records matched, %zu metric values compared "
                "(tolerance %.0f%%, slack %g)\n",
                report.matched, report.metrics_compared,
                100 * options.tolerance, options.slack);
  out += line;
  for (const auto& k : report.only_a) {
    std::snprintf(line, sizeof(line), "  only in A: %s\n", k.c_str());
    out += line;
  }
  for (const auto& k : report.only_b) {
    std::snprintf(line, sizeof(line), "  only in B: %s\n", k.c_str());
    out += line;
  }
  for (const auto& k : report.errored) {
    std::snprintf(line, sizeof(line), "  errored: %s\n", k.c_str());
    out += line;
  }
  for (const auto& k : report.missing_metrics) {
    std::snprintf(line, sizeof(line), "  metric lost: %s\n", k.c_str());
    out += line;
  }
  for (const auto& d : report.diffs) {
    std::snprintf(line, sizeof(line),
                  "  DRIFT %s: %s a=%g b=%g (%.1f%%)\n", d.key.c_str(),
                  d.metric.c_str(), d.a, d.b, 100 * d.rel);
    out += line;
  }
  if (report.vacuous())
    out += "  no metric values compared across the matched records — "
           "check the metric names against what the result files carry\n";
  out += report.ok() ? "OK: results match within tolerance\n"
                     : "FAIL: results differ\n";
  return out;
}

}  // namespace orbit::harness
