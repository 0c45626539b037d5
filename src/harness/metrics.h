// The harness's machine-readable unit of output: one MetricsRecord per
// executed experiment point, serialized as one JSON line. Records are the
// contract between bench/run_all (producer) and tools/bench_compare
// (consumer): a point is identified by (experiment, params, rep) and its
// metrics object holds only scalars, arrays, and strings that are
// deterministic functions of the spec and the seed — never wall-clock
// measurements, so parallel and serial runs emit identical bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/json.h"

namespace orbit::harness {

struct MetricsRecord {
  std::string experiment;
  int point = 0;  // linear index into the experiment's sweep grid
  int rep = 0;
  uint64_t seed = 0;
  // Swept-parameter name → printed value, in axis order.
  std::vector<std::pair<std::string, std::string>> params;
  JsonValue metrics = JsonValue::MakeObject();
  std::string error;  // non-empty: the point failed (timeout, divergence)

  bool ok() const { return error.empty(); }

  // Stable identity for cross-file matching (experiment, params, rep).
  std::string Key() const;

  // Convenience: numeric metric lookup (NaN when absent/non-numeric).
  double Metric(std::string_view name) const;

  JsonValue ToJson() const;
  static bool FromJson(const JsonValue& json, MetricsRecord* out,
                       std::string* error);
};

// One compact JSON object per line, trailing newline after each.
std::string DumpJsonl(const std::vector<MetricsRecord>& records);

// Parses JSON-lines text (blank lines ignored). Returns false on the first
// malformed line and reports its line number in *error.
bool ParseJsonl(std::string_view text, std::vector<MetricsRecord>* out,
                std::string* error);

// File convenience wrappers (return false and fill *error on I/O failure).
// WriteTextFile writes `contents` to `path` byte-for-byte.
bool WriteTextFile(const std::string& path, const std::string& contents,
                   std::string* error);
bool WriteJsonlFile(const std::string& path,
                    const std::vector<MetricsRecord>& records,
                    std::string* error);
bool ReadJsonlFile(const std::string& path, std::vector<MetricsRecord>* out,
                   std::string* error);

}  // namespace orbit::harness
