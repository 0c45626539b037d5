// YCSB-style workload mixes.
//
// The paper's skew constant (zipf-0.99) is YCSB's default [Cooper et al.,
// SoCC'10], and key-value systems are conventionally compared on the YCSB
// core workloads. This module provides the classic mixes as ready-made
// testbed parameterizations so downstream users can evaluate the schemes
// on familiar ground (the ycsb_suite experiment, `run_all ycsb_suite`,
// drives them):
//
//   A  update heavy   50% reads / 50% writes, zipfian
//   B  read mostly    95% reads /  5% writes, zipfian
//   C  read only     100% reads,              zipfian
//   D  read latest    95% reads /  5% writes, skew toward recent keys
//   F  read-modify-w  50% reads / 50% RMW,    zipfian
//
// D's "latest" distribution and F's read-modify-write are approximated
// within the open-loop request model: D keeps zipfian popularity but over
// a rolling window of "recently inserted" ranks, and F issues the write
// leg of each RMW as an immediate dependent write (same key).
#pragma once

#include <string>
#include <vector>

namespace orbit::wl {

struct YcsbProfile {
  std::string id;          // "A".."F"
  std::string description;
  double write_ratio;      // fraction of operations that mutate
  double zipf_theta;       // popularity skew
  bool read_modify_write;  // F: every write is paired with a read
};

const std::vector<YcsbProfile>& YcsbCoreWorkloads();

}  // namespace orbit::wl
