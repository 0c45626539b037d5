// YCSB-style workload mixes.
//
// The paper's skew constant (zipf-0.99) is YCSB's default [Cooper et al.,
// SoCC'10], and key-value systems are conventionally compared on the YCSB
// core workloads. This module provides the core mixes the open-loop
// request model can express as ready-made testbed parameterizations (the
// ycsb_suite experiment, `run_all ycsb_suite`, drives them):
//
//   A  update heavy   50% reads / 50% writes, zipfian
//   B  read mostly    95% reads /  5% writes, zipfian
//   C  read only     100% reads,              zipfian
//
// D (read latest) and F (read-modify-write) are left out: the model has no
// insertions for a "latest" distribution to follow and no dependent
// requests, so each would only repeat B's or A's mix.
#pragma once

#include <string>
#include <vector>

namespace orbit::wl {

struct YcsbProfile {
  std::string id;      // "A".."C"
  double write_ratio;  // fraction of operations that mutate
  double zipf_theta;   // popularity skew
};

const std::vector<YcsbProfile>& YcsbCoreWorkloads();

}  // namespace orbit::wl
