// The benchmark's fixed testbed workloads (see README.md for why each one
// was chosen). Every workload is a plain testbed::TestbedConfig run through
// the public testbed::RunTestbed entry point; the seed is the only input
// that varies between runs.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "testbed/testbed.h"

namespace orbit::perfbench {

// A run simulates kSubSeeds seeds of its workload: sub-seed 0 is the run's
// seed itself, the others derive from it. The seed places hot keys on
// servers, which moves a run's simulated work by several percent, so a run
// times several placements instead of one.
inline constexpr int kSubSeeds = 4;
uint64_t SubSeed(uint64_t seed, int k);

bool IsWorkload(const std::string& name);

// The timed-pass configuration of `name` for `seed`: telemetry and
// verification off, warmup then a measurement window.
testbed::TestbedConfig WorkloadConfig(const std::string& name, uint64_t seed);

// The same configuration cut to a window too short to carry traffic and no
// warmup: everything RunTestbed builds and tears down, and nothing it
// simulates. The fault schedule keeps its shape (crash at one third,
// restart at two thirds), because FaultSchedule::Validate rejects
// zero-length faults.
testbed::TestbedConfig SetupConfig(const std::string& name, uint64_t seed);

}  // namespace orbit::perfbench
