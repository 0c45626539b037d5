// The command line of bench/run_all, the one program that runs experiments.
//
//   --quick / --full    scale selection (default: the EXPERIMENTS.md scale)
//   --seed N            base seed (default 42, the paper runs' seed)
//   --jobs N            parallel points (default 1 = fully serial)
//   --out PATH          write JSON-lines metrics records
//   --timeout SEC       per-point wall-clock budget (0 = off)
//   --trace-out PATH    write the hop-event stream as a merged Chrome trace
//   --trace-sample N    stream every Nth request per client (default 64)
//   --counters-out PATH write counter-snapshot JSONL time series
//   --snapshot-interval MS  periodic registry snapshots (0 = final only)
//   --int-out PATH      write the hop-event stream as INT postcard JSONL
//   --hist-out PATH     write always-on histogram snapshots as JSONL
//   --flight-dump PATH  write flight-recorder dumps (end of run + faults)
//   --list              list experiments and exit
//   --help              usage plus each experiment's swept parameters
//   NAME...             positional filters: an exact experiment name selects
//                       that experiment alone, any other NAME selects every
//                       experiment whose name contains it
//
// The telemetry flags enable instrumentation only for the files they
// produce: with none given, runs are bit-identical to a build without the
// telemetry layer.
//
// HarnessMain() is the whole driver: parse, filter, run, print tables,
// write the JSONL, return the exit code (0 ok, 1 point failures, 2 usage or
// no experiment selected).
#pragma once

#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/spec.h"

namespace orbit::harness {

struct CliOptions {
  RunnerOptions runner;
  std::string out_path;
  std::string trace_out_path;     // non-empty enables the hop-event stream
  std::string counters_out_path;  // non-empty enables counter snapshots
  std::string int_out_path;       // non-empty enables the hop-event stream
  std::string hist_out_path;      // non-empty enables always-on histograms
  std::string flight_dump_path;   // non-empty enables the flight recorder
  std::vector<std::string> filters;
  bool help = false;
  bool list = false;
  std::string error;  // non-empty: parsing failed

  bool ok() const { return error.empty(); }
};

CliOptions ParseCli(int argc, char** argv);

void PrintHelp(const char* prog, const std::vector<ExperimentSpec>& specs);

// The specs the positional filters select, in registration order. No
// filters selects every spec. A filter equal to some spec's name selects
// that spec alone (`fig_fabric` does not also pick `fig_fabric_failover`);
// any other filter selects every spec whose name contains it (`fig17`).
std::vector<ExperimentSpec> SelectExperiments(
    const std::vector<ExperimentSpec>& specs,
    const std::vector<std::string>& filters);

int HarnessMain(const std::vector<ExperimentSpec>& specs, int argc,
                char** argv);

}  // namespace orbit::harness
