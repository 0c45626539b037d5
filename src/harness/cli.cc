#include "harness/cli.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "harness/flags.h"
#include "harness/telemetry_io.h"

namespace orbit::harness {

namespace {

// One flag table shared by parsing and --help so the two cannot drift.
Flags MakeFlags() {
  Flags flags;
  flags.AddBool("quick", "CI smoke scale (100K keys, 20/60 ms windows)");
  flags.AddBool("full", "paper scale (10M keys, 100/500 ms windows)");
  flags.AddUint64("seed", 42, "N",
                  "base seed (default 42); repetitions derive from it");
  flags.AddInt("jobs", 1, "N",
               "run up to N sweep points in parallel (default 1);\n"
               "output is byte-identical at any job count");
  flags.AddDouble("timeout", 0, "SEC",
                  "per-point wall-clock budget; an expired point is\n"
                  "recorded as an error, the suite continues");
  flags.AddString("out", "", "PATH",
                  "write one JSON metrics record per point to PATH");
  flags.AddString("trace-out", "", "PATH",
                  "record the hop-event stream of sampled requests and\n"
                  "write it as one merged Chrome trace (open in Perfetto\n"
                  "/ chrome://tracing)");
  flags.AddUint64("trace-sample", 64, "N",
                  "sample every Nth request per client into the stream\n"
                  "(default 64; used with --trace-out / --int-out)");
  flags.AddString("counters-out", "", "PATH",
                  "write switch/app counter snapshots as JSONL series");
  flags.AddDouble("snapshot-interval", 0, "MS",
                  "sim-time period between counter snapshots (default\n"
                  "0 = one final snapshot per point)");
  flags.AddString("int-out", "", "PATH",
                  "record the hop-event stream of sampled requests and\n"
                  "write it as INT postcard JSONL");
  flags.AddString("hist-out", "", "PATH",
                  "record always-on per-hop/per-link histograms and write\n"
                  "their end-of-run snapshots as JSONL");
  flags.AddString("flight-dump", "", "PATH",
                  "keep per-component flight-recorder rings, dump them at\n"
                  "end of run (and on faults/check failures) to PATH");
  flags.AddBool("verify",
                "run every point under the shadow-oracle verification\n"
                "layer (src/verify/); results stay byte-identical, a\n"
                "violation is recorded as the point's error");
  flags.AddBool("no-progress", "silence the per-point progress lines");
  flags.AddBool("list", "list experiment names and exit");
  flags.AddBool("help", "this message").Alias("-h");
  return flags;
}

}  // namespace

CliOptions ParseCli(int argc, char** argv) {
  CliOptions opts;
  Flags flags = MakeFlags();
  if (!flags.Parse(argc, argv)) {
    opts.error = flags.error();
    return opts;
  }

  // --quick / --full: the later mention wins, matching the historical
  // last-assignment behavior.
  if (flags.LastIndex("full") > flags.LastIndex("quick"))
    opts.runner.scale = Scale::kFull;
  else if (flags.Seen("quick"))
    opts.runner.scale = Scale::kQuick;

  opts.runner.base_seed = flags.GetUint64("seed");
  opts.runner.jobs = flags.GetInt("jobs");
  if (opts.runner.jobs < 1) {
    opts.error = "bad --jobs value: " + flags.Raw("jobs");
    return opts;
  }
  opts.runner.point_timeout_sec = flags.GetDouble("timeout");
  if (opts.runner.point_timeout_sec < 0) {
    opts.error = "bad --timeout value: " + flags.Raw("timeout");
    return opts;
  }
  const uint64_t trace_sample = flags.GetUint64("trace-sample");
  if (trace_sample > UINT32_MAX) {
    opts.error = "bad --trace-sample value: " + flags.Raw("trace-sample");
    return opts;
  }
  opts.runner.telemetry.trace_sample = static_cast<uint32_t>(trace_sample);
  const double snapshot_ms = flags.GetDouble("snapshot-interval");
  if (snapshot_ms < 0) {
    opts.error = "bad --snapshot-interval value: " +
                 flags.Raw("snapshot-interval");
    return opts;
  }
  opts.runner.telemetry.snapshot_interval =
      static_cast<SimTime>(snapshot_ms * kMillisecond);
  opts.runner.verify = flags.GetBool("verify");
  opts.runner.progress = !flags.GetBool("no-progress");
  opts.out_path = flags.GetString("out");
  opts.trace_out_path = flags.GetString("trace-out");
  opts.counters_out_path = flags.GetString("counters-out");
  opts.int_out_path = flags.GetString("int-out");
  opts.hist_out_path = flags.GetString("hist-out");
  opts.flight_dump_path = flags.GetString("flight-dump");
  opts.list = flags.GetBool("list");
  opts.help = flags.GetBool("help");
  opts.filters = flags.positionals();
  return opts;
}

void PrintHelp(const char* prog, const std::vector<ExperimentSpec>& specs) {
  std::printf(
      "usage: %s [NAME...] [--quick|--full] [--seed N] [--jobs N]\n"
      "       [--timeout SEC] [--out results.jsonl] [--list] [--no-progress]\n"
      "       [--trace-out trace.json] [--trace-sample N]\n"
      "       [--counters-out counters.jsonl] [--snapshot-interval MS]\n"
      "       [--int-out int.jsonl] [--hist-out hist.jsonl]\n"
      "       [--flight-dump flight.txt] [--verify]\n"
      "\n"
      "  NAME...            run only the experiment named NAME, or, when no\n"
      "                     experiment has that name, those whose name\n"
      "                     contains NAME\n"
      "%s"
      "\n"
      "experiments and swept parameters:\n",
      prog, MakeFlags().Usage().c_str());
  for (const auto& spec : specs) {
    std::printf("  %-24s %s\n", spec.name.c_str(), spec.title.c_str());
    for (const auto& axis : spec.axes) {
      std::printf("      %-20s", axis.name.c_str());
      for (size_t i = 0; i < axis.params.size(); ++i)
        std::printf("%s%s", i == 0 ? "" : ", ", axis.params[i].label.c_str());
      std::printf("\n");
    }
    if (spec.repetitions > 1)
      std::printf("      %-20s%d (derived seeds)\n", "repetitions",
                  spec.repetitions);
  }
}

std::vector<ExperimentSpec> SelectExperiments(
    const std::vector<ExperimentSpec>& specs,
    const std::vector<std::string>& filters) {
  if (filters.empty()) return specs;
  const auto is_name = [&specs](const std::string& f) {
    return std::any_of(specs.begin(), specs.end(),
                       [&f](const ExperimentSpec& s) { return s.name == f; });
  };
  std::vector<ExperimentSpec> selected;
  for (const auto& spec : specs)
    for (const auto& f : filters)
      if (is_name(f) ? spec.name == f
                     : spec.name.find(f) != std::string::npos) {
        selected.push_back(spec);
        break;
      }
  return selected;
}

int HarnessMain(const std::vector<ExperimentSpec>& specs, int argc,
                char** argv) {
  const CliOptions opts = ParseCli(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\nrun with --help for usage\n",
                 opts.error.c_str());
    return 2;
  }
  if (opts.help) {
    PrintHelp(argv[0], specs);
    return 0;
  }
  if (opts.list) {
    for (const auto& spec : specs)
      std::printf("%s\t%zu points\n", spec.name.c_str(),
                  spec.GridSize() * static_cast<size_t>(spec.repetitions));
    return 0;
  }

  const std::vector<ExperimentSpec> selected =
      SelectExperiments(specs, opts.filters);
  if (selected.empty()) {
    std::fprintf(stderr, "no experiment matches the given filters\n");
    return 2;
  }

  RunnerOptions runner = opts.runner;
  runner.capture_telemetry =
      !opts.trace_out_path.empty() || !opts.counters_out_path.empty() ||
      !opts.int_out_path.empty() || !opts.hist_out_path.empty() ||
      !opts.flight_dump_path.empty();
  // Collect only what will be written: the stream costs nothing when
  // sampling is off, and counter snapshots cost nothing unless requested.
  if (opts.trace_out_path.empty() && opts.int_out_path.empty())
    runner.telemetry.trace_sample = 0;
  runner.telemetry.histograms = !opts.hist_out_path.empty();
  runner.telemetry.flight_recorder = !opts.flight_dump_path.empty();

  const RunOutcome outcome = RunExperiments(selected, runner);
  PrintTables(selected, outcome.records);
  std::printf("\n%zu points in %.1fs (scale=%s, jobs=%d, seed=%llu",
              outcome.records.size(), outcome.wall_seconds,
              ScaleName(opts.runner.scale), opts.runner.jobs,
              static_cast<unsigned long long>(opts.runner.base_seed));
  if (outcome.sat_cache_hits > 0)
    std::printf(", sat-cache hits=%llu",
                static_cast<unsigned long long>(outcome.sat_cache_hits));
  std::printf(")%s\n",
              outcome.errors > 0 ? " — WITH ERRORS" : "");

  if (!opts.out_path.empty()) {
    std::string error;
    if (!WriteJsonlFile(opts.out_path, outcome.records, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote %zu records to %s\n", outcome.records.size(),
                opts.out_path.c_str());
  }
  if (!opts.trace_out_path.empty()) {
    std::string error;
    if (!WriteTextFile(opts.trace_out_path,
                       MergedChromeTrace(outcome.records, outcome.captures),
                       &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote trace to %s\n", opts.trace_out_path.c_str());
  }
  if (!opts.counters_out_path.empty()) {
    std::string error;
    if (!WriteTextFile(opts.counters_out_path,
                       CountersJsonl(outcome.records, outcome.captures),
                       &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote counter snapshots to %s\n",
                opts.counters_out_path.c_str());
  }
  if (!opts.int_out_path.empty()) {
    std::string error;
    if (!WriteTextFile(opts.int_out_path,
                       IntJsonl(outcome.records, outcome.captures), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote INT postcards to %s\n", opts.int_out_path.c_str());
  }
  if (!opts.hist_out_path.empty()) {
    std::string error;
    if (!WriteTextFile(opts.hist_out_path,
                       HistJsonl(outcome.records, outcome.captures), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote histogram snapshots to %s\n",
                opts.hist_out_path.c_str());
  }
  if (!opts.flight_dump_path.empty()) {
    std::string error;
    if (!WriteTextFile(opts.flight_dump_path,
                       FlightText(outcome.records, outcome.captures),
                       &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("wrote flight dumps to %s\n", opts.flight_dump_path.c_str());
  }
  return outcome.errors > 0 ? 1 : 0;
}

}  // namespace orbit::harness
