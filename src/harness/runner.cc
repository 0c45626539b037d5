#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "harness/sat_cache.h"
#include "sim/simulator.h"

namespace orbit::harness {

namespace {

struct Job {
  size_t spec_index = 0;
  PointRun point;
};

MetricsRecord BaseRecord(const ExperimentSpec& spec, const PointRun& p) {
  MetricsRecord record;
  record.experiment = spec.name;
  record.point = p.point;
  record.rep = p.rep;
  record.seed = p.seed;
  record.params = p.params;
  return record;
}

}  // namespace

RunOutcome RunExperiments(const std::vector<ExperimentSpec>& specs,
                          const RunnerOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  // Expand every spec up front; slot order defines the output order.
  std::vector<Job> jobs;
  for (size_t s = 0; s < specs.size(); ++s) {
    for (PointRun& p : ExpandGrid(specs[s], options.scale, options.base_seed))
      jobs.push_back({s, std::move(p)});
  }

  RunOutcome outcome;
  outcome.records.resize(jobs.size());
  if (options.capture_telemetry) {
    outcome.captures.resize(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].point.config.telemetry = options.telemetry;
      jobs[i].point.config.telemetry.capture = &outcome.captures[i];
    }
  }
  if (options.verify)
    for (Job& job : jobs) job.point.config.verify.enabled = true;
  SaturationCache sat_cache;
  std::atomic<size_t> next{0};
  std::atomic<int> errors{0};
  std::atomic<size_t> done{0};
  std::mutex progress_mu;

  auto worker = [&] {
    while (true) {
      const size_t slot = next.fetch_add(1);
      if (slot >= jobs.size()) return;
      const Job& job = jobs[slot];
      const ExperimentSpec& spec = specs[job.spec_index];
      MetricsRecord record = BaseRecord(spec, job.point);
      const auto point_start = std::chrono::steady_clock::now();
      try {
        sim::ScopedThreadDeadline deadline(options.point_timeout_sec);
        const RunFn& run = spec.run ? spec.run : SaturationRun();
        record.metrics = run(job.point, sat_cache);
      } catch (const sim::DeadlineExceeded& e) {
        record.error = e.what();
        errors.fetch_add(1);
      } catch (const std::exception& e) {
        record.error = e.what();
        errors.fetch_add(1);
      }
      outcome.records[slot] = std::move(record);
      const size_t finished = done.fetch_add(1) + 1;
      if (options.progress) {
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          point_start)
                .count();
        std::lock_guard<std::mutex> lock(progress_mu);
        std::fprintf(stderr, "[%zu/%zu] %s point=%d rep=%d (%.1fs)%s\n",
                     finished, jobs.size(), spec.name.c_str(),
                     job.point.point, job.point.rep, secs,
                     outcome.records[slot].ok() ? "" : "  ERROR");
      }
    }
  };

  const int jobs_n = std::max(1, options.jobs);
  if (jobs_n == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs_n));
    for (int i = 0; i < jobs_n; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  outcome.errors = errors.load();
  outcome.sat_cache_hits = sat_cache.hits();
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

// ---- text tables --------------------------------------------------------

namespace {

std::string FormatCell(const JsonValue* v) {
  if (v == nullptr) return "-";
  char buf[32];
  switch (v->type()) {
    case JsonValue::Type::kInt:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(v->AsInt()));
      return buf;
    case JsonValue::Type::kDouble: {
      const double d = v->AsDouble();
      if (d != 0 && (d < 0.001 || d >= 1e7))
        std::snprintf(buf, sizeof(buf), "%.3g", d);
      else
        std::snprintf(buf, sizeof(buf), "%.*f", d >= 100 ? 1 : 3, d);
      return buf;
    }
    case JsonValue::Type::kString:
      return v->AsString();
    case JsonValue::Type::kBool:
      return v->AsBool() ? "true" : "false";
    default:
      return "-";
  }
}

}  // namespace

void PrintTables(const std::vector<ExperimentSpec>& specs,
                 const std::vector<MetricsRecord>& records) {
  size_t offset = 0;
  for (const auto& spec : specs) {
    const size_t n = spec.GridSize() * static_cast<size_t>(spec.repetitions);
    const auto begin = records.begin() + static_cast<ptrdiff_t>(offset);
    const std::vector<MetricsRecord> mine(
        begin, begin + static_cast<ptrdiff_t>(n));
    offset += n;

    std::printf("\n=== %s ===\n",
                spec.title.empty() ? spec.name.c_str() : spec.title.c_str());

    // Column set: axes, optional rep, then the spec's metric keys.
    std::vector<std::string> headers;
    for (const auto& axis : spec.axes) headers.push_back(axis.name);
    if (spec.repetitions > 1) headers.push_back("rep");
    for (const auto& m : spec.table_metrics) headers.push_back(m);

    std::vector<std::vector<std::string>> rows;
    for (const auto& r : mine) {
      std::vector<std::string> row;
      for (const auto& [name, label] : r.params) {
        (void)name;
        row.push_back(label);
      }
      if (spec.repetitions > 1) row.push_back(std::to_string(r.rep));
      if (!r.ok()) {
        while (row.size() < headers.size()) row.push_back("ERROR");
      } else {
        for (const auto& m : spec.table_metrics)
          row.push_back(FormatCell(r.metrics.FindPath(m)));
      }
      rows.push_back(std::move(row));
    }

    std::vector<size_t> widths(headers.size());
    for (size_t c = 0; c < headers.size(); ++c) {
      widths[c] = headers[c].size();
      for (const auto& row : rows)
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
    }
    for (size_t c = 0; c < headers.size(); ++c)
      std::printf("%s%*s", c == 0 ? "" : "  ",
                  static_cast<int>(widths[c]), headers[c].c_str());
    std::printf("\n");
    for (const auto& row : rows) {
      for (size_t c = 0; c < row.size(); ++c)
        std::printf("%s%*s", c == 0 ? "" : "  ",
                    static_cast<int>(widths[c]), row[c].c_str());
      std::printf("\n");
    }
    for (const auto& r : mine)
      if (!r.ok())
        std::printf("! point %d rep %d failed: %s\n", r.point, r.rep,
                    r.error.c_str());
    if (spec.epilogue) spec.epilogue(mine);
    std::fflush(stdout);
  }
}

}  // namespace orbit::harness
