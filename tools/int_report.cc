// Summarize the hop-event stream (INT postcard JSONL from --int-out).
//
//   int_report int.jsonl [--compare prior_int.jsonl]
//
// For every point (experiment/point/rep) the tool aggregates hop records
// across that point's sampled flows and prints a per-hop percentile table
// (count, p50/p90/p99/max of the latency each hop added, mean queue depth
// on arrival, drops stamped there), led by one end-to-end
// "request:<outcome>" row per outcome (finish - start of each finished
// flow). Below the tables a fabric heatmap renders each row's p99 latency
// as a proportional bar, so one glance shows where time is spent across
// client NICs, links, pipelines, the request-table wait, the
// recirculation orbit, and server queues.
//
// --compare aggregates both files hop-by-hop (across all points) and
// prints p50/p99 side by side with relative deltas — the quick regression
// view between two runs.
//
// Exit 0 on success (and for -h/--help), 2 on a usage error or on
// unreadable, empty, or malformed input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "harness/telemetry_io.h"

namespace {

using orbit::harness::JsonValue;

struct HopAgg {
  std::vector<int64_t> latencies;  // sorted lazily at print time
  double queue_sum = 0;
  uint64_t drops = 0;

  void Add(int64_t latency_ns, double queue_depth, bool dropped) {
    if (dropped) {
      ++drops;
    } else {
      latencies.push_back(latency_ns);
    }
    queue_sum += queue_depth;
  }
  uint64_t count() const {
    return latencies.size() + drops;
  }
  int64_t Percentile(double q) const {
    if (latencies.empty()) return 0;
    const size_t rank = std::min(
        latencies.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies.size())));
    return latencies[rank];
  }
};

// Insertion-ordered hop aggregation (hop names appear in stamp order, which
// is deterministic; std::map would alphabetize and shuffle the fabric view).
struct Group {
  std::string label;
  std::vector<std::pair<std::string, HopAgg>> hops;
  uint64_t flows = 0;
  uint64_t truncated = 0;

  HopAgg& Hop(const std::string& name) {
    for (auto& [n, agg] : hops)
      if (n == name) return agg;
    hops.emplace_back(name, HopAgg{});
    return hops.back().second;
  }
  // The end-to-end rows lead the table, in first-seen order.
  HopAgg& Request(const std::string& outcome) {
    const std::string name = "request:" + outcome;
    auto it = hops.begin();
    for (; it != hops.end() && it->first.rfind("request:", 0) == 0; ++it)
      if (it->first == name) return it->second;
    return hops.insert(it, {name, HopAgg{}})->second;
  }
};

bool LoadIntJsonl(const char* path, std::vector<JsonValue>* lines) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return false;
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string error;
  if (!orbit::harness::ParseCountersJsonl(text, lines, &error)) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return false;
  }
  if (lines->empty()) {
    std::fprintf(stderr,
                 "%s: no INT postcards — empty or truncated JSONL? "
                 "(produce it with --int-out; unsampled runs record none)\n",
                 path);
    return false;
  }
  return true;
}

std::string GroupKey(const JsonValue& line) {
  std::string key;
  if (const JsonValue* v = line.Find("experiment")) key += v->AsString();
  for (const char* field : {"point", "rep"}) {
    key += '|';
    if (const JsonValue* v = line.Find(field))
      key += std::to_string(v->AsInt());
  }
  return key;
}

std::string GroupLabel(const JsonValue& line) {
  std::string label;
  if (const JsonValue* v = line.Find("experiment")) label = v->AsString();
  if (const JsonValue* v = line.Find("point"))
    label += " point=" + std::to_string(v->AsInt());
  if (const JsonValue* v = line.Find("rep"))
    label += " rep=" + std::to_string(v->AsInt());
  if (const JsonValue* params = line.Find("params"))
    if (params->is_object())
      for (const auto& [name, value] : params->object())
        label += " " + name + "=" +
                 (value.is_string() ? value.AsString() : value.Dump());
  return label;
}

// Folds one postcard line's end-to-end latency and hops into `group`.
void Accumulate(const JsonValue& line, Group* group) {
  ++group->flows;
  if (const JsonValue* t = line.Find("truncated_hops"))
    group->truncated += static_cast<uint64_t>(t->AsInt());
  const JsonValue* start = line.Find("start_ns");
  const JsonValue* finish = line.Find("finish_ns");
  const JsonValue* outcome = line.Find("outcome");
  if (start != nullptr && finish != nullptr && outcome != nullptr &&
      finish->AsInt() > 0)
    group->Request(outcome->AsString())
        .Add(finish->AsInt() - start->AsInt(), 0, false);
  const JsonValue* hops = line.Find("hops");
  if (hops == nullptr || !hops->is_array()) return;
  for (const JsonValue& h : hops->array()) {
    if (!h.is_object()) continue;
    const JsonValue* name = h.Find("hop");
    if (name == nullptr) continue;
    const JsonValue* lat = h.Find("latency_ns");
    const JsonValue* depth = h.Find("queue_depth");
    const JsonValue* drop = h.Find("drop");
    const JsonValue* kind = h.Find("kind");
    group->Hop(name->AsString())
        .Add(lat != nullptr ? lat->AsInt() : 0,
             depth != nullptr ? depth->AsDouble() : 0,
             (drop != nullptr && drop->AsInt() != 0) ||
                 (kind != nullptr && kind->AsString() == "drop"));
  }
}

void PrintGroup(Group& group) {
  std::printf("=== %s (%llu flows", group.label.c_str(),
              static_cast<unsigned long long>(group.flows));
  if (group.truncated > 0)
    std::printf(", %llu hops truncated",
                static_cast<unsigned long long>(group.truncated));
  std::printf(") ===\n");
  std::printf("  %-28s %8s %10s %10s %10s %10s %10s %7s\n", "hop", "count",
              "p50_us", "p90_us", "p99_us", "max_us", "avg_depth", "drops");
  int64_t max_p99 = 1;
  std::vector<int64_t> p99s;
  for (auto& [name, agg] : group.hops) {
    (void)name;
    std::sort(agg.latencies.begin(), agg.latencies.end());
    const int64_t p99 = agg.Percentile(0.99);
    p99s.push_back(p99);
    max_p99 = std::max(max_p99, p99);
  }
  size_t i = 0;
  for (const auto& [name, agg] : group.hops) {
    std::printf(
        "  %-28s %8llu %10.1f %10.1f %10.1f %10.1f %10.1f %7llu\n",
        name.c_str(), static_cast<unsigned long long>(agg.count()),
        static_cast<double>(agg.Percentile(0.50)) / 1000.0,
        static_cast<double>(agg.Percentile(0.90)) / 1000.0,
        static_cast<double>(p99s[i]) / 1000.0,
        static_cast<double>(agg.latencies.empty() ? 0
                                                  : agg.latencies.back()) /
            1000.0,
        agg.count() > 0 ? agg.queue_sum / static_cast<double>(agg.count())
                        : 0.0,
        static_cast<unsigned long long>(agg.drops));
    ++i;
  }
  // Fabric heatmap: each hop's p99 as a bar proportional to the worst hop.
  std::printf("  -- p99 latency heatmap --\n");
  i = 0;
  for (const auto& [name, agg] : group.hops) {
    (void)agg;
    const int width = static_cast<int>(
        std::lround(40.0 * static_cast<double>(p99s[i]) /
                    static_cast<double>(max_p99)));
    std::printf("  %-28s |%-40s| %.1fus\n", name.c_str(),
                std::string(static_cast<size_t>(std::max(width, 0)), '#')
                    .c_str(),
                static_cast<double>(p99s[i]) / 1000.0);
    ++i;
  }
  std::printf("\n");
}

// Whole-file per-hop aggregate for --compare (points merged).
Group AggregateAll(const std::vector<JsonValue>& lines) {
  Group all;
  all.label = "all points";
  for (const JsonValue& line : lines) Accumulate(line, &all);
  for (auto& [name, agg] : all.hops) {
    (void)name;
    std::sort(agg.latencies.begin(), agg.latencies.end());
  }
  return all;
}

int Compare(const std::vector<JsonValue>& now_lines,
            const std::vector<JsonValue>& prior_lines) {
  Group now = AggregateAll(now_lines);
  Group prior = AggregateAll(prior_lines);
  std::printf("%-28s %12s %12s %8s %12s %12s %8s\n", "hop", "p50_us(A)",
              "p50_us(B)", "d50", "p99_us(A)", "p99_us(B)", "d99");
  auto delta = [](int64_t a, int64_t b) -> std::string {
    if (b == 0) return a == 0 ? "=" : "new";
    const double rel = 100.0 * (static_cast<double>(a - b)) /
                       static_cast<double>(b);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", rel);
    return buf;
  };
  for (const auto& [name, agg] : now.hops) {
    HopAgg* other = nullptr;
    for (auto& [n, o] : prior.hops)
      if (n == name) other = &o;
    const int64_t p50 = agg.Percentile(0.50), p99 = agg.Percentile(0.99);
    const int64_t q50 = other != nullptr ? other->Percentile(0.50) : 0;
    const int64_t q99 = other != nullptr ? other->Percentile(0.99) : 0;
    std::printf("%-28s %12.1f %12.1f %8s %12.1f %12.1f %8s\n", name.c_str(),
                static_cast<double>(p50) / 1000.0,
                static_cast<double>(q50) / 1000.0, delta(p50, q50).c_str(),
                static_cast<double>(p99) / 1000.0,
                static_cast<double>(q99) / 1000.0, delta(p99, q99).c_str());
  }
  for (const auto& [name, agg] : prior.hops) {
    (void)agg;
    bool found = false;
    for (const auto& [n, o] : now.hops) {
      (void)o;
      if (n == name) found = true;
    }
    if (!found) std::printf("%-28s only in B\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  orbit::harness::Flags flags;
  flags.AddString("compare", "", "FILE",
                  "prior int.jsonl to compare against, hop by hop");
  flags.AddBool("help", "this message").Alias("-h");
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s int.jsonl [--compare prior_int.jsonl]\n%s",
                 argv[0], flags.Usage().c_str());
  };
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], flags.error().c_str());
    usage();
    return 2;
  }
  if (flags.GetBool("help")) {
    usage();
    return 0;
  }
  if (flags.positionals().size() != 1) {
    usage();
    return 2;
  }
  const std::string& in_path = flags.positionals()[0];
  const std::string& compare_path = flags.GetString("compare");

  std::vector<JsonValue> lines;
  if (!LoadIntJsonl(in_path.c_str(), &lines)) return 2;

  if (!compare_path.empty()) {
    std::vector<JsonValue> prior;
    if (!LoadIntJsonl(compare_path.c_str(), &prior)) return 2;
    return Compare(lines, prior);
  }

  // Group lines by point, preserving file order.
  std::vector<Group> groups;
  std::map<std::string, size_t> index;
  for (const JsonValue& line : lines) {
    const std::string key = GroupKey(line);
    auto [it, fresh] = index.emplace(key, groups.size());
    if (fresh) {
      groups.emplace_back();
      groups.back().label = GroupLabel(line);
    }
    Accumulate(line, &groups[it->second]);
  }
  for (Group& g : groups) PrintGroup(g);
  return 0;
}
