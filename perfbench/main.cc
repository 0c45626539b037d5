// perfbench — one process of the benchmark; run.py orchestrates it.
//
//   perfbench setup    --workload W --seed N
//       One cold set-up: RunTestbed of the workload's config cut to a
//       window too short to carry traffic, in this fresh process.
//   perfbench build    --workload W --seed N
//       One cold ZipfWorkloadSource construction (workload.build_s).
//   perfbench run      --workload W --seed N --seconds S [--trace]
//       Builds the key space, then repeats timed RunTestbed passes for S
//       seconds, cycling through the run's sub-seeds and rotating over the
//       CPUs the process may use, then one verify pass; with --trace also
//       one traced pass and the per-layer probes.
//   perfbench saturate --workload W --seed N
//       testbed::FindSaturation at the workload's config.
//
// Every mode prints one JSON document as its last stdout line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "harness/json.h"
#include "probes.h"
#include "telemetry/counters.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"
#include "testbed/workload_source.h"
#include "workloads.h"

namespace orbit::perfbench {
namespace {

using harness::JsonValue;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

// Restricts the process to `cpus`; where that is refused, the scheduler
// keeps placing it.
bool RunOn(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// ---- set-up and key-space build ----------------------------------------

int Setup(const std::string& workload, uint64_t seed) {
  const testbed::TestbedConfig cfg = SetupConfig(workload, seed);
  const double t0 = Now();
  const testbed::TestbedResult res = testbed::RunTestbed(cfg);
  const double setup_s = Now() - t0;
  JsonValue out = JsonValue::MakeObject();
  out.Set("setup_s", setup_s);
  out.Set("events", res.events_processed);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int Build(const std::string& workload, uint64_t seed) {
  const testbed::TestbedConfig cfg = WorkloadConfig(workload, seed);
  const double t0 = Now();
  {
    testbed::ZipfWorkloadSource source(cfg, testbed::MakeValueSizeFn(cfg),
                                       nullptr);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("build_s", Now() - t0);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

int Saturate(const std::string& workload, uint64_t seed) {
  const testbed::SaturationResult sat =
      testbed::FindSaturation(WorkloadConfig(workload, seed));
  JsonValue out = JsonValue::MakeObject();
  out.Set("sat_tx_rps", sat.sat_tx_rps);
  out.Set("runs", sat.runs);
  out.Set("result", testbed::ResultMetrics(sat.result));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---- the traced pass ----------------------------------------------------

// Read access to the final counter snapshot of a traced pass. Counters are
// summed over instances: "switch.rx_packets" matches the single ToR's
// counter and every "leafR." / "spineS." copy.
class Counters {
 public:
  explicit Counters(const telemetry::RunCapture& cap) {
    if (!cap.snapshots.empty()) counters_ = &cap.snapshots.back().counters;
  }
  // Sum of counters named `suffix` or ending in "." + suffix, optionally
  // restricted to names starting with `prefix`.
  double Sum(const std::string& suffix, const std::string& prefix = "") const {
    double total = 0;
    if (counters_ == nullptr) return 0;
    for (const auto& [name, value] : *counters_) {
      if (name.size() < suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      if (name.size() > suffix.size() &&
          name[name.size() - suffix.size() - 1] != '.')
        continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      total += static_cast<double>(value);
    }
    return total;
  }

 private:
  const std::vector<std::pair<std::string, uint64_t>>* counters_ = nullptr;
};

// p99 of an always-on INT histogram in microseconds (0 when it recorded
// nothing, e.g. hop.recirc.ns on a scheme without an orbit loop).
double HistP99Us(const telemetry::RunCapture& cap, const std::string& name) {
  for (const telemetry::HistSnapshot& h : cap.int_capture.hists)
    if (h.name == name) return static_cast<double>(h.p99) / 1e3;
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics from the traced pass's capture plus the probes, and the
// layer-by-layer estimate of where the timed passes' wall time went.
JsonValue PerLayer(const testbed::TestbedConfig& cfg,
                   const testbed::TestbedResult& traced,
                   const telemetry::RunCapture& cap, double traced_wall_s,
                   double median_wall_s) {
  const Counters c(cap);
  const double events = static_cast<double>(traced.events_processed);
  const double tx = c.Sum("tx_requests", "client.");
  const double retrans = c.Sum("retransmissions", "client.");
  const double timeouts = c.Sum("timeouts", "client.");
  const double recirc = c.Sum("switch.recirc.passes");
  const double served = c.Sum("orbit.served_by_cache");
  const double absorbed = c.Sum("orbit.absorbed");
  const double srv_requests = c.Sum("requests", "server.");
  const double srv_drops = c.Sum("drop.rx_queue", "server.");
  const double srv_reads = c.Sum("reads", "server.");
  const double srv_writes = c.Sum("writes", "server.");
  const double nc_reads = c.Sum("netcache.read_requests");
  const double nc_writes =
      c.Sum("netcache.writes_cached") + c.Sum("netcache.writes_uncached");
  const double link_sends = c.Sum("switch.tx_packets") + tx + retrans +
                            c.Sum("replies", "server.") +
                            2 * c.Sum("fabric.failover.probes_sent");

  ProbeContext pc;
  pc.config = cfg;
  pc.events_per_request = Ratio(events, tx);
  pc.idle_passes = std::max(0.0, recirc - served);
  pc.serving_passes = served;
  pc.absorbed_reads = absorbed;
  const ProbeResults p = RunProbes(pc);

  JsonValue m = JsonValue::MakeObject();
  auto put = [&m](const char* name, double value, const char* unit) {
    JsonValue v = JsonValue::MakeObject();
    v.Set("value", value);
    v.Set("unit", unit);
    m.Set(name, std::move(v));
  };
  put("sim.events", events, "count");
  put("sim.events_per_req", Ratio(events, tx), "events/req");
  put("sim.ns_per_event", Ratio(median_wall_s * 1e9, events), "ns");
  put("sim.hold_ns", p.hold_ns, "ns");
  put("sim.link_ns", p.link_ns, "ns");
  put("rmt.pipeline_passes", c.Sum("switch.rx_packets"), "count");
  put("rmt.recirc_passes", recirc, "count");
  put("rmt.recirc_pass_ns", p.recirc_pass_ns, "ns");
  put("rmt.pre_clones", c.Sum("switch.pre.clones"), "count");
  put("hop.recirc_p99_us", HistP99Us(cap, "hop.recirc.ns"), "us");
  put("orbit.ingress_ns", p.orbit_ingress_ns, "ns");
  put("orbit.reqtable_ns", p.reqtable_ns, "ns");
  put("orbit.serve_per_pass", Ratio(served, recirc), "ratio");
  put("orbit.absorb_frac",
      Ratio(absorbed, c.Sum("orbit.read_requests")), "ratio");
  put("netcache.ingress_ns", p.netcache_ingress_ns, "ns");
  put("netcache.served_frac",
      Ratio(c.Sum("netcache.served_by_cache"), nc_reads), "ratio");
  put("kv.get_ns", p.kv_get_ns, "ns");
  put("kv.put_ns", p.kv_put_ns, "ns");
  put("apps.server_requests", srv_requests, "count");
  put("apps.server_ns", p.server_ns, "ns");
  put("apps.client_req_ns", p.client_req_ns, "ns");
  put("apps.deadline_useful_frac",
      Ratio(timeouts + retrans, tx + retrans), "ratio");
  put("apps.server_drop_frac", Ratio(srv_drops, srv_requests + srv_drops),
      "ratio");
  put("hop.srv_queue_p99_us", HistP99Us(cap, "hop.srv_queue.ns"), "us");
  put("apps.retransmissions", retrans, "count");
  put("workload.next_ns", p.next_ns, "ns");
  put("fabric.spine_passes", c.Sum("switch.rx_packets", "spine"), "count");
  put("fabric.probes_sent", c.Sum("fabric.failover.probes_sent"), "count");
  put("fabric.blackholed", c.Sum("fabric.failover.blackholed_packets"),
      "count");
  put("hop.link_p99_us", HistP99Us(cap, "hop.link.ns"), "us");
  put("telemetry.traced_wall_frac", Ratio(traced_wall_s, median_wall_s) - 1,
      "ratio");

  // Estimated host seconds per layer: count x probe cost, with the event
  // core's share and nested layers taken out of probes that include them,
  // so the rows do not count one nanosecond twice.
  const double hold = p.probe_hold_ns;
  auto self = [hold](double ns, double events_per_op, double nested) {
    return std::max(0.0, ns - events_per_op * hold - nested);
  };
  const double link_self = self(p.link_ns, p.link_events_per_op, 0);
  const double get_share = Ratio(srv_reads, srv_reads + srv_writes);
  const double kv_ns = get_share * p.kv_get_ns + (1 - get_share) * p.kv_put_ns;
  JsonValue layers = JsonValue::MakeArray();
  auto row = [&layers](const char* layer, const char* work, double count,
                       double ns) {
    JsonValue r = JsonValue::MakeObject();
    r.Set("layer", layer);
    r.Set("work", work);
    r.Set("count", count);
    r.Set("ns_per_op", ns);
    r.Set("est_s", count * ns * 1e-9);
    layers.Append(std::move(r));
  };
  row("sim", "events (push + pop)", events, p.hold_ns);
  row("sim", "link sends", link_sends, link_self);
  row("rmt", "idle orbit passes", pc.idle_passes,
      self(p.recirc_pass_ns, p.recirc_events_per_op, p.orbit_idle_ns));
  row("orbitcache", "ingress calls", recirc + c.Sum("orbit.read_requests"),
      p.orbit_ingress_ns);
  row("netcache", "ingress calls", nc_reads + nc_writes, p.netcache_ingress_ns);
  row("kv", "server gets + puts", srv_reads + srv_writes, kv_ns);
  row("apps", "server requests", srv_requests,
      self(p.server_ns, p.server_events_per_op, kv_ns + link_self));
  row("apps", "client sends", tx + retrans,
      self(p.client_req_ns, p.client_events_per_op, p.next_ns + link_self));
  row("workload", "key draws", tx, p.next_ns);

  JsonValue out = JsonValue::MakeObject();
  out.Set("metrics", std::move(m));
  out.Set("layers", std::move(layers));
  out.Set("traced_wall_s", traced_wall_s);
  return out;
}

// ---- timed, verify and traced passes ------------------------------------

int Run(const std::string& workload, uint64_t seed, double seconds,
        bool trace, int corrupt_pass) {
  std::vector<testbed::TestbedConfig> cfgs;
  for (int k = 0; k < kSubSeeds; ++k)
    cfgs.push_back(WorkloadConfig(workload, SubSeed(seed, k)));
  const testbed::TestbedConfig& cfg = cfgs[0];
  JsonValue out = JsonValue::MakeObject();
  out.Set("workload", workload);
  out.Set("seed", std::to_string(seed));
  out.Set("sub_seeds", kSubSeeds);
  out.Set("offered_rps", cfg.topo.client_rate_rps);
  out.Set("compiler", PERFBENCH_COMPILER);
  out.Set("build_type", PERFBENCH_BUILD_TYPE);

  // Build the key space first, so no timed pass pays the process-wide
  // zeta memo that only the first construction computes.
  testbed::RunTestbed(SetupConfig(workload, seed));

  // Every pass of one sub-seed must produce the same ResultMetrics JSON.
  std::vector<std::string> mismatches;
  std::vector<std::string> reference(kSubSeeds);
  auto check = [&](int k, const std::string& label, std::string json) {
    std::string& ref = reference[static_cast<size_t>(k)];
    if (ref.empty()) {
      ref = std::move(json);
    } else if (json != ref) {
      mismatches.push_back(label + ": ResultMetrics JSON differs from the "
                           "first pass of sub-seed " + std::to_string(k));
    }
  };

  // Timed passes cycle through the sub-seeds until the budget is spent,
  // and run every sub-seed at least twice, so each one is checked. They
  // also rotate over the CPUs the process may use, one pass on each in
  // turn, shifted by one every round so each sub-seed visits every CPU.
  // A shared host can slow one CPU for minutes while a neighbour loads the
  // physical core behind it, and a busy process would otherwise stay there
  // for the whole run; rotating leaves that CPU only its share of the
  // passes, which the median drops.
  const std::vector<int> cpus = AllowedCpus();
  JsonValue passes = JsonValue::MakeArray();
  std::vector<double> walls;
  std::vector<testbed::TestbedResult> firsts;
  double attempted = 0;
  const double window_s = static_cast<double>(cfg.duration) / kSecond;
  const double budget_start = Now();
  for (int i = 0;; ++i) {
    if (i >= 2 * kSubSeeds && Now() - budget_start >= seconds) break;
    const int k = i % kSubSeeds;
    if (!cpus.empty())
      RunOn({cpus[static_cast<size_t>(i + i / kSubSeeds) % cpus.size()]});
    const int on_cpu = sched_getcpu();
    const double w0 = Now();
    const double c0 = CpuNow();
    testbed::TestbedResult res =
        testbed::RunTestbed(cfgs[static_cast<size_t>(k)]);
    const double cpu = CpuNow() - c0;
    const double wall = Now() - w0;
    std::string json = testbed::ResultMetrics(res).Dump();
    if (i == corrupt_pass) json += " ";  // self-test: the check must fire
    check(k, "timed pass " + std::to_string(i), std::move(json));
    JsonValue p = JsonValue::MakeObject();
    p.Set("wall_s", wall);
    p.Set("cpu_s", cpu);
    p.Set("on_cpu", on_cpu);
    passes.Append(std::move(p));
    walls.push_back(wall);
    attempted += std::round(res.tx_rps * window_s);
    if (i < kSubSeeds) firsts.push_back(std::move(res));
    // Peak memory after one pass of every sub-seed, so it does not depend
    // on how many passes the budget fits.
    if (i + 1 == kSubSeeds) out.Set("peak_rss_mb", PeakRssMb());
  }
  if (!cpus.empty()) RunOn(cpus);
  out.Set("passes", std::move(passes));
  out.Set("attempted", attempted);

  // Simulated outcome: goodput averaged over the sub-seeds; the rest is
  // the run's own seed (sub-seed 0), which the traced pass also runs.
  const testbed::TestbedResult& first = firsts[0];
  double rx_mrps = 0;
  for (const testbed::TestbedResult& r : firsts) rx_mrps += r.rx_rps / 1e6;
  const JsonValue metrics = testbed::ResultMetrics(first);
  JsonValue sim = JsonValue::MakeObject();
  sim.Set("rx_mrps", rx_mrps / kSubSeeds);
  sim.Set("read_p50_us", metrics.Find("read_p50_us")->AsDouble());
  sim.Set("read_p99_us", metrics.Find("read_p99_us")->AsDouble());
  sim.Set("read_samples", first.read_cached_latency.count() +
                              first.read_server_latency.count());
  sim.Set("loss", metrics.Find("loss")->AsDouble());
  sim.Set("events", first.events_processed);
  out.Set("sim", std::move(sim));

  // Verification pass: the shadow oracle must see zero violations, and
  // observing must not change the result.
  {
    testbed::TestbedConfig vcfg = cfg;
    vcfg.verify.enabled = true;
    vcfg.verify.fail_fast = false;
    const testbed::TestbedResult res = testbed::RunTestbed(vcfg);
    check(0, "verify pass", testbed::ResultMetrics(res).Dump());
    if (res.verify_violations != 0)
      mismatches.push_back("verify pass: " +
                           std::to_string(res.verify_violations) +
                           " violations\n" + res.verify_report);
    JsonValue v = JsonValue::MakeObject();
    v.Set("violations", res.verify_violations);
    v.Set("replies_checked", res.verify_replies_checked);
    out.Set("verify", std::move(v));
  }

  if (trace) {
    telemetry::RunCapture cap;
    testbed::TestbedConfig tcfg = cfg;
    tcfg.telemetry.capture = &cap;
    tcfg.telemetry.histograms = true;
    const double t0 = Now();
    const testbed::TestbedResult res = testbed::RunTestbed(tcfg);
    const double traced_wall = Now() - t0;
    check(0, "traced pass", testbed::ResultMetrics(res).Dump());
    out.Set("trace", PerLayer(cfg, res, cap, traced_wall, Median(walls)));
  }

  JsonValue errs = JsonValue::MakeArray();
  for (const std::string& e : mismatches) errs.Append(e);
  out.Set("correct", mismatches.empty());
  out.Set("mismatches", std::move(errs));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

harness::Flags MakeFlags() {
  harness::Flags flags;
  flags.AddString("workload", "", "NAME", "orbit_read | netcache_write_10m | "
                  "fabric_failover");
  flags.AddUint64("seed", 42, "N", "workload seed (default 42)");
  flags.AddDouble("seconds", 10, "SEC", "run: timed-pass budget");
  flags.AddBool("trace", "run: add the traced pass and the probes");
  flags.AddInt("corrupt-pass", -1, "N",
               "self-test: alter timed pass N's result JSON");
  flags.AddBool("help", "this message").Alias("-h");
  return flags;
}

int Main(int argc, char** argv) {
  harness::Flags flags = MakeFlags();
  if (!flags.Parse(argc, argv) || flags.positionals().size() != 1 ||
      flags.GetBool("help")) {
    std::fprintf(stderr,
                 "%s\nusage: %s setup|build|run|saturate --workload NAME "
                 "[flags]\n%s",
                 flags.error().c_str(), argv[0], MakeFlags().Usage().c_str());
    return flags.GetBool("help") ? 0 : 2;
  }
  const std::string mode = flags.positionals()[0];
  const std::string workload = flags.GetString("workload");
  const uint64_t seed = flags.GetUint64("seed");
  if (!IsWorkload(workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (mode == "setup") return Setup(workload, seed);
  if (mode == "build") return Build(workload, seed);
  if (mode == "saturate") return Saturate(workload, seed);
  if (mode == "run")
    return Run(workload, seed, flags.GetDouble("seconds"),
               flags.GetBool("trace"), flags.GetInt("corrupt-pass"));
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace orbit::perfbench

int main(int argc, char** argv) {
  try {
    return orbit::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
