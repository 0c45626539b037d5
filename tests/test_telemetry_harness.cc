// Telemetry integration: an instrumented testbed run fills the capture
// with the hop-event stream and counter snapshots; instrumentation never
// perturbs results; the Chrome export carries exactly the stream's flows
// and the run's faults; captures are deterministic across repeats and job
// counts; and the harness's record JSONL is byte-identical with telemetry
// on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness/json.h"
#include "harness/metrics.h"
#include "harness/runner.h"
#include "harness/telemetry_io.h"
#include "telemetry/counters.h"
#include "telemetry/export.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit::harness {
namespace {

testbed::TestbedConfig TinyConfig(testbed::Scheme scheme) {
  testbed::TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.topo.num_clients = 2;
  cfg.topo.num_servers = 4;
  cfg.workload.num_keys = 2'000;
  cfg.topo.server_rate_rps = 100'000;
  cfg.topo.client_rate_rps = 400'000;
  cfg.warmup = 2 * kMillisecond;
  cfg.duration = 10 * kMillisecond;
  return cfg;
}

uint64_t FinalCounter(const telemetry::RunCapture& cap,
                      const std::string& name) {
  if (cap.snapshots.empty()) return 0;
  for (const auto& [n, v] : cap.snapshots.back().counters)
    if (n == name) return v;
  return 0;
}

TEST(TelemetryTestbed, InstrumentedRunFillsCapture) {
  telemetry::RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kOrbitCache);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 16;
  cfg.telemetry.snapshot_interval = 2 * kMillisecond;
  testbed::RunTestbed(cfg);

  ASSERT_FALSE(cap.empty());
  // The switch interns one hop name per stamping site.
  const telemetry::IntCapture& ic = cap.int_capture;
  for (const char* name :
       {"tor.pipeline", "tor.recirc", "tor.program", "tor.cache_wait"}) {
    EXPECT_NE(std::find(ic.hop_names.begin(), ic.hop_names.end(), name),
              ic.hop_names.end())
        << name;
  }

  // Sampled requests produced full lifecycles: finished flows with
  // outcomes and at least one switch pipeline pass each.
  ASSERT_GT(ic.flows.size(), 10u);
  size_t finished = 0, with_pipeline = 0;
  for (const auto& flow : ic.flows) {
    if (flow.finished_at > 0 && *flow.outcome != '\0') ++finished;
    for (const auto& hop : flow.hops) {
      if (hop.kind == telemetry::IntHopKind::kPipeline) {
        ++with_pipeline;
        break;
      }
    }
  }
  EXPECT_GT(finished, ic.flows.size() / 2);
  EXPECT_GT(with_pipeline, ic.flows.size() / 2);

  // Periodic + final snapshots, in sim-time order, with live counters.
  ASSERT_GE(cap.snapshots.size(), 3u);
  for (size_t i = 1; i < cap.snapshots.size(); ++i)
    EXPECT_GE(cap.snapshots[i].at, cap.snapshots[i - 1].at);
  EXPECT_GT(FinalCounter(cap, "switch.rx_packets"), 0u);
  EXPECT_GT(FinalCounter(cap, "orbit.read_requests"), 0u);
  EXPECT_GT(FinalCounter(cap, "server.0.requests"), 0u);
  EXPECT_GT(FinalCounter(cap, "client.0.tx_requests"), 0u);
  EXPECT_GT(FinalCounter(cap, "rmt.s0.cache_lookup.lookups"), 0u);
}

TEST(TelemetryTestbed, InstrumentationIsResultsNeutral) {
  const testbed::TestbedConfig base = TinyConfig(testbed::Scheme::kOrbitCache);
  const testbed::TestbedResult plain = testbed::RunTestbed(base);

  // Every telemetry option on at once.
  telemetry::RunCapture cap;
  testbed::TestbedConfig instrumented = base;
  instrumented.telemetry.capture = &cap;
  instrumented.telemetry.trace_sample = 4;  // heavy sampling on purpose
  instrumented.telemetry.snapshot_interval = 1 * kMillisecond;
  instrumented.telemetry.histograms = true;
  instrumented.telemetry.flight_recorder = true;
  const testbed::TestbedResult traced = testbed::RunTestbed(instrumented);

  // Identical simulations: every serialized metric matches exactly.
  EXPECT_EQ(testbed::ResultMetrics(plain).Dump(),
            testbed::ResultMetrics(traced).Dump());
  EXPECT_EQ(plain.events_processed, traced.events_processed);
  // Telemetry must not alter a config's identity either.
  EXPECT_EQ(testbed::ConfigFingerprint(base),
            testbed::ConfigFingerprint(instrumented));
  EXPECT_FALSE(cap.int_capture.flows.empty());
  EXPECT_FALSE(cap.int_capture.hists.empty());
  EXPECT_FALSE(cap.snapshots.empty());
  EXPECT_FALSE(cap.flight_dump.empty());
}

// value.bytes holds one sample per reply that a server sends or a cache
// serves: a switch that only forwards a reply (a NoCache ToR, a spine, a
// leaf on the reply's way out) records nothing.
void ExpectOneValueSamplePerReply(testbed::TestbedConfig cfg) {
  telemetry::RunCapture cap;
  cfg.telemetry.capture = &cap;
  cfg.telemetry.histograms = true;
  testbed::RunTestbed(cfg);

  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  ASSERT_FALSE(cap.snapshots.empty());
  uint64_t replies = 0;
  for (const auto& [name, v] : cap.snapshots.back().counters) {
    if ((name.rfind("server.", 0) == 0 && ends_with(name, ".replies")) ||
        ends_with(name, "orbit.served_by_cache") ||
        ends_with(name, "netcache.served_by_cache"))
      replies += v;
  }
  const auto it = std::find_if(
      cap.int_capture.hists.begin(), cap.int_capture.hists.end(),
      [](const telemetry::HistSnapshot& h) { return h.name == "value.bytes"; });
  ASSERT_NE(it, cap.int_capture.hists.end());
  EXPECT_GT(replies, 0u);
  EXPECT_EQ(it->count, replies) << testbed::SchemeName(cfg.scheme);
}

TEST(TelemetryTestbed, ValueBytesCountsEachReplyOnce) {
  ExpectOneValueSamplePerReply(TinyConfig(testbed::Scheme::kNoCache));
  testbed::TestbedConfig fabric = TinyConfig(testbed::Scheme::kOrbitCache);
  fabric.topo.fabric.num_racks = 2;
  fabric.topo.fabric.num_spines = 1;
  ExpectOneValueSamplePerReply(fabric);
}

// Parses a Chrome export and returns its events, metadata rows included.
std::vector<JsonValue> ChromeEvents(const telemetry::RunCapture& cap) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(telemetry::ChromeTraceJson({{"p", &cap.int_capture}}),
                        &doc, &error))
      << error;
  const JsonValue* events = doc.Find("traceEvents");
  return events != nullptr ? events->array() : std::vector<JsonValue>{};
}

// The Chrome export is a view of the same stream the postcards carry: its
// flow ids are exactly the captured flows, and an absorbed read shows the
// request-table wait that explains its latency before the reply lands.
TEST(TelemetryTestbed, ChromeExportCarriesTheStreamsFlows) {
  telemetry::RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kOrbitCache);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 8;
  testbed::RunTestbed(cfg);

  const telemetry::IntCapture& ic = cap.int_capture;
  ASSERT_FALSE(ic.flows.empty());
  std::set<int64_t> stream_ids, chrome_ids;
  for (const auto& flow : ic.flows)
    stream_ids.insert(static_cast<int64_t>(flow.flow_id));
  for (const JsonValue& ev : ChromeEvents(cap)) {
    const JsonValue* flow = ev.FindPath("args.flow");
    if (flow != nullptr) chrome_ids.insert(flow->AsInt());
  }
  EXPECT_EQ(chrome_ids, stream_ids);

  bool waited = false;
  for (const auto& flow : ic.flows) {
    if (std::string(flow.outcome) != "read_cached") continue;
    bool seen_wait = false;
    for (const auto& hop : flow.hops) {
      if (hop.kind == telemetry::IntHopKind::kCacheWait) seen_wait = true;
      if (hop.kind == telemetry::IntHopKind::kClientRx && seen_wait)
        waited = true;
    }
    if (waited) break;
  }
  EXPECT_TRUE(waited) << "no read_cached flow with cache_wait before client_rx";
}

// Injected faults belong to no request: they land on the export's
// "faults" row as instants at the moment they fired.
TEST(TelemetryTestbed, ChromeExportPutsFaultsOnTheirRow) {
  telemetry::RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kOrbitCache);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 16;
  cfg.fault = fault::SwitchResetAt(5 * kMillisecond, kMillisecond);
  testbed::RunTestbed(cfg);

  const std::vector<JsonValue> events = ChromeEvents(cap);
  int64_t faults_tid = -1;
  for (const JsonValue& ev : events) {
    const JsonValue* name = ev.FindPath("args.name");
    if (ev.Find("ph")->AsString() == "M" && name != nullptr &&
        name->AsString() == "faults")
      faults_tid = ev.Find("tid")->AsInt();
  }
  ASSERT_GE(faults_tid, 0) << "no faults row";
  std::vector<std::string> marks;
  for (const JsonValue& ev : events) {
    if (ev.Find("ph")->AsString() == "M" ||
        ev.Find("tid")->AsInt() != faults_tid)
      continue;
    EXPECT_EQ(ev.Find("ph")->AsString(), "i");
    const int64_t at_ns = std::llround(ev.Find("ts")->AsDouble() * 1e3);
    marks.push_back(ev.Find("name")->AsString() + "@" +
                    std::to_string(at_ns));
  }
  EXPECT_EQ(marks, (std::vector<std::string>{"switch_reset@5000000",
                                             "cache_rebuild@6000000"}));
}

TEST(TelemetryTestbed, CaptureIsDeterministic) {
  auto run = [](telemetry::RunCapture* cap) {
    testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kNetCache);
    cfg.telemetry.capture = cap;
    cfg.telemetry.trace_sample = 8;
    cfg.telemetry.snapshot_interval = 2 * kMillisecond;
    testbed::RunTestbed(cfg);
  };
  telemetry::RunCapture a, b;
  run(&a);
  run(&b);
  EXPECT_EQ(telemetry::ChromeTraceJson({{"p", &a.int_capture}}),
            telemetry::ChromeTraceJson({{"p", &b.int_capture}}));
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].at, b.snapshots[i].at);
    EXPECT_EQ(a.snapshots[i].counters, b.snapshots[i].counters);
    EXPECT_EQ(a.snapshots[i].gauges, b.snapshots[i].gauges);
  }
}

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.name = "unit_telemetry";
  spec.apply_paper_scale = false;
  spec.base = TinyConfig(testbed::Scheme::kOrbitCache);
  spec.axes = {SchemeAxis(
      {testbed::Scheme::kOrbitCache, testbed::Scheme::kNoCache})};
  spec.run = FixedLoadRun();
  return spec;
}

TEST(TelemetryRunner, RecordsAreByteIdenticalWithTelemetryOnOrOff) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions off;
  off.progress = false;
  RunnerOptions on = off;
  on.capture_telemetry = true;
  on.telemetry.trace_sample = 8;
  on.telemetry.snapshot_interval = 2 * kMillisecond;

  const RunOutcome a = RunExperiments(specs, off);
  const RunOutcome b = RunExperiments(specs, on);
  EXPECT_TRUE(a.captures.empty());
  ASSERT_EQ(b.captures.size(), b.records.size());
  EXPECT_FALSE(b.captures[0].empty());
  // The headline promise: telemetry is a pure side channel.
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
}

TEST(TelemetryRunner, CountersIdenticalSerialVsParallel) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions serial;
  serial.progress = false;
  serial.capture_telemetry = true;
  serial.telemetry.trace_sample = 8;
  serial.telemetry.snapshot_interval = 2 * kMillisecond;
  RunnerOptions parallel = serial;
  parallel.jobs = 4;

  const RunOutcome a = RunExperiments(specs, serial);
  const RunOutcome b = RunExperiments(specs, parallel);
  ASSERT_EQ(a.captures.size(), b.captures.size());
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
  EXPECT_EQ(CountersJsonl(a.records, a.captures),
            CountersJsonl(b.records, b.captures));
  EXPECT_EQ(MergedChromeTrace(a.records, a.captures),
            MergedChromeTrace(b.records, b.captures));
}

TEST(TelemetryIo, CountersJsonlRoundTripsAndCarriesIdentity) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions options;
  options.progress = false;
  options.capture_telemetry = true;
  options.telemetry.trace_sample = 0;  // counters only
  const RunOutcome out = RunExperiments(specs, options);

  const std::string jsonl = CountersJsonl(out.records, out.captures);
  ASSERT_FALSE(jsonl.empty());
  std::vector<JsonValue> lines;
  std::string error;
  ASSERT_TRUE(ParseCountersJsonl(jsonl, &lines, &error)) << error;
  ASSERT_GE(lines.size(), 2u);  // at least the final snapshot per point
  const JsonValue& first = lines.front();
  EXPECT_EQ(first.Find("experiment")->AsString(), "unit_telemetry");
  EXPECT_NE(first.Find("params")->Find("scheme"), nullptr);
  EXPECT_GT(first.Find("counters")->object().size(), 10u);
  // trace_sample 0 still permits counters but collects no stream.
  for (const auto& cap : out.captures) EXPECT_TRUE(cap.int_capture.empty());
}

TEST(TelemetryIo, CaptureLabelNamesPointAndParams) {
  MetricsRecord rec;
  rec.experiment = "fig15";
  rec.point = 3;
  rec.rep = 1;
  rec.params = {{"scheme", "OrbitCache"}};
  EXPECT_EQ(CaptureLabel(rec), "fig15 point=3 rep=1 scheme=OrbitCache");
}

}  // namespace
}  // namespace orbit::harness
