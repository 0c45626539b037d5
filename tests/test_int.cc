// INT subsystem coverage: sink/recorder unit behavior, an instrumented
// run fills the INT capture, postcards and histogram merges are
// byte-identical serial vs --jobs N, flight dumps are byte-stable for a
// fixed seed, and duplicate telemetry registration is rejected naming
// both registrants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "harness/metrics.h"
#include "harness/runner.h"
#include "harness/telemetry_io.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"
#include "telemetry/int/int.h"
#include "testbed/serialize.h"
#include "testbed/testbed.h"

namespace orbit::harness {
namespace {

// --- IntSink unit behavior -------------------------------------------------

TEST(IntSink, InterningIsStableAndShared) {
  telemetry::IntSink sink({/*sample_every=*/4, /*histograms=*/true});
  const uint32_t a = sink.Hop("hop.link.ns");
  const uint32_t b = sink.Hop("leaf0.pipeline");
  // Dense ids in interning order: the Chrome export uses them as rows.
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Same name -> same id: shared class names aggregate across devices.
  EXPECT_EQ(a, sink.Hop("hop.link.ns"));
  EXPECT_EQ(sink.Hist("value.bytes", "bytes"),
            sink.Hist("value.bytes", "bytes"));
}

TEST(IntSink, StructuralSampling) {
  telemetry::IntSink sink({/*sample_every=*/8, /*histograms=*/false});
  EXPECT_TRUE(sink.Sampled(0));
  EXPECT_FALSE(sink.Sampled(1));
  EXPECT_TRUE(sink.Sampled(8));
  telemetry::IntSink off({/*sample_every=*/0, /*histograms=*/false});
  EXPECT_FALSE(off.postcards_on());
  EXPECT_FALSE(off.Sampled(0));
}

TEST(IntSink, FlowIdEncodesClientAndSeq) {
  const uint64_t id = telemetry::MakeFlowId(0x0a000001, 42);
  EXPECT_EQ(id >> 32, 0x0a000001u);
  EXPECT_EQ(id & 0xffffffffu, 42u);
  EXPECT_NE(telemetry::MakeFlowId(1, 7), telemetry::MakeFlowId(2, 7));
  EXPECT_NE(telemetry::MakeFlowId(1, 7), telemetry::MakeFlowId(1, 8));
}

// Run-level marks belong to the sampled stream: a sink that records no
// flows records no marks either.
TEST(IntSink, MarksFollowTheSamplingKnob) {
  telemetry::IntSink off({/*sample_every=*/0, /*histograms=*/true});
  off.Mark(5, "switch_reset", 0);
  telemetry::IntCapture cap_off;
  off.Drain(&cap_off);
  EXPECT_TRUE(cap_off.marks.empty());

  telemetry::IntSink on({/*sample_every=*/64, /*histograms=*/false});
  on.Mark(5, "server_crash", 3);
  telemetry::IntCapture cap_on;
  on.Drain(&cap_on);
  ASSERT_EQ(cap_on.marks.size(), 1u);
  EXPECT_EQ(cap_on.marks[0].at, 5);
  EXPECT_STREQ(cap_on.marks[0].name, "server_crash");
  EXPECT_EQ(cap_on.marks[0].value, 3u);
}

TEST(IntSink, FlowCollectsHopsAndTruncatesPastCap) {
  telemetry::IntSink sink({/*sample_every=*/1, /*histograms=*/false});
  const uint32_t hop = sink.Hop("hop.recirc.ns");
  const uint32_t id = sink.StartFlow(/*flow_id=*/42, /*op=*/1, /*at=*/100);
  ASSERT_NE(id, 0u);
  telemetry::IntHop rec;
  rec.hop = hop;
  rec.kind = telemetry::IntHopKind::kRecirc;
  // A pathologically orbiting packet must not grow the flow unbounded.
  for (int i = 0; i < 1'000; ++i) {
    rec.at = 100 + i;
    sink.Stamp(id, rec);
  }
  sink.FinishFlow(id, 2'000, "read_cached");
  // Stamping through int_id 0 (unsampled) is a silent no-op.
  sink.Stamp(0, rec);

  telemetry::IntCapture cap;
  sink.Drain(&cap);
  ASSERT_EQ(cap.flows.size(), 1u);
  const telemetry::IntFlowRec& flow = cap.flows[0];
  EXPECT_EQ(flow.flow_id, 42u);
  EXPECT_EQ(flow.finished_at, 2'000);
  EXPECT_STREQ(flow.outcome, "read_cached");
  EXPECT_LT(flow.hops.size(), 1'000u);
  EXPECT_EQ(flow.hops.size() + flow.truncated_hops, 1'000u);
}

TEST(IntSink, HistogramsRecordOnlyWhenEnabled) {
  telemetry::IntSink off({/*sample_every=*/0, /*histograms=*/false});
  const uint32_t h_off = off.Hist("hop.rtt.ns", "ns");
  off.Record(h_off, 1'234);
  telemetry::IntCapture cap_off;
  off.Drain(&cap_off);
  EXPECT_TRUE(cap_off.hists.empty());

  telemetry::IntSink on({/*sample_every=*/0, /*histograms=*/true});
  const uint32_t h_on = on.Hist("hop.rtt.ns", "ns");
  // Values < 64 land in the exact linear row, so the finalized min/max
  // come back unchanged (above that they are bucket mid-points).
  for (int64_t v : {10, 20, 40, 50}) on.Record(h_on, v);
  telemetry::IntCapture cap_on;
  on.Drain(&cap_on);
  ASSERT_EQ(cap_on.hists.size(), 1u);
  EXPECT_EQ(cap_on.hists[0].name, "hop.rtt.ns");
  EXPECT_EQ(cap_on.hists[0].unit, "ns");
  EXPECT_EQ(cap_on.hists[0].count, 4u);
  EXPECT_EQ(cap_on.hists[0].min, 10);
  EXPECT_EQ(cap_on.hists[0].max, 50);
}

// --- FlightRecorder unit behavior ------------------------------------------

TEST(FlightRecorder, RingKeepsLastNAndDumpIsBounded) {
  telemetry::FlightRecorder rec(/*capacity=*/4);
  const uint32_t comp = rec.Component("switch");
  for (uint64_t i = 0; i < 10; ++i) rec.Note(comp, 1'000 + i, "enqueue", i);
  rec.TriggerDump(2'000, "unit test");
  ASSERT_TRUE(rec.HasDumps());
  const std::string text = rec.DumpText();
  // Only the last 4 events survive the ring.
  EXPECT_EQ(text.find("a=5"), std::string::npos);
  EXPECT_NE(text.find("a=6"), std::string::npos);
  EXPECT_NE(text.find("a=9"), std::string::npos);
  EXPECT_NE(text.find("unit test"), std::string::npos);

  // A trigger storm cannot grow the capture without limit.
  for (int i = 0; i < 100; ++i) rec.TriggerDump(3'000 + i, "storm");
  EXPECT_LE(rec.num_dumps(), 8u);
  EXPECT_GT(rec.suppressed_dumps(), 0u);
}

TEST(FlightRecorder, CheckFailureHookObservesMessage) {
  std::string seen;
  {
    ScopedCheckFailureHook hook(
        [&seen](const std::string& what) { seen = what; });
    EXPECT_THROW(ORBIT_CHECK_MSG(false, "int test trip"), CheckFailure);
  }
  EXPECT_NE(seen.find("int test trip"), std::string::npos);
  // The hook is restored on scope exit: a later failure is not observed.
  seen.clear();
  EXPECT_THROW(ORBIT_CHECK(false), CheckFailure);
  EXPECT_TRUE(seen.empty());
}

TEST(Registry, DuplicateRegistrationNamesBothRegistrants) {
  telemetry::Registry reg;
  reg.AddCounter("switch.hits", [] { return 0u; }, "first-owner");
  try {
    reg.AddCounter("switch.hits", [] { return 0u; }, "second-owner");
    FAIL() << "duplicate registration must throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("switch.hits"), std::string::npos);
    EXPECT_NE(what.find("first-owner"), std::string::npos);
    EXPECT_NE(what.find("second-owner"), std::string::npos);
  }
  // Same name under a different kind is fine (kind-qualified claims).
  reg.AddGauge("switch.hits", [] { return 0u; }, "gauge-owner");
}

// --- Instrumented testbed runs ---------------------------------------------

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

TEST(IntTestbed, InstrumentedRunFillsIntCapture) {
  telemetry::RunCapture cap;
  testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kOrbitCache);
  cfg.telemetry.capture = &cap;
  cfg.telemetry.trace_sample = 8;
  cfg.telemetry.histograms = true;
  cfg.telemetry.flight_recorder = true;
  testbed::RunTestbed(cfg);

  ASSERT_FALSE(cap.int_capture.flows.empty());
  ASSERT_FALSE(cap.int_capture.hop_names.empty());
  bool saw_hops = false, saw_finished = false;
  for (const auto& flow : cap.int_capture.flows) {
    if (!flow.hops.empty()) saw_hops = true;
    if (flow.finished_at != 0) saw_finished = true;
    for (const auto& hop : flow.hops)
      ASSERT_LT(hop.hop, cap.int_capture.hop_names.size());
  }
  EXPECT_TRUE(saw_hops);
  EXPECT_TRUE(saw_finished);

  // Always-on histograms cover the shared hop classes.
  ASSERT_FALSE(cap.int_capture.hists.empty());
  bool saw_rtt = false;
  for (const auto& h : cap.int_capture.hists) {
    if (h.name == "hop.rtt.ns") {
      saw_rtt = true;
      EXPECT_GT(h.count, 0u);
      EXPECT_GE(h.p99, h.p50);
    }
  }
  EXPECT_TRUE(saw_rtt);

  // The flight recorder dumps its rings at end of run.
  EXPECT_FALSE(cap.flight_dump.empty());
  EXPECT_NE(cap.flight_dump.find("end of run"), std::string::npos);
}

TEST(IntTestbed, FlightDumpByteStableAcrossRuns) {
  auto run = [](telemetry::RunCapture* cap) {
    testbed::TestbedConfig cfg = TinyConfig(testbed::Scheme::kNetCache);
    cfg.telemetry.capture = cap;
    cfg.telemetry.trace_sample = 8;
    cfg.telemetry.histograms = true;
    cfg.telemetry.flight_recorder = true;
    testbed::RunTestbed(cfg);
  };
  telemetry::RunCapture a, b;
  run(&a);
  run(&b);
  ASSERT_FALSE(a.flight_dump.empty());
  EXPECT_EQ(a.flight_dump, b.flight_dump);
  // Postcards and histogram snapshots repeat byte-for-byte too.
  ASSERT_EQ(a.int_capture.flows.size(), b.int_capture.flows.size());
  EXPECT_EQ(a.int_capture.hop_names, b.int_capture.hop_names);
  for (size_t i = 0; i < a.int_capture.flows.size(); ++i) {
    EXPECT_EQ(a.int_capture.flows[i].flow_id, b.int_capture.flows[i].flow_id);
    EXPECT_EQ(a.int_capture.flows[i].hops.size(),
              b.int_capture.flows[i].hops.size());
  }
}

// --- Harness-level determinism ---------------------------------------------

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.name = "unit_int";
  spec.apply_paper_scale = false;
  spec.base = TinyConfig(testbed::Scheme::kOrbitCache);
  spec.axes = {SchemeAxis(
      {testbed::Scheme::kOrbitCache, testbed::Scheme::kNoCache})};
  spec.run = FixedLoadRun();
  return spec;
}

TEST(IntRunner, RecordsAreByteIdenticalWithIntOnOrOff) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions off;
  off.progress = false;
  RunnerOptions on = off;
  on.capture_telemetry = true;
  on.telemetry.trace_sample = 8;
  on.telemetry.histograms = true;
  on.telemetry.flight_recorder = true;

  const RunOutcome a = RunExperiments(specs, off);
  const RunOutcome b = RunExperiments(specs, on);
  // The headline promise: INT is a pure side channel.
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
  ASSERT_EQ(b.captures.size(), b.records.size());
  EXPECT_FALSE(b.captures[0].int_capture.empty());
}

TEST(IntRunner, PostcardsAndHistogramsIdenticalSerialVsParallel) {
  const std::vector<ExperimentSpec> specs = {TinySpec()};
  RunnerOptions serial;
  serial.progress = false;
  serial.capture_telemetry = true;
  serial.telemetry.trace_sample = 8;
  serial.telemetry.histograms = true;
  serial.telemetry.flight_recorder = true;
  RunnerOptions parallel = serial;
  parallel.jobs = 4;

  const RunOutcome a = RunExperiments(specs, serial);
  const RunOutcome b = RunExperiments(specs, parallel);
  ASSERT_EQ(a.captures.size(), b.captures.size());
  EXPECT_EQ(DumpJsonl(a.records), DumpJsonl(b.records));
  // Per-slot INT JSONL and merged histogram snapshots are byte-identical
  // at any job count — the serial/parallel contract the tools rely on.
  EXPECT_EQ(IntJsonl(a.records, a.captures), IntJsonl(b.records, b.captures));
  EXPECT_EQ(HistJsonl(a.records, a.captures),
            HistJsonl(b.records, b.captures));
  EXPECT_EQ(FlightText(a.records, a.captures),
            FlightText(b.records, b.captures));
  ASSERT_FALSE(IntJsonl(a.records, a.captures).empty());
  ASSERT_FALSE(HistJsonl(a.records, a.captures).empty());
}

}  // namespace
}  // namespace orbit::harness
