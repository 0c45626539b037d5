// Harness-side telemetry output: labeling per-point RunCaptures, merging
// them into one Chrome trace-event document, and flattening counter
// snapshots into JSON-lines time series.
//
// Both writers share the harness determinism contract: output depends only
// on the records/captures (which are themselves deterministic functions of
// spec + seed), never on wall clock, thread count, or map iteration order.
// Telemetry files are a side channel — MetricsRecord JSONL is unaffected
// by whether they are produced.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/metrics.h"
#include "telemetry/counters.h"

namespace orbit::harness {

// Human-readable label identifying one record's capture in a merged trace:
// "experiment point=N rep=M axis=value ...". Shown as the Perfetto process
// name.
std::string CaptureLabel(const MetricsRecord& record);

// Merges the hop-event streams of slot-aligned captures (as produced by
// RunExperiments with capture_telemetry set) into one Chrome trace-event
// JSON document; points with no flows or marks are skipped.
// records/captures must be equal length.
std::string MergedChromeTrace(
    const std::vector<MetricsRecord>& records,
    const std::vector<telemetry::RunCapture>& captures);

// Counter-snapshot time series, one JSON line per snapshot per point:
//   {"experiment":"fig15","point":0,"rep":0,"params":{"scheme":"OrbitCache"},
//    "t_ns":500000000,"counters":{"switch.rx_packets":123,...},
//    "gauges":{"switch.recirc.in_flight":4,...}}
// Lines appear in slot order, snapshots in sim-time order within a point.
std::string CountersJsonl(const std::vector<MetricsRecord>& records,
                          const std::vector<telemetry::RunCapture>& captures);

// The hop-event stream as INT postcards, one JSON line per sampled flow
// per point:
//   {"experiment":"fig15","point":0,"rep":0,"params":{...},
//    "flow":8589934592,"op":"R-REQ","start_ns":..,"finish_ns":..,
//    "outcome":"read_cached","hops":[{"hop":"client-2.tx","kind":"client_tx",
//    "t_ns":..,"latency_ns":..,"queue_depth":..,"recirc":0,"drop":0},...,
//    {"hop":"tor.pipeline","kind":"pipeline",...,"detail":"multicast"},...]}
// "detail" appears only on hops that carry one. Lines appear in slot
// order, flows in collection (start) order.
std::string IntJsonl(const std::vector<MetricsRecord>& records,
                     const std::vector<telemetry::RunCapture>& captures);

// Always-on histogram snapshots, one JSON line per histogram per point:
//   {"experiment":"fig15","point":0,"rep":0,"params":{...},
//    "hist":"hop.link.ns","unit":"ns","count":..,"min":..,"max":..,
//    "mean":..,"p50":..,"p90":..,"p99":..,"p999":..}
std::string HistJsonl(const std::vector<MetricsRecord>& records,
                      const std::vector<telemetry::RunCapture>& captures);

// Flight-recorder dumps as one text document, each point's dump preceded
// by a "### <CaptureLabel>" header; points without dumps are skipped.
std::string FlightText(const std::vector<MetricsRecord>& records,
                       const std::vector<telemetry::RunCapture>& captures);

// Parses CountersJsonl text back into one JsonValue object per line (blank
// lines ignored). Returns false on the first malformed line, reporting its
// line number in *error. Used by bench_compare --counters and tests.
bool ParseCountersJsonl(std::string_view text, std::vector<JsonValue>* out,
                        std::string* error);

}  // namespace orbit::harness
