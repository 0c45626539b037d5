// Trace export: Chrome trace-event JSON (Perfetto / chrome://tracing) of
// the hop-event stream (telemetry/int/int.h).
//
// The writer is deterministic: flows appear in collection order and their
// hops in stamp order, timestamps are integer-nanosecond sim times printed
// as exact microsecond decimals, and no wall-clock or environment data is
// embedded. Multiple captures (one per experiment point) merge into a
// single trace file as separate processes, labeled via process_name
// metadata, so a whole sweep opens as one Perfetto session.
//
// Within a process every interned hop name is one row (tid = hop id). Each
// finished flow contributes a "request:<outcome>" span from its start to
// its finish on the row of its first hop, and each hop one span (or, with
// latency 0, an instant) named "<kind>" or "<kind>:<detail>"; all of them
// carry the flow id as args.flow. Run-level marks (injected faults) are
// instants on a trailing "faults" row.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "telemetry/int/int.h"

namespace orbit::telemetry {

// One process in the merged trace: a human-readable label (e.g.
// "fig15_latency_breakdown point=0 rep=0 scheme=OrbitCache") and the
// stream captured for it. pid = position in the vector.
using LabeledCapture = std::pair<std::string, const IntCapture*>;

// Full Chrome trace-event document ({"displayTimeUnit":…,"traceEvents":[…]}).
std::string ChromeTraceJson(const std::vector<LabeledCapture>& processes);

}  // namespace orbit::telemetry
