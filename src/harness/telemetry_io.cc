#include "harness/telemetry_io.h"

#include "common/check.h"
#include "proto/message.h"
#include "telemetry/export.h"

namespace orbit::harness {

std::string CaptureLabel(const MetricsRecord& record) {
  std::string label = record.experiment;
  label += " point=" + std::to_string(record.point);
  label += " rep=" + std::to_string(record.rep);
  for (const auto& [name, value] : record.params)
    label += " " + name + "=" + value;
  return label;
}

std::string MergedChromeTrace(
    const std::vector<MetricsRecord>& records,
    const std::vector<telemetry::RunCapture>& captures) {
  ORBIT_CHECK(records.size() == captures.size());
  std::vector<telemetry::LabeledCapture> processes;
  for (size_t i = 0; i < records.size(); ++i) {
    const telemetry::IntCapture& ic = captures[i].int_capture;
    if (ic.flows.empty() && ic.marks.empty()) continue;
    processes.emplace_back(CaptureLabel(records[i]), &ic);
  }
  return telemetry::ChromeTraceJson(processes);
}

namespace {

// Shared record-identity prefix so counter, INT and hist lines join
// against record JSONL on (experiment, point, rep).
JsonValue IdentityLine(const MetricsRecord& record) {
  JsonValue line = JsonValue::MakeObject();
  line.Set("experiment", record.experiment);
  line.Set("point", record.point);
  line.Set("rep", record.rep);
  JsonValue params = JsonValue::MakeObject();
  for (const auto& [name, value] : record.params) params.Set(name, value);
  line.Set("params", std::move(params));
  return line;
}

}  // namespace

std::string CountersJsonl(const std::vector<MetricsRecord>& records,
                          const std::vector<telemetry::RunCapture>& captures) {
  ORBIT_CHECK(records.size() == captures.size());
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    for (const telemetry::Snapshot& snap : captures[i].snapshots) {
      JsonValue line = IdentityLine(records[i]);
      line.Set("t_ns", static_cast<int64_t>(snap.at));
      JsonValue counters = JsonValue::MakeObject();
      for (const auto& [name, value] : snap.counters)
        counters.Set(name, value);
      line.Set("counters", std::move(counters));
      JsonValue gauges = JsonValue::MakeObject();
      for (const auto& [name, value] : snap.gauges) gauges.Set(name, value);
      line.Set("gauges", std::move(gauges));
      line.DumpTo(&out);
      out += '\n';
    }
  }
  return out;
}

std::string IntJsonl(const std::vector<MetricsRecord>& records,
                     const std::vector<telemetry::RunCapture>& captures) {
  ORBIT_CHECK(records.size() == captures.size());
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    const telemetry::IntCapture& ic = captures[i].int_capture;
    for (const telemetry::IntFlowRec& flow : ic.flows) {
      JsonValue line = IdentityLine(records[i]);
      line.Set("flow", static_cast<int64_t>(flow.flow_id));
      line.Set("op", proto::OpName(static_cast<proto::Op>(flow.op)));
      line.Set("start_ns", static_cast<int64_t>(flow.started_at));
      line.Set("finish_ns", static_cast<int64_t>(flow.finished_at));
      line.Set("outcome", flow.outcome);
      if (flow.truncated_hops > 0)
        line.Set("truncated_hops", static_cast<int64_t>(flow.truncated_hops));
      JsonValue hops = JsonValue::MakeArray();
      for (const telemetry::IntHop& hop : flow.hops) {
        JsonValue h = JsonValue::MakeObject();
        h.Set("hop", ic.hop_names.at(hop.hop));
        h.Set("kind", telemetry::IntHopKindName(hop.kind));
        h.Set("t_ns", static_cast<int64_t>(hop.at));
        h.Set("latency_ns", hop.latency_ns);
        h.Set("queue_depth", hop.queue_depth);
        h.Set("recirc", static_cast<int64_t>(hop.recirc_count));
        h.Set("drop", static_cast<int64_t>(hop.drop_reason));
        if (hop.detail != nullptr) h.Set("detail", hop.detail);
        hops.Append(std::move(h));
      }
      line.Set("hops", std::move(hops));
      line.DumpTo(&out);
      out += '\n';
    }
  }
  return out;
}

std::string HistJsonl(const std::vector<MetricsRecord>& records,
                      const std::vector<telemetry::RunCapture>& captures) {
  ORBIT_CHECK(records.size() == captures.size());
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    for (const telemetry::HistSnapshot& h : captures[i].int_capture.hists) {
      JsonValue line = IdentityLine(records[i]);
      line.Set("hist", h.name);
      line.Set("unit", h.unit);
      line.Set("count", static_cast<int64_t>(h.count));
      line.Set("min", h.min);
      line.Set("max", h.max);
      line.Set("mean", h.mean);
      line.Set("p50", h.p50);
      line.Set("p90", h.p90);
      line.Set("p99", h.p99);
      line.Set("p999", h.p999);
      line.DumpTo(&out);
      out += '\n';
    }
  }
  return out;
}

std::string FlightText(const std::vector<MetricsRecord>& records,
                       const std::vector<telemetry::RunCapture>& captures) {
  ORBIT_CHECK(records.size() == captures.size());
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    if (captures[i].flight_dump.empty()) continue;
    out += "### " + CaptureLabel(records[i]) + "\n";
    out += captures[i].flight_dump;
  }
  return out;
}

bool ParseCountersJsonl(std::string_view text, std::vector<JsonValue>* out,
                        std::string* error) {
  out->clear();
  return ParseJsonLines(
      text,
      [out](JsonValue value, std::string* line_error) {
        if (!value.is_object()) {
          *line_error = "not a JSON object";
          return false;
        }
        out->push_back(std::move(value));
        return true;
      },
      error);
}

}  // namespace orbit::harness
