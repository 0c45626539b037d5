#include "telemetry/export.h"

#include <cinttypes>
#include <cstdio>

namespace orbit::telemetry {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// Chrome trace timestamps are microseconds; sim time is integer
// nanoseconds, so print the exact three-decimal form (no float rounding).
void AppendMicros(std::string* out, SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  *out += buf;
}

void AppendMeta(std::string* out, int pid, int tid, const char* kind,
                const std::string& name, bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  char head[96];
  if (tid >= 0)
    std::snprintf(head, sizeof(head), R"({"ph":"M","pid":%d,"tid":%d,)", pid,
                  tid);
  else
    std::snprintf(head, sizeof(head), R"({"ph":"M","pid":%d,)", pid);
  *out += head;
  *out += R"("name":")";
  *out += kind;
  *out += R"(","args":{"name":")";
  AppendEscaped(out, name);
  *out += R"("}})";
}

// A complete span ("X") when dur > 0, else a thread-scoped instant; `args`
// is the rendered body of the event's args object.
void AppendEvent(std::string* out, int pid, uint32_t tid, SimTime ts,
                 SimTime dur, const char* name, const char* detail,
                 const char* args, bool* first) {
  if (!*first) *out += ",\n";
  *first = false;
  char head[64];
  std::snprintf(head, sizeof(head), R"({"ph":"%s","pid":%d,"tid":%u,)",
                dur > 0 ? "X" : "i", pid, tid);
  *out += head;
  *out += "\"ts\":";
  AppendMicros(out, ts);
  if (dur > 0) {
    *out += ",\"dur\":";
    AppendMicros(out, dur);
  } else {
    *out += ",\"s\":\"t\"";  // instant scope: thread
  }
  *out += ",\"name\":\"";
  *out += name;
  if (detail != nullptr) {
    *out += ':';
    *out += detail;
  }
  *out += "\",\"cat\":\"telemetry\",\"args\":{";
  *out += args;
  *out += "}}";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<LabeledCapture>& processes) {
  std::string out;
  out.reserve(1024);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char args[160];
  for (size_t pid = 0; pid < processes.size(); ++pid) {
    const auto& [label, cap] = processes[pid];
    if (cap == nullptr) continue;
    const int p = static_cast<int>(pid);
    AppendMeta(&out, p, -1, "process_name", label, &first);
    for (size_t tid = 0; tid < cap->hop_names.size(); ++tid)
      AppendMeta(&out, p, static_cast<int>(tid), "thread_name",
                 cap->hop_names[tid], &first);
    const uint32_t faults_tid = static_cast<uint32_t>(cap->hop_names.size());
    if (!cap->marks.empty())
      AppendMeta(&out, p, static_cast<int>(faults_tid), "thread_name",
                 "faults", &first);
    for (const IntFlowRec& flow : cap->flows) {
      std::snprintf(args, sizeof(args), "\"flow\":%" PRIu64, flow.flow_id);
      if (flow.finished_at > 0 && !flow.hops.empty())
        AppendEvent(&out, p, flow.hops.front().hop, flow.started_at,
                    flow.finished_at - flow.started_at, "request",
                    flow.outcome, args, &first);
      for (const IntHop& hop : flow.hops) {
        std::snprintf(args, sizeof(args),
                      "\"flow\":%" PRIu64 ",\"queue_depth\":%" PRId64
                      ",\"recirc\":%" PRIu32 ",\"drop\":%u",
                      flow.flow_id, hop.queue_depth, hop.recirc_count,
                      static_cast<unsigned>(hop.drop_reason));
        AppendEvent(&out, p, hop.hop, hop.at, hop.latency_ns,
                    IntHopKindName(hop.kind), hop.detail, args, &first);
      }
    }
    for (const IntMark& mark : cap->marks) {
      std::snprintf(args, sizeof(args), "\"value\":%" PRIu64, mark.value);
      AppendEvent(&out, p, faults_tid, mark.at, 0, mark.name, nullptr, args,
                  &first);
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace orbit::telemetry
