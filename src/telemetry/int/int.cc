#include "telemetry/int/int.h"

namespace orbit::telemetry {

const char* IntHopKindName(IntHopKind kind) {
  switch (kind) {
    case IntHopKind::kClientTx:
      return "client_tx";
    case IntHopKind::kLink:
      return "link";
    case IntHopKind::kPipeline:
      return "pipeline";
    case IntHopKind::kRecirc:
      return "recirc";
    case IntHopKind::kServerRx:
      return "srv_rx";
    case IntHopKind::kServerQueue:
      return "srv_queue";
    case IntHopKind::kServerProcess:
      return "srv_process";
    case IntHopKind::kClientRx:
      return "client_rx";
    case IntHopKind::kDrop:
      return "drop";
    case IntHopKind::kProgram:
      return "program";
    case IntHopKind::kCacheWait:
      return "cache_wait";
  }
  return "?";
}

uint32_t IntSink::Hop(const std::string& name) {
  auto it = hop_ids_.find(name);
  if (it != hop_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(hop_names_.size());
  hop_names_.push_back(name);
  hop_ids_.emplace(name, id);
  return id;
}

uint32_t IntSink::Hist(const std::string& name, const std::string& unit) {
  auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(hists_.size());
  hists_.push_back(NamedHist{name, unit, stats::Histogram{}});
  hist_ids_.emplace(name, id);
  return id;
}

uint32_t IntSink::StartFlow(uint64_t flow_id, uint8_t op, SimTime at) {
  if (!postcards_on()) return 0;
  IntFlowRec rec;
  rec.flow_id = flow_id;
  rec.op = op;
  rec.started_at = at;
  flows_.push_back(std::move(rec));
  return static_cast<uint32_t>(flows_.size());
}

void IntSink::Stamp(uint32_t int_id, const IntHop& hop) {
  if (int_id == 0 || int_id > flows_.size()) return;
  IntFlowRec& rec = flows_[int_id - 1];
  if (rec.hops.size() >= kMaxHopsPerFlow) {
    ++rec.truncated_hops;
    return;
  }
  rec.hops.push_back(hop);
}

void IntSink::FinishFlow(uint32_t int_id, SimTime at, const char* outcome) {
  if (int_id == 0 || int_id > flows_.size()) return;
  IntFlowRec& rec = flows_[int_id - 1];
  rec.finished_at = at;
  rec.outcome = outcome;
}

void IntSink::Drain(IntCapture* out) {
  if (out == nullptr) return;
  out->hop_names = hop_names_;
  out->flows = std::move(flows_);
  flows_.clear();
  out->marks = std::move(marks_);
  marks_.clear();
  out->hists.clear();
  for (NamedHist& h : hists_) {
    // RecordFast populations carry only buckets until finalized here.
    h.hist.FinalizeFromBuckets();
    if (h.hist.count() == 0) continue;  // quiet links etc. add no rows
    HistSnapshot snap;
    snap.name = h.name;
    snap.unit = h.unit;
    snap.count = h.hist.count();
    snap.min = h.hist.min();
    snap.max = h.hist.max();
    snap.mean = h.hist.mean();
    snap.p50 = h.hist.Percentile(0.50);
    snap.p90 = h.hist.Percentile(0.90);
    snap.p99 = h.hist.Percentile(0.99);
    snap.p999 = h.hist.Percentile(0.999);
    out->hists.push_back(std::move(snap));
  }
}

}  // namespace orbit::telemetry
