// The hop-event stream: per-request records modelled on INT-MD postcards.
//
// Real INT-MD switches stamp per-hop metadata (hop id, queue depth, hop
// latency) into packets as they traverse the fabric; a sink strips the
// stack and exports postcards to a collector. We model the same thing in
// simulation terms: a packet carries a compact `int_id` handle, every
// instrumented site appends an IntHop record to the flow owned by that id
// inside the IntSink — client send/receive, links, pipeline passes and the
// program's decisions, the request-table wait, recirculation, server
// queue/process, drops — and the run's IntCapture is exported as Chrome
// trace-event JSON (telemetry/export.h) or as postcard JSONL
// (harness/telemetry_io.h). Sampling is structural (seq % sample_every
// == 0, per client), so serial and `--jobs N` runs collect byte-identical
// streams.
//
// On top of the sampled flows the sink owns a set of *always-on*
// log-bucketed HDR-style histograms (stats::Histogram): latency per hop
// class, queue depth per link direction, orbit count per cached key,
// value size. Recording is a couple of arithmetic ops plus a bucket
// increment — cheap enough to run unsampled — and everything is keyed by
// interned ids resolved once at attach time, never per packet.
//
// Results-neutrality contract: the sink schedules no simulator events,
// draws no randomness, and no forwarding decision ever reads `int_id`, so
// enabling the stream cannot change a run's metrics or fingerprint.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"

namespace orbit::telemetry {

// Where in the fabric a hop record was stamped. Postcards carry the
// interned hop *name* for exact location ("leaf0.pipeline"); the kind
// classifies it for per-hop-class roll-ups.
enum class IntHopKind : uint8_t {
  kClientTx = 0,   // client NIC, request leaves the host
  kLink,           // committed to a link (queue + serialization + prop)
  kPipeline,       // rmt pipeline stage-group traversal
  kRecirc,         // recirculation orbit pass
  kServerRx,       // server NIC admission
  kServerQueue,    // server worker FIFO wait
  kServerProcess,  // server service time
  kClientRx,       // reply back at the client (end of flow)
  kDrop,           // packet died here (drop_reason says why)
  kProgram,        // a switch program decision (detail names it)
  kCacheWait,      // absorbed request waiting for its cache packet
};
const char* IntHopKindName(IntHopKind kind);

// One stamped hop. `hop` indexes IntCapture::hop_names. The hop is the
// span [at, at + latency_ns) of simulated time — the delay it *added*
// (queue wait + service for that hop class) — or an instant when
// latency_ns is 0. queue_depth is the depth seen on arrival (bytes for
// links and the recirculation port, waiting ns for the pipeline, requests
// for a server or client). `detail` qualifies the kind: the pipeline's
// action ("multicast"), the program's decision ("lookup_hit:absorb"),
// "retransmit" on a repeated client_tx.
struct IntHop {
  SimTime at = 0;
  uint32_t hop = 0;
  IntHopKind kind = IntHopKind::kLink;
  int64_t latency_ns = 0;
  int64_t queue_depth = 0;
  uint32_t recirc_count = 0;
  uint8_t drop_reason = 0;       // 0 = none, else 1 + sim::DropReason
  const char* detail = nullptr;  // static string literal, or null
};

// Stable flow identity: client address in the high 32 bits, the
// client-assigned sequence number in the low 32.
inline uint64_t MakeFlowId(Addr client, uint32_t seq) {
  return (static_cast<uint64_t>(client) << 32) | seq;
}

// A collected postcard stream for one sampled request flow.
struct IntFlowRec {
  uint64_t flow_id = 0;  // MakeFlowId(client_addr, seq)
  uint8_t op = 0;        // proto::Op of the originating request
  SimTime started_at = 0;
  SimTime finished_at = 0;      // 0 = never completed (timeout / in flight)
  const char* outcome = "";     // static literal: "read_cached", "timeout", …
  uint32_t truncated_hops = 0;  // stamps dropped past the per-flow cap
  std::vector<IntHop> hops;
};

// Compact end-of-run summary of one always-on histogram. Live
// stats::Histogram objects eagerly allocate ~9KB of buckets, so captures
// keep these few-word snapshots instead.
struct HistSnapshot {
  std::string name;
  std::string unit;
  uint64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
};

// A run-level event that belongs to no request, e.g. an injected fault.
struct IntMark {
  SimTime at = 0;
  const char* name = "";  // static string literal
  uint64_t value = 0;     // server / rack / spine index, 0 when none
};

// Everything the INT layer collected for one run; lives inside
// telemetry::RunCapture next to the counter snapshots.
struct IntCapture {
  std::vector<std::string> hop_names;  // IntHop::hop indexes this
  std::vector<IntFlowRec> flows;
  std::vector<IntMark> marks;
  std::vector<HistSnapshot> hists;

  bool empty() const {
    return flows.empty() && marks.empty() && hists.empty();
  }
  void Clear() {
    hop_names.clear();
    flows.clear();
    marks.clear();
    hists.clear();
  }
};

// The per-run INT collector. Components intern their hop and histogram
// names once at attach time and then stamp/record through integer ids on
// the hot path. Single-threaded, like everything inside one simulation.
class IntSink {
 public:
  struct Options {
    // Stream sampling: a request is collected iff seq % sample_every == 0
    // for its client. 0 disables flows and marks entirely.
    uint32_t sample_every = 0;
    // Always-on histograms (recorded for every packet, not just sampled
    // flows).
    bool histograms = false;
  };

  explicit IntSink(const Options& opts) : opts_(opts) {}

  bool postcards_on() const { return opts_.sample_every != 0; }
  bool histograms_on() const { return opts_.histograms; }
  bool Sampled(uint64_t seq) const {
    return postcards_on() && seq % opts_.sample_every == 0;
  }

  // Interns `name`, returning its stable hop id. Same name -> same id,
  // so shared class names aggregate across devices while per-device
  // names ("leaf0.pipeline") stay distinct.
  uint32_t Hop(const std::string& name);

  // Interns an always-on histogram under `name` (unit is documentation
  // carried into the snapshot: "ns", "bytes", "orbits").
  uint32_t Hist(const std::string& name, const std::string& unit);

  // Records into an interned histogram; no-op unless histograms are on.
  // Bucket-only on the way in (stats::Histogram::RecordFast); Drain
  // finalizes count/min/max/mean from the buckets.
  void Record(uint32_t hist_id, int64_t value) {
    if (opts_.histograms) hists_[hist_id].hist.RecordFast(value);
  }

  // Direct histogram pointer for per-packet hot paths (the link tap),
  // skipping the flag check and id indexing on every record; nullptr when
  // histograms are off, so callers branch on one pointer. Stable for the
  // run: hists_ is a deque.
  stats::Histogram* MutableHist(uint32_t hist_id) {
    return opts_.histograms ? &hists_[hist_id].hist : nullptr;
  }

  // Opens a postcard flow; returns the packet-borne int_id (0 = not
  // collected). Call only after Sampled(seq) said yes.
  uint32_t StartFlow(uint64_t flow_id, uint8_t op, SimTime at);

  // Appends a hop record to a flow; no-op for int_id 0. Hops past the
  // per-flow cap bump truncated_hops instead of growing without bound
  // (a saturated orbit can recirculate one packet thousands of times).
  void Stamp(uint32_t int_id, const IntHop& hop);

  // Marks the flow complete. `outcome` must be a static string literal.
  void FinishFlow(uint32_t int_id, SimTime at, const char* outcome);

  // Records a run-level mark (no-op unless postcards are on). `name` must
  // be a static string literal.
  void Mark(SimTime at, const char* name, uint64_t value) {
    if (postcards_on()) marks_.push_back({at, name, value});
  }

  // Moves collected flows and snapshots the histograms into `out`.
  // Call once at end of run; empty histograms are skipped.
  void Drain(IntCapture* out);

  size_t num_flows() const { return flows_.size(); }

 private:
  // Bounds per-flow memory; generous next to the paper's single-digit
  // orbit counts but finite under pathological recirculation.
  static constexpr size_t kMaxHopsPerFlow = 256;

  struct NamedHist {
    std::string name;
    std::string unit;
    stats::Histogram hist;
  };

  Options opts_;
  std::vector<std::string> hop_names_;
  std::unordered_map<std::string, uint32_t> hop_ids_;
  std::deque<NamedHist> hists_;  // deque: MutableHist pointers stay valid
  std::unordered_map<std::string, uint32_t> hist_ids_;
  std::vector<IntFlowRec> flows_;
  std::vector<IntMark> marks_;
};

}  // namespace orbit::telemetry
