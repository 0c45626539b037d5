// Experiment assembly mirroring the paper's testbed (§5.1): client nodes
// and rate-limited emulated storage servers around one programmable ToR
// switch running NoCache, NetCache, or OrbitCache, driven by a skewed
// key-value workload — or a leaf–spine fabric of such racks (§3.9). One
// call builds the topology, preloads the caches, warms up, measures, and
// returns every quantity the evaluation figures plot. RunTestbed() is the
// only assembly: it builds every run from the src/fabric/ pieces, the
// single ToR being one leaf with zero spines. On a fabric, cache counters
// are sums over the leaves and RMT usage is reported for one leaf.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "fault/fault.h"
#include "rmt/resources.h"
#include "stats/histogram.h"
#include "workload/twitter.h"
#include "workload/value_dist.h"

namespace orbit::telemetry {
struct RunCapture;
}  // namespace orbit::telemetry

namespace orbit::testbed {

enum class Scheme { kNoCache, kNetCache, kOrbitCache };
const char* SchemeName(Scheme scheme);

// The run configuration, grouped into sections by concern. JSON/fingerprint
// serialization stays flat (testbed/serialize.h) so result files are stable
// across this grouping.
struct TestbedConfig {
  Scheme scheme = Scheme::kOrbitCache;

  // Topology and fabric (§5.1: 4 client nodes, 4 storage nodes emulating 8
  // servers each; we attach every emulated server through its own switch
  // port).
  struct Topology {
    int num_clients = 4;
    int num_servers = 32;
    double server_rate_rps = 100'000;    // per emulated server; 0 = unlimited
    double client_rate_rps = 6'000'000;  // aggregate open-loop Tx
    rmt::AsicConfig asic;
    double client_link_gbps = 100.0;
    double server_link_gbps = 25.0;
    SimTime link_delay = 500;  // ns one way

    // Leaf–spine scale-out (src/fabric/). Disabled by default: num_racks=0
    // keeps the single-ToR §5.1 testbed, and a disabled fabric section is
    // omitted from ConfigJson so existing fingerprints stay byte-identical.
    // When enabled, num_servers must divide evenly into num_racks blocks;
    // rack r owns servers [r*per_rack, (r+1)*per_rack) and its leaf caches
    // only that key partition. Clients round-robin across racks, so most
    // traffic crosses the spine.
    struct Fabric {
      int num_racks = 0;           // 0 = single-switch testbed
      int num_spines = 1;
      // Probe-based uplink liveness + rerouting (fabric/failover.h).
      // Opt-in: probes share uplink bandwidth with data, so enabling it
      // changes results; the knobs are serialized only when failover is
      // on, keeping pre-failover fingerprints byte-identical.
      bool failover = false;
      SimTime probe_interval = 100 * kMicrosecond;
      SimTime detection_window = 500 * kMicrosecond;
      bool enabled() const { return num_racks > 0; }
    };
    Fabric fabric;
  };
  Topology topo;

  // What the clients ask for.
  struct Workload {
    uint64_t num_keys = 10'000'000;
    uint32_t key_size = 16;
    double zipf_theta = 0.99;  // 0 = uniform
    wl::ValueDist value_dist = wl::ValueDist::PaperDefault();
    double write_ratio = 0.0;
    // Optional Fig.-14 production profile; overrides value sizing with the
    // profile's cacheability/size model and sets the write ratio.
    const wl::TwitterProfile* twitter = nullptr;
    // Dynamic popularity (Fig. 18's hot-in pattern).
    bool hot_in = false;
    SimTime hot_in_period = 10 * kSecond;
    uint64_t hot_in_count = 128;
  };
  Workload workload;

  // Cache sizing and scheme options.
  struct CacheTuning {
    size_t orbit_cache_size = 128;  // preloaded hottest items (§5.1)
    size_t orbit_capacity = 1024;   // data-plane array capacity
    size_t orbit_queue_size = 8;    // request-table depth S
    size_t netcache_size = 10'000;  // preloaded hottest items for NetCache
    // §2.2 strawman: NetCache reads values up to 1024B by recirculating the
    // request once per 64B slice (rationale bench).
    bool netcache_recirc_read = false;
    // OrbitCache options / extensions.
    bool epoch_guard = true;
    bool enable_cloning = true;
    bool write_back = false;
    bool multi_packet = false;
  };
  CacheTuning cache;

  // Control-plane cadence: the controller updates the cache, and servers
  // report their hot keys, every update_period. When run_cache_updates is
  // false the preloaded cache stays fixed (the paper's static experiments).
  struct ControlPlane {
    bool run_cache_updates = false;
    SimTime update_period = 100 * kMillisecond;
  };
  ControlPlane control;

  // Client-side retry budget (§3.9): how many times a client retransmits a
  // request (same SEQ, exponential backoff) before giving up. 0 keeps the
  // timeout-only behavior of the static figures.
  struct ClientPolicy {
    int max_retries = 0;
    SimTime request_timeout = 20 * kMillisecond;
  };
  ClientPolicy client;

  // Scripted fault injection (server crash/restart, switch reset,
  // controller-channel loss, bursty server-link loss). Default: no faults.
  fault::FaultSchedule fault;

  // Timing.
  SimTime warmup = 100 * kMillisecond;
  SimTime duration = 400 * kMillisecond;
  uint64_t seed = 42;

  // Timeline sampling (0 disables; Fig. 18 uses 1s bins).
  SimTime timeline_bin = 0;

  // Telemetry (observability only). With `capture` null — the default —
  // no sink or registry is built and results are byte-identical to an
  // uninstrumented build. Excluded from ConfigJson/ConfigFingerprint:
  // instrumentation must never change a run's identity.
  struct Telemetry {
    // Caller-owned sink; setting it enables instrumentation for this run.
    telemetry::RunCapture* capture = nullptr;
    // Hop-event stream: record every Nth request per client (0 disables).
    uint32_t trace_sample = 64;
    // Counter snapshot period; 0 = only the final end-of-run snapshot.
    SimTime snapshot_interval = 0;
    // Always-on per-hop-class/per-link histograms (unsampled).
    bool histograms = false;
    // Per-component event rings, dumped on faults, on check failures and
    // at end of run.
    bool flight_recorder = false;
  };
  Telemetry telemetry;

  // Verification (src/verify/): shadow KV oracle, packet-conservation
  // accounting, and switch invariant checks. Observational only — a run
  // with verify enabled produces byte-identical metrics to the same run
  // without it — and, like Telemetry, excluded from ConfigJson /
  // ConfigFingerprint so enabling it never changes a run's identity.
  struct Verify {
    bool enabled = false;
    // Throw CheckFailure after metrics collection when violations were
    // found (the harness records it as the point's error). When false the
    // violations only populate TestbedResult::verify_*.
    bool fail_fast = true;
  };
  Verify verify;

  // Checks cross-field invariants; returns one actionable message per
  // violation (empty = valid). RunTestbed() refuses invalid configs.
  std::vector<std::string> Validate() const;
};

struct TestbedResult {
  // Throughput (measured over the window, replies at clients).
  double rx_rps = 0;
  double tx_rps = 0;
  double cache_served_rps = 0;   // served by the switch
  double server_served_rps = 0;

  // Load balance.
  std::vector<uint64_t> server_loads;  // per emulated server, in window
  double balancing_efficiency = 0;     // min/max server throughput

  // Latency (merged across clients, window only).
  stats::Histogram read_cached_latency;
  stats::Histogram read_server_latency;
  stats::Histogram write_latency;
  stats::Histogram switch_resident;  // header Latency field (cached reads)

  // Cache behaviour within the window.
  uint64_t lookup_hits = 0;
  uint64_t absorbed = 0;
  uint64_t overflows = 0;
  double overflow_ratio = 0;  // overflow / lookup hits
  uint64_t recirc_drops = 0;
  uint64_t cache_packets_in_flight = 0;  // gauge at end
  // Cache-packet retirement reasons (whole run; OrbitCache only).
  uint64_t cp_drop_evicted = 0;
  uint64_t cp_drop_invalid = 0;
  uint64_t cp_drop_epoch = 0;
  uint64_t validations = 0;

  // Client-side protocol events (whole run).
  uint64_t collisions = 0;
  uint64_t stale_reads = 0;
  uint64_t timeouts = 0;         // deadline expiries (including retries)
  uint64_t retransmissions = 0;
  // Requests abandoned after the full retry budget (max_retries > 0) was
  // spent. Zero in any fault-free run — the CI quick suite asserts it.
  uint64_t retries_exhausted = 0;
  uint64_t inflight_at_stop = 0; // pending when the run ended
  uint64_t server_drops = 0;

  // Fault injection (whole run; 0 when no schedule configured).
  uint64_t faults_injected = 0;
  // Fabric failover (whole run; 0 on single-switch or failover-off runs).
  uint64_t reroutes = 0;            // next-hop rewrites applied to leaves
  uint64_t blackholed_packets = 0;  // discarded at down uplinks

  // Cache state at the end.
  size_t cache_entries = 0;
  size_t controller_cache_size = 0;  // dynamic-sizing outcome

  // Timelines (empty when timeline_bin == 0). Each holds
  // ⌊(warmup + duration) / timeline_bin⌋ entries; entry k covers
  // [k·timeline_bin, (k+1)·timeline_bin) from t = 0, warmup included.
  std::vector<double> throughput_timeline;      // replies/s per bin
  std::vector<double> overflow_ratio_timeline;  // per bin

  std::string resource_report;
  // Structured RMT usage (same numbers the report prints) so the harness
  // can emit them as metrics without parsing text.
  int rmt_stages_used = 0;
  uint64_t rmt_sram_bytes_used = 0;
  double rmt_sram_fraction = 0;
  int rmt_alus_used = 0;
  uint64_t events_processed = 0;

  // Verification outcome (populated only when config.verify.enabled; never
  // serialized into result metrics, so --verify stays results-neutral).
  uint64_t verify_violations = 0;
  uint64_t verify_replies_checked = 0;
  uint64_t verify_allowed_stale = 0;
  std::string verify_report;
};

TestbedResult RunTestbed(const TestbedConfig& config);

// The paper's throughput metric is *saturated* throughput: the highest
// offered load the system sustains while still answering (nearly) every
// request — under skew the hottest storage server is the binding
// constraint. This helper probes at a low rate, predicts the saturating Tx
// from the measured per-server load shares (loads scale linearly below
// saturation), then verifies and corrects with full runs until the loss
// rate is within tolerance.
struct SaturationResult {
  TestbedResult result;   // measurement at the saturating load
  double sat_tx_rps = 0;  // offered load used
  int runs = 0;           // total testbed executions
};
SaturationResult FindSaturation(TestbedConfig config,
                                double loss_tolerance = 0.03,
                                int max_corrections = 2);

// The per-key value-size function a config implies (shared by servers,
// clients, preload filtering, and tests).
std::function<uint32_t(const Key&)> MakeValueSizeFn(const TestbedConfig& config);

// Whether NetCache can cache this key under `config` (key width, value
// size, and — in twitter mode — the profile's cacheability coin).
bool NetCacheCanCache(const TestbedConfig& config, const Key& key);

}  // namespace orbit::testbed
