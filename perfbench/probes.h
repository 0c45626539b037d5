// Per-layer probes: each times one public call of one layer on inputs
// drawn from the workload's own config and seed, and reports host
// nanoseconds per operation as the median over repeated batches. Probes
// that run a simulator also report how many simulator events one
// operation processed, so the event core's share can be separated out.
#pragma once

#include <vector>

#include "testbed/testbed.h"

namespace orbit::perfbench {

struct ProbeContext {
  testbed::TestbedConfig config;  // the workload's timed-pass config
  double events_per_request = 0;  // from the traced pass
  double budget_s = 0.25;         // host seconds per probe
  // The traced orbit mix that weights orbit.ingress_ns.
  double idle_passes = 0;
  double serving_passes = 0;
  double absorbed_reads = 0;
};

struct ProbeResults {
  double hold_ns = 0;  // EventQueue push + pop at the workload's population
  // The same at the few hundred events the simulator-driven probes below
  // keep queued: their event-core share.
  double probe_hold_ns = 0;
  double link_ns = 0;  // Network::Send to delivery
  double link_events_per_op = 0;
  double recirc_pass_ns = 0;  // one idle orbit pass through SwitchDevice
  double recirc_events_per_op = 0;
  double orbit_ingress_ns = 0;  // OrbitProgram::Ingress, traced mix
  double orbit_idle_ns = 0;     // OrbitProgram::Ingress, idle pass only
  double reqtable_ns = 0;       // RequestTable enqueue + dequeue
  double netcache_ingress_ns = 0;
  double kv_get_ns = 0;
  double kv_put_ns = 0;
  double server_ns = 0;  // ServerNode::OnPacket + completion, per request
  double server_events_per_op = 0;
  double client_req_ns = 0;  // one client send into a sink node
  double client_events_per_op = 0;
  double next_ns = 0;  // ZipfWorkloadSource::Next
};

ProbeResults RunProbes(const ProbeContext& ctx);

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

}  // namespace orbit::perfbench
