// Deterministic, sim-time-scripted fault injection (§3.9).
//
// A `FaultSchedule` is part of the experiment configuration: a list of
// (time, kind) events — server crash/restart, switch reset, controller
// channel loss — plus an optional Gilbert–Elliott burst-loss model layered
// onto every server link. The schedule is pure data (it serializes into
// the config fingerprint); `FaultInjector` binds it to a live testbed via
// a small hook table and arms one simulator timer per fault, so two runs
// of the same seeded config inject byte-identical faults.
//
// Fault taxonomy (docs/FAULTS.md has the full story):
//   kServerCrash / kServerRestart — the server's access link goes down/up;
//       in-flight packets in either direction are discarded (the server's
//       own queue and store survive, modeling a fast process restart).
//   kSwitchReset — the switch data plane is wiped (register arrays, match
//       tables, circulating cache packets); after `switch_rebuild_delay`
//       the controller rebuilds the cache from its shadow copy.
//   kCtrlDown / kCtrlUp — the switch-CPU channel drops all controller
//       traffic (fetches, reports, installs) until restored.
//
// Fabric fault taxonomy (leaf–spine topologies, PR 10):
//   kFabricLinkDown / kFabricLinkUp — the (rack, spine) uplink goes
//       down/up in both directions; packets offered meanwhile are
//       discarded (DropReason::kLinkDown).
//   kLeafCrash / kLeafRestart — rack r's leaf data plane is wiped and the
//       leaf degrades to transparent pass-through (NoCache forwarding);
//       on restart the fabric controller rebuilds the leaf's cache after
//       `switch_rebuild_delay`.
//   kSpineCrash / kSpineRestart — all of spine s's down-links go down/up
//       at once (the spine itself holds no cache state).
//   kLinkDegrade / kLinkRestore — asymmetric "gray" uplink: one direction
//       (dir 0 = leaf->spine, 1 = spine->leaf) of the (rack, spine) link
//       loses packets with `degrade_loss` and delays survivors by
//       `degrade_latency`; the other direction is untouched.
//   kRackPartition / kRackHeal — every uplink of rack r goes down/up at
//       once: the rack can only reach itself until healed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/link.h"

namespace orbit::sim {
class Simulator;
}
namespace orbit::telemetry {
class FlightRecorder;
class IntSink;
class Registry;
}

namespace orbit::fault {

enum class FaultKind {
  kServerCrash,
  kServerRestart,
  kSwitchReset,
  kCtrlDown,
  kCtrlUp,
  // Fabric faults (leaf–spine topologies only).
  kFabricLinkDown,
  kFabricLinkUp,
  kLeafCrash,
  kLeafRestart,
  kSpineCrash,
  kSpineRestart,
  kLinkDegrade,
  kLinkRestore,
  kRackPartition,
  kRackHeal,
};
const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  SimTime at = 0;                           // absolute sim time
  FaultKind kind = FaultKind::kSwitchReset;
  int server = -1;                          // kServerCrash/kServerRestart only
  // Fabric targets (unused fields stay -1 and are omitted from the
  // serialized config, so pre-fabric fingerprints are unchanged).
  int rack = -1;   // leaf / partition / uplink events
  int spine = -1;  // spine / uplink events
  int dir = -1;    // kLinkDegrade/kLinkRestore: 0 leaf->spine, 1 spine->leaf
  double degrade_loss = 0.0;     // kLinkDegrade only
  SimTime degrade_latency = 0;   // kLinkDegrade only
};

// Scripted fault timeline; default-constructed = no faults. Part of
// TestbedConfig, so it feeds the config fingerprint.
struct FaultSchedule {
  std::vector<FaultEvent> events;
  // Bursty loss on every server link for the whole run (decorrelated per
  // link by Network::Connect's seed mixing).
  sim::GilbertElliottConfig server_burst_loss;
  // Bursty loss on every leaf–spine uplink (fabric topologies only; same
  // per-link seed decorrelation).
  sim::GilbertElliottConfig fabric_burst_loss;
  // Delay between a switch reset (or leaf restart) and the controller's
  // cache rebuild — models failure detection plus reinstall time on the
  // switch CPU.
  SimTime switch_rebuild_delay = 2 * kMillisecond;

  bool empty() const {
    return events.empty() && !server_burst_loss.enabled() &&
           !fabric_burst_loss.enabled();
  }

  // Structural validation: every event names a target of the right shape,
  // degrade parameters are sane, and no two events on the same target
  // overlap or contradict (a crash during an existing crash, a restart
  // with nothing to restart, two events on one target at the same
  // instant). Returns "" when valid, else one actionable error message.
  // Target ranges (racks/spines/servers) are checked by the testbed,
  // which knows the topology.
  std::string Validate() const;
};

// Convenience builders for the common single-fault timelines.
FaultSchedule SwitchResetAt(SimTime at,
                            SimTime rebuild_delay = 2 * kMillisecond);
FaultSchedule ServerCrashAt(int server, SimTime crash_at, SimTime restart_at);
FaultSchedule FabricLinkDownAt(int rack, int spine, SimTime down_at,
                               SimTime up_at);
FaultSchedule LeafCrashAt(int rack, SimTime crash_at, SimTime restart_at,
                          SimTime rebuild_delay = 2 * kMillisecond);
FaultSchedule SpineCrashAt(int spine, SimTime crash_at, SimTime restart_at);
FaultSchedule LinkDegradeAt(int rack, int spine, int dir, double loss,
                            SimTime extra_latency, SimTime at,
                            SimTime restore_at);
FaultSchedule RackPartitionAt(int rack, SimTime at, SimTime heal_at);

// How the injector acts on the testbed. Hooks left empty make the
// corresponding fault kind a no-op (e.g. reset_switch on a scheme with no
// switch-resident state).
struct FaultHooks {
  std::function<void(int server, bool down)> set_server_link_down;
  std::function<void(bool down)> set_ctrl_link_down;
  std::function<void()> reset_switch;
  std::function<void()> rebuild_cache;
  // Fabric hooks (TestbedConfig::Validate() rejects fabric events on
  // single-switch testbeds).
  std::function<void(int rack, int spine, bool down)> set_fabric_link_down;
  std::function<void(int rack, int spine, int dir, double loss,
                     SimTime extra_latency)>
      set_fabric_link_degrade;
  std::function<void(int rack, bool down)> set_leaf_down;
  std::function<void(int spine, bool down)> set_spine_down;
  std::function<void(int rack, bool partitioned)> set_rack_partition;
  // Fired `switch_rebuild_delay` after a kLeafRestart: the fabric
  // controller reinstalls rack r's cache from its shadow copy.
  std::function<void(int rack)> rebuild_leaf;
};

// Binds a schedule to a live simulation: Arm() turns every FaultEvent into
// a simulator timer that fires the matching hook (a switch reset or a leaf
// restart also arms the rebuild `switch_rebuild_delay` later). Keeps
// per-kind injection counts and optionally emits telemetry counters
// ("fault.*") and run-level marks in the hop-event stream.
class FaultInjector : public sim::TimerHandler {
 public:
  struct Stats {
    uint64_t injected = 0;  // total hook firings (rebuild counts as one)
    uint64_t server_crashes = 0;
    uint64_t server_restarts = 0;
    uint64_t switch_resets = 0;
    uint64_t cache_rebuilds = 0;
    uint64_t ctrl_transitions = 0;  // down + up
    uint64_t fabric_link_transitions = 0;  // down + up
    uint64_t leaf_crashes = 0;
    uint64_t leaf_restarts = 0;
    uint64_t leaf_rebuilds = 0;
    uint64_t spine_transitions = 0;  // crash + restart
    uint64_t link_degrades = 0;      // degrade + restore
    uint64_t partitions = 0;         // partition + heal
  };

  FaultInjector(sim::Simulator* sim, const FaultSchedule& schedule,
                FaultHooks hooks);
  // Armed timers hold the injector's address.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event; call once, before the run starts.
  void Arm();
  // Timer demux: a schedule index fires that event; the rebuild arguments
  // below fire the delayed cache or leaf rebuild.
  void OnTimer(uint64_t arg) override;

  const Stats& stats() const { return stats_; }

  // Optional observability: counters under "fault.*" and one IntSink mark
  // per injected fault (exported on a "faults" row). Either pointer may be
  // null.
  void RegisterTelemetry(telemetry::Registry* registry,
                         telemetry::IntSink* sink);

  // Flight recorder: every injected fault is noted on a "faults" ring and
  // triggers a post-mortem dump of all component rings at that instant.
  void SetFlightRecorder(telemetry::FlightRecorder* recorder);

 private:
  // Rebuild timers tag the high word; a leaf rebuild carries its rack in
  // the low word. Schedule indices stay below both tags.
  static constexpr uint64_t kRebuildCacheArg = uint64_t{1} << 32;
  static constexpr uint64_t kRebuildLeafTag = uint64_t{2} << 32;

  void Fire(const FaultEvent& ev);
  void Note(FaultKind kind, int server);

  sim::Simulator* sim_;
  FaultSchedule schedule_;
  FaultHooks hooks_;
  Stats stats_;
  telemetry::IntSink* int_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  uint32_t flight_comp_ = 0;
};

}  // namespace orbit::fault
