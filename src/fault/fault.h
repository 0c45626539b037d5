// Deterministic, sim-time-scripted fault injection (§3.9).
//
// A `FaultSchedule` is part of the experiment configuration: a list of
// (time, kind) events — server crash/restart, switch reset, controller
// channel loss, and the fabric faults beside them — plus optional
// Gilbert–Elliott burst loss on every server link and uplink. The schedule
// is pure data (it serializes into the config fingerprint);
// `FaultInjector` arms one simulator timer per event and hands each event
// to the testbed's `apply`, so two runs of the same seeded config inject
// byte-identical faults.
//
// One table in fault.cc describes every kind: its name, its target, whether
// it opens a fault or closes one, the kind on the other side of that pair,
// and the injector counter it bumps. docs/FAULTS.md describes what each
// kind does to the testbed.
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

// Each pair's first kind opens a fault and its second closes it
// (docs/FAULTS.md has what each one does to the testbed).
enum class FaultKind {
  kServerCrash,  // the server's access link goes down / up
  kServerRestart,
  kSwitchReset,  // every leaf's data plane is wiped, then rebuilt
  kCtrlDown,     // the switch-CPU channel drops controller traffic / heals
  kCtrlUp,
  // Fabric faults (leaf–spine topologies only).
  kFabricLinkDown,  // the (rack, spine) uplink goes down / up
  kFabricLinkUp,
  kLeafCrash,    // rack r's leaf is wiped and forwards by route /
  kLeafRestart,  // runs its program again, and its cache is rebuilt
  kSpineCrash,   // every uplink of spine s goes down / up
  kSpineRestart,
  kLinkDegrade,  // one direction of an uplink loses and delays / heals
  kLinkRestore,
  kRackPartition,  // every uplink of rack r goes down / up
  kRackHeal,
};
const char* FaultKindName(FaultKind kind);
// True for the first kind of a pair (a crash, down, degrade or partition)
// and for a switch reset; false for the kind that closes a pair.
bool OpensFault(FaultKind kind);

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

  // Structural validation: the rebuild delay and every event time are
  // non-negative, every event names a target of the right shape, degrade
  // parameters are sane, and no two events on the same target
  // overlap or contradict (a crash during an existing crash, a restart
  // with nothing to restart, two events on one target at the same
  // instant). Returns "" when valid, else one actionable error message.
  std::string Validate() const;
  // The target ranges, which only the testbed knows: every server, rack and
  // spine an event names exists, fabric targets need a fabric (`racks` 0
  // is the single switch), and the controller channel needs the single
  // switch. Returns "" when every target exists, else one error message.
  std::string CheckTargets(int servers, int racks, int spines) const;
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

// Binds a schedule to a live simulation: Arm() turns every FaultEvent into
// a simulator timer. When it fires, the injector bumps the kind's counter,
// marks the hop-event stream, notes the flight recorder and hands the
// event to `apply`. A switch reset arms `rebuild(-1)` and a leaf restart
// `rebuild(rack)`, `switch_rebuild_delay` later, when a `rebuild` is given.
class FaultInjector : public sim::TimerHandler {
 public:
  struct Stats {
    uint64_t injected = 0;  // events plus rebuilds
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
  // Acts one event out on the testbed.
  using ApplyFn = std::function<void(const FaultEvent&)>;
  // Reinstalls rack r's cache from the controller's shadow copy; -1 means
  // every rack (after a switch reset).
  using RebuildFn = std::function<void(int rack)>;

  FaultInjector(sim::Simulator* sim, const FaultSchedule& schedule,
                ApplyFn apply, RebuildFn rebuild = nullptr);
  // Armed timers hold the injector's address.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event; call once, before the run starts.
  void Arm();
  // Timer demux: a schedule index injects that event; kRebuildTag + rack + 1
  // fires the delayed rebuild of that rack (rack -1: every rack).
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
  // Schedule indices stay below the tag.
  static constexpr uint64_t kRebuildTag = uint64_t{1} << 32;

  sim::Simulator* sim_;
  FaultSchedule schedule_;
  ApplyFn apply_;
  RebuildFn rebuild_;
  Stats stats_;
  telemetry::IntSink* int_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  uint32_t flight_comp_ = 0;
};

}  // namespace orbit::fault
