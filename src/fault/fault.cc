#include "fault/fault.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/int/flight.h"
#include "telemetry/int/int.h"

namespace orbit::fault {

namespace {

// What an event acts on. A kind with no target is instantaneous and has no
// pair.
enum class Target {
  kNone, kServer, kCtrl, kUplink, kLeaf, kSpine, kGray, kRack
};

using Stats = FaultInjector::Stats;

// The one description of each fault kind, in FaultKind order.
struct KindRow {
  const char* name;
  Target target;
  bool opens;      // opens a fault (else closes one)
  FaultKind pair;  // the kind on the other side of the pair
  uint64_t Stats::*counter;
};
constexpr KindRow kKinds[] = {
    {"server_crash", Target::kServer, true, FaultKind::kServerRestart,
     &Stats::server_crashes},
    {"server_restart", Target::kServer, false, FaultKind::kServerCrash,
     &Stats::server_restarts},
    {"switch_reset", Target::kNone, true, FaultKind::kSwitchReset,
     &Stats::switch_resets},
    {"ctrl_down", Target::kCtrl, true, FaultKind::kCtrlUp,
     &Stats::ctrl_transitions},
    {"ctrl_up", Target::kCtrl, false, FaultKind::kCtrlDown,
     &Stats::ctrl_transitions},
    {"fabric_link_down", Target::kUplink, true, FaultKind::kFabricLinkUp,
     &Stats::fabric_link_transitions},
    {"fabric_link_up", Target::kUplink, false, FaultKind::kFabricLinkDown,
     &Stats::fabric_link_transitions},
    {"leaf_crash", Target::kLeaf, true, FaultKind::kLeafRestart,
     &Stats::leaf_crashes},
    {"leaf_restart", Target::kLeaf, false, FaultKind::kLeafCrash,
     &Stats::leaf_restarts},
    {"spine_crash", Target::kSpine, true, FaultKind::kSpineRestart,
     &Stats::spine_transitions},
    {"spine_restart", Target::kSpine, false, FaultKind::kSpineCrash,
     &Stats::spine_transitions},
    {"link_degrade", Target::kGray, true, FaultKind::kLinkRestore,
     &Stats::link_degrades},
    {"link_restore", Target::kGray, false, FaultKind::kLinkDegrade,
     &Stats::link_degrades},
    {"rack_partition", Target::kRack, true, FaultKind::kRackHeal,
     &Stats::partitions},
    {"rack_heal", Target::kRack, false, FaultKind::kRackPartition,
     &Stats::partitions},
};
static_assert(std::size(kKinds) ==
              static_cast<size_t>(FaultKind::kRackHeal) + 1);

const KindRow& Row(FaultKind kind) {
  return kKinds[static_cast<size_t>(kind)];
}

}  // namespace

const char* FaultKindName(FaultKind kind) { return Row(kind).name; }

bool OpensFault(FaultKind kind) { return Row(kind).opens; }

FaultSchedule SwitchResetAt(SimTime at, SimTime rebuild_delay) {
  FaultSchedule s;
  s.events.push_back({at, FaultKind::kSwitchReset, -1});
  s.switch_rebuild_delay = rebuild_delay;
  return s;
}

FaultSchedule ServerCrashAt(int server, SimTime crash_at, SimTime restart_at) {
  ORBIT_CHECK(restart_at > crash_at);
  FaultSchedule s;
  s.events.push_back({crash_at, FaultKind::kServerCrash, server});
  s.events.push_back({restart_at, FaultKind::kServerRestart, server});
  return s;
}

namespace {
FaultEvent FabricEvent(SimTime at, FaultKind kind, int rack, int spine) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.rack = rack;
  ev.spine = spine;
  return ev;
}
}  // namespace

FaultSchedule FabricLinkDownAt(int rack, int spine, SimTime down_at,
                               SimTime up_at) {
  ORBIT_CHECK(up_at > down_at);
  FaultSchedule s;
  s.events.push_back(
      FabricEvent(down_at, FaultKind::kFabricLinkDown, rack, spine));
  s.events.push_back(FabricEvent(up_at, FaultKind::kFabricLinkUp, rack, spine));
  return s;
}

FaultSchedule LeafCrashAt(int rack, SimTime crash_at, SimTime restart_at,
                          SimTime rebuild_delay) {
  ORBIT_CHECK(restart_at > crash_at);
  FaultSchedule s;
  s.events.push_back(FabricEvent(crash_at, FaultKind::kLeafCrash, rack, -1));
  s.events.push_back(
      FabricEvent(restart_at, FaultKind::kLeafRestart, rack, -1));
  s.switch_rebuild_delay = rebuild_delay;
  return s;
}

FaultSchedule SpineCrashAt(int spine, SimTime crash_at, SimTime restart_at) {
  ORBIT_CHECK(restart_at > crash_at);
  FaultSchedule s;
  s.events.push_back(FabricEvent(crash_at, FaultKind::kSpineCrash, -1, spine));
  s.events.push_back(
      FabricEvent(restart_at, FaultKind::kSpineRestart, -1, spine));
  return s;
}

FaultSchedule LinkDegradeAt(int rack, int spine, int dir, double loss,
                            SimTime extra_latency, SimTime at,
                            SimTime restore_at) {
  ORBIT_CHECK(restore_at > at);
  FaultSchedule s;
  FaultEvent degrade = FabricEvent(at, FaultKind::kLinkDegrade, rack, spine);
  degrade.dir = dir;
  degrade.degrade_loss = loss;
  degrade.degrade_latency = extra_latency;
  s.events.push_back(degrade);
  FaultEvent restore =
      FabricEvent(restore_at, FaultKind::kLinkRestore, rack, spine);
  restore.dir = dir;
  s.events.push_back(restore);
  return s;
}

FaultSchedule RackPartitionAt(int rack, SimTime at, SimTime heal_at) {
  ORBIT_CHECK(heal_at > at);
  FaultSchedule s;
  s.events.push_back(FabricEvent(at, FaultKind::kRackPartition, rack, -1));
  s.events.push_back(FabricEvent(heal_at, FaultKind::kRackHeal, rack, -1));
  return s;
}

namespace {

std::string Msg(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// The name overlap errors give an event's target.
std::string TargetName(const FaultEvent& ev) {
  switch (Row(ev.kind).target) {
    case Target::kNone: return "";
    case Target::kServer: return Msg("server %d", ev.server);
    case Target::kCtrl: return "ctrl channel";
    case Target::kUplink:
      return Msg("uplink rack %d spine %d", ev.rack, ev.spine);
    case Target::kLeaf: return Msg("leaf %d", ev.rack);
    case Target::kSpine: return Msg("spine %d", ev.spine);
    case Target::kGray:
      return Msg("uplink rack %d spine %d dir %d (gray)", ev.rack, ev.spine,
                 ev.dir);
    case Target::kRack: return Msg("rack %d partition", ev.rack);
  }
  return "";
}

// The id an event's INT mark and flight note carry.
uint64_t TargetId(const FaultEvent& ev) {
  int id = -1;
  switch (Row(ev.kind).target) {
    case Target::kNone:
    case Target::kCtrl: break;
    case Target::kServer: id = ev.server; break;
    case Target::kSpine: id = ev.spine; break;
    case Target::kUplink:
    case Target::kLeaf:
    case Target::kGray:
    case Target::kRack: id = ev.rack; break;
  }
  return id >= 0 ? static_cast<uint64_t>(id) : 0;
}

// The opening event of a pair whose closing event has not come yet.
struct ToggleState {
  SimTime since = 0;
  FaultKind by = FaultKind::kSwitchReset;
};

}  // namespace

std::string FaultSchedule::Validate() const {
  if (switch_rebuild_delay < 0)
    return Msg("switch_rebuild_delay must be >= 0 (got %lldns)",
               static_cast<long long>(switch_rebuild_delay));
  // Field-shape checks first, in the order the user wrote the events.
  for (const FaultEvent& ev : events) {
    const char* name = FaultKindName(ev.kind);
    const long long at = static_cast<long long>(ev.at);
    if (ev.at < 0)
      return Msg("%s at %lldns is before the run starts (at must be >= 0)",
                 name, at);
    switch (Row(ev.kind).target) {
      case Target::kNone:
      case Target::kCtrl:
        break;
      case Target::kServer:
        if (ev.server < 0)
          return Msg("%s at %lldns needs server >= 0", name, at);
        break;
      case Target::kUplink:
        if (ev.rack < 0 || ev.spine < 0)
          return Msg("%s at %lldns needs rack >= 0 and spine >= 0", name, at);
        break;
      case Target::kLeaf:
      case Target::kRack:
        if (ev.rack < 0) return Msg("%s at %lldns needs rack >= 0", name, at);
        break;
      case Target::kSpine:
        if (ev.spine < 0)
          return Msg("%s at %lldns needs spine >= 0", name, at);
        break;
      case Target::kGray:
        if (ev.rack < 0 || ev.spine < 0 || (ev.dir != 0 && ev.dir != 1))
          return Msg(
              "%s at %lldns needs rack, spine and dir (0 = leaf->spine, "
              "1 = spine->leaf)",
              name, at);
        if (!OpensFault(ev.kind)) break;
        if (ev.degrade_loss < 0 || ev.degrade_loss > 1 ||
            ev.degrade_latency < 0)
          return Msg(
              "%s at %lldns: degrade_loss must be in [0,1] and "
              "degrade_latency >= 0",
              name, at);
        if (ev.degrade_loss == 0 && ev.degrade_latency == 0)
          return Msg(
              "%s at %lldns degrades nothing: set degrade_loss and/or "
              "degrade_latency",
              name, at);
        break;
    }
  }

  // Overlap / contradiction checks run over the time-ordered schedule.
  // Equal-time events keep their written order, except that a pair on the
  // same target at the same instant is always rejected: zero-length faults
  // and same-instant races are almost certainly authoring mistakes.
  std::vector<FaultEvent> evs = events;
  std::stable_sort(evs.begin(), evs.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });

  std::map<std::string, ToggleState> down;  // target name -> down since
  std::map<int, int> rack_links_down;       // rack -> # of individually-down uplinks
  std::set<int> partitioned;

  for (const FaultEvent& ev : evs) {
    const KindRow& row = Row(ev.kind);
    // A switch reset is instantaneous; the injector arms its rebuild.
    if (row.target == Target::kNone) continue;
    // A partition holds every uplink of its rack down, so per-link events
    // may not interleave with it.
    if (ev.kind == FaultKind::kFabricLinkDown && partitioned.count(ev.rack))
      return Msg(
          "uplink rack %d spine %d: fabric_link_down at %lldns while "
          "rack %d is partitioned (the partition already holds this link "
          "down)",
          ev.rack, ev.spine, static_cast<long long>(ev.at), ev.rack);
    if (ev.kind == FaultKind::kRackPartition && rack_links_down[ev.rack] > 0)
      return Msg(
          "rack %d: rack_partition at %lldns while %d of its uplinks are "
          "individually down (bring them up first or drop the per-link "
          "events)",
          ev.rack, static_cast<long long>(ev.at), rack_links_down[ev.rack]);

    const std::string target = TargetName(ev);
    const char* pair = FaultKindName(row.pair);
    if (row.opens) {
      auto [it, fresh] = down.try_emplace(target, ToggleState{ev.at, ev.kind});
      if (!fresh)
        return Msg(
            "%s: %s at %lldns overlaps the %s at %lldns (missing %s in "
            "between?)",
            target.c_str(), row.name, static_cast<long long>(ev.at),
            FaultKindName(it->second.by),
            static_cast<long long>(it->second.since), pair);
    } else {
      auto it = down.find(target);
      if (it == down.end())
        return Msg("%s: %s at %lldns has no preceding %s to undo",
                   target.c_str(), row.name, static_cast<long long>(ev.at),
                   pair);
      if (it->second.since == ev.at)
        return Msg("%s: %s and %s both at %lldns (zero-length fault)",
                   target.c_str(), FaultKindName(it->second.by), row.name,
                   static_cast<long long>(ev.at));
      down.erase(it);
    }

    if (row.target == Target::kUplink)
      rack_links_down[ev.rack] += row.opens ? 1 : -1;
    if (ev.kind == FaultKind::kRackPartition) partitioned.insert(ev.rack);
    if (ev.kind == FaultKind::kRackHeal) partitioned.erase(ev.rack);
  }
  return "";
}

std::string FaultSchedule::CheckTargets(int servers, int racks,
                                        int spines) const {
  for (const FaultEvent& ev : events) {
    const char* name = FaultKindName(ev.kind);
    switch (Row(ev.kind).target) {
      case Target::kNone:
        break;
      case Target::kServer:
        if (ev.server >= servers)
          return Msg("fault event %s targets server %d but only %d servers "
                     "exist",
                     name, ev.server, servers);
        break;
      case Target::kCtrl:
        if (racks > 0)
          return "kCtrlDown/kCtrlUp target the single-switch controller "
                 "channel; on a fabric, crash the leaf (kLeafCrash) instead";
        break;
      case Target::kUplink:
      case Target::kLeaf:
      case Target::kSpine:
      case Target::kGray:
      case Target::kRack:
        if (racks == 0)
          return Msg("fault event %s targets the fabric, but topo.fabric is "
                     "disabled (num_racks == 0)",
                     name);
        if (ev.rack >= racks)
          return Msg("fault event %s targets rack %d but only %d racks exist",
                     name, ev.rack, racks);
        if (ev.spine >= spines)
          return Msg("fault event %s targets spine %d but only %d spines "
                     "exist",
                     name, ev.spine, spines);
        break;
    }
  }
  return "";
}

FaultInjector::FaultInjector(sim::Simulator* sim,
                             const FaultSchedule& schedule, ApplyFn apply,
                             RebuildFn rebuild)
    : sim_(sim),
      schedule_(schedule),
      apply_(std::move(apply)),
      rebuild_(std::move(rebuild)) {
  ORBIT_CHECK(sim != nullptr && apply_ != nullptr);
}

void FaultInjector::Arm() {
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    ORBIT_CHECK_MSG(schedule_.events[i].at >= sim_->now(),
                    "fault scheduled in the past");
    sim_->AtTimer(schedule_.events[i].at, this, i);
  }
}

void FaultInjector::OnTimer(uint64_t arg) {
  if (arg >= kRebuildTag) {
    const int rack = static_cast<int>(arg - kRebuildTag) - 1;
    ++(rack < 0 ? stats_.cache_rebuilds : stats_.leaf_rebuilds);
    ++stats_.injected;
    if (int_ != nullptr)
      int_->Mark(sim_->now(), rack < 0 ? "cache_rebuild" : "leaf_rebuild",
                 rack < 0 ? 0 : static_cast<uint64_t>(rack));
    rebuild_(rack);
    return;
  }
  const FaultEvent& ev = schedule_.events[arg];
  const KindRow& row = Row(ev.kind);
  ++(stats_.*row.counter);
  ++stats_.injected;
  if (int_ != nullptr) int_->Mark(sim_->now(), row.name, TargetId(ev));
  if (flight_ != nullptr) {
    flight_->Note(flight_comp_, sim_->now(), row.name, TargetId(ev));
    // A fault is exactly the moment a post-mortem view of the preceding
    // events is worth keeping.
    flight_->TriggerDump(sim_->now(), std::string("fault: ") + row.name);
  }
  apply_(ev);
  // The controller notices the wipe (or the restarted leaf) and reinstalls
  // its shadow copy after the detection + reinstall delay.
  if (rebuild_ == nullptr) return;
  if (ev.kind == FaultKind::kSwitchReset)
    sim_->AfterTimer(schedule_.switch_rebuild_delay, this, kRebuildTag);
  else if (ev.kind == FaultKind::kLeafRestart)
    sim_->AfterTimer(schedule_.switch_rebuild_delay, this,
                     kRebuildTag + static_cast<uint64_t>(ev.rack) + 1);
}

void FaultInjector::RegisterTelemetry(telemetry::Registry* registry,
                                      telemetry::IntSink* sink) {
  static constexpr std::pair<const char*, uint64_t Stats::*> kCounters[] = {
      {"fault.injected", &Stats::injected},
      {"fault.server_crashes", &Stats::server_crashes},
      {"fault.server_restarts", &Stats::server_restarts},
      {"fault.switch_resets", &Stats::switch_resets},
      {"fault.cache_rebuilds", &Stats::cache_rebuilds},
      {"fault.ctrl_transitions", &Stats::ctrl_transitions},
      {"fault.fabric_link_transitions", &Stats::fabric_link_transitions},
      {"fault.leaf_crashes", &Stats::leaf_crashes},
      {"fault.leaf_restarts", &Stats::leaf_restarts},
      {"fault.leaf_rebuilds", &Stats::leaf_rebuilds},
      {"fault.spine_transitions", &Stats::spine_transitions},
      {"fault.link_degrades", &Stats::link_degrades},
      {"fault.partitions", &Stats::partitions},
  };
  if (registry != nullptr) {
    for (const auto& [name, field] : kCounters)
      registry->AddCounter(name, [this, field] { return stats_.*field; },
                           "FaultInjector::RegisterTelemetry");
  }
  int_ = sink;
}

void FaultInjector::SetFlightRecorder(telemetry::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr) flight_comp_ = flight_->Component("faults");
}

}  // namespace orbit::fault
