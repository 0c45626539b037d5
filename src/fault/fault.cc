#include "fault/fault.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
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

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash: return "server_crash";
    case FaultKind::kServerRestart: return "server_restart";
    case FaultKind::kSwitchReset: return "switch_reset";
    case FaultKind::kCtrlDown: return "ctrl_down";
    case FaultKind::kCtrlUp: return "ctrl_up";
    case FaultKind::kFabricLinkDown: return "fabric_link_down";
    case FaultKind::kFabricLinkUp: return "fabric_link_up";
    case FaultKind::kLeafCrash: return "leaf_crash";
    case FaultKind::kLeafRestart: return "leaf_restart";
    case FaultKind::kSpineCrash: return "spine_crash";
    case FaultKind::kSpineRestart: return "spine_restart";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kLinkRestore: return "link_restore";
    case FaultKind::kRackPartition: return "rack_partition";
    case FaultKind::kRackHeal: return "rack_heal";
  }
  return "?";
}

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

// (down-kind, up-kind) toggle pairs share a target-keyed state machine.
struct ToggleState {
  SimTime since = 0;
  FaultKind by = FaultKind::kSwitchReset;
};

}  // namespace

std::string FaultSchedule::Validate() const {
  // Field-shape checks first, in the order the user wrote the events.
  for (const FaultEvent& ev : events) {
    const char* name = FaultKindName(ev.kind);
    switch (ev.kind) {
      case FaultKind::kServerCrash:
      case FaultKind::kServerRestart:
        if (ev.server < 0)
          return Msg("%s at %lldns needs server >= 0", name,
                     static_cast<long long>(ev.at));
        break;
      case FaultKind::kSwitchReset:
      case FaultKind::kCtrlDown:
      case FaultKind::kCtrlUp:
        break;
      case FaultKind::kFabricLinkDown:
      case FaultKind::kFabricLinkUp:
        if (ev.rack < 0 || ev.spine < 0)
          return Msg("%s at %lldns needs rack >= 0 and spine >= 0", name,
                     static_cast<long long>(ev.at));
        break;
      case FaultKind::kLeafCrash:
      case FaultKind::kLeafRestart:
      case FaultKind::kRackPartition:
      case FaultKind::kRackHeal:
        if (ev.rack < 0)
          return Msg("%s at %lldns needs rack >= 0", name,
                     static_cast<long long>(ev.at));
        break;
      case FaultKind::kSpineCrash:
      case FaultKind::kSpineRestart:
        if (ev.spine < 0)
          return Msg("%s at %lldns needs spine >= 0", name,
                     static_cast<long long>(ev.at));
        break;
      case FaultKind::kLinkDegrade:
        if (ev.rack < 0 || ev.spine < 0 || (ev.dir != 0 && ev.dir != 1))
          return Msg(
              "%s at %lldns needs rack, spine and dir (0 = leaf->spine, "
              "1 = spine->leaf)",
              name, static_cast<long long>(ev.at));
        if (ev.degrade_loss < 0 || ev.degrade_loss > 1 ||
            ev.degrade_latency < 0)
          return Msg(
              "%s at %lldns: degrade_loss must be in [0,1] and "
              "degrade_latency >= 0",
              name, static_cast<long long>(ev.at));
        if (ev.degrade_loss == 0 && ev.degrade_latency == 0)
          return Msg(
              "%s at %lldns degrades nothing: set degrade_loss and/or "
              "degrade_latency",
              name, static_cast<long long>(ev.at));
        break;
      case FaultKind::kLinkRestore:
        if (ev.rack < 0 || ev.spine < 0 || (ev.dir != 0 && ev.dir != 1))
          return Msg(
              "%s at %lldns needs rack, spine and dir (0 = leaf->spine, "
              "1 = spine->leaf)",
              name, static_cast<long long>(ev.at));
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

  auto go_down = [&](const std::string& target, const FaultEvent& ev,
                     const char* up_name) -> std::string {
    auto [it, fresh] = down.try_emplace(target, ToggleState{ev.at, ev.kind});
    if (!fresh)
      return Msg("%s: %s at %lldns overlaps the %s at %lldns (missing %s in "
                 "between?)",
                 target.c_str(), FaultKindName(ev.kind),
                 static_cast<long long>(ev.at), FaultKindName(it->second.by),
                 static_cast<long long>(it->second.since), up_name);
    return "";
  };
  auto go_up = [&](const std::string& target, const FaultEvent& ev,
                   const char* down_name) -> std::string {
    auto it = down.find(target);
    if (it == down.end())
      return Msg("%s: %s at %lldns has no preceding %s to undo", target.c_str(),
                 FaultKindName(ev.kind), static_cast<long long>(ev.at),
                 down_name);
    if (it->second.since == ev.at)
      return Msg("%s: %s and %s both at %lldns (zero-length fault)",
                 target.c_str(), FaultKindName(it->second.by),
                 FaultKindName(ev.kind), static_cast<long long>(ev.at));
    down.erase(it);
    return "";
  };

  for (const FaultEvent& ev : evs) {
    std::string err;
    switch (ev.kind) {
      case FaultKind::kServerCrash:
        err = go_down(Msg("server %d", ev.server), ev, "server_restart");
        break;
      case FaultKind::kServerRestart:
        err = go_up(Msg("server %d", ev.server), ev, "server_crash");
        break;
      case FaultKind::kSwitchReset:
        break;  // instantaneous; the rebuild is scheduled by the injector
      case FaultKind::kCtrlDown:
        err = go_down("ctrl channel", ev, "ctrl_up");
        break;
      case FaultKind::kCtrlUp:
        err = go_up("ctrl channel", ev, "ctrl_down");
        break;
      case FaultKind::kFabricLinkDown:
        if (partitioned.count(ev.rack))
          return Msg(
              "uplink rack %d spine %d: fabric_link_down at %lldns while "
              "rack %d is partitioned (the partition already holds this link "
              "down)",
              ev.rack, ev.spine, static_cast<long long>(ev.at), ev.rack);
        err = go_down(Msg("uplink rack %d spine %d", ev.rack, ev.spine), ev,
                      "fabric_link_up");
        if (err.empty()) ++rack_links_down[ev.rack];
        break;
      case FaultKind::kFabricLinkUp:
        err = go_up(Msg("uplink rack %d spine %d", ev.rack, ev.spine), ev,
                    "fabric_link_down");
        if (err.empty()) --rack_links_down[ev.rack];
        break;
      case FaultKind::kLeafCrash:
        err = go_down(Msg("leaf %d", ev.rack), ev, "leaf_restart");
        break;
      case FaultKind::kLeafRestart:
        err = go_up(Msg("leaf %d", ev.rack), ev, "leaf_crash");
        break;
      case FaultKind::kSpineCrash:
        err = go_down(Msg("spine %d", ev.spine), ev, "spine_restart");
        break;
      case FaultKind::kSpineRestart:
        err = go_up(Msg("spine %d", ev.spine), ev, "spine_crash");
        break;
      case FaultKind::kLinkDegrade:
        err = go_down(Msg("uplink rack %d spine %d dir %d (gray)", ev.rack,
                          ev.spine, ev.dir),
                      ev, "link_restore");
        break;
      case FaultKind::kLinkRestore:
        err = go_up(Msg("uplink rack %d spine %d dir %d (gray)", ev.rack,
                        ev.spine, ev.dir),
                    ev, "link_degrade");
        break;
      case FaultKind::kRackPartition: {
        auto it = rack_links_down.find(ev.rack);
        if (it != rack_links_down.end() && it->second > 0)
          return Msg(
              "rack %d: rack_partition at %lldns while %d of its uplinks are "
              "individually down (bring them up first or drop the per-link "
              "events)",
              ev.rack, static_cast<long long>(ev.at), it->second);
        err = go_down(Msg("rack %d partition", ev.rack), ev, "rack_heal");
        if (err.empty()) partitioned.insert(ev.rack);
        break;
      }
      case FaultKind::kRackHeal:
        err = go_up(Msg("rack %d partition", ev.rack), ev, "rack_partition");
        if (err.empty()) partitioned.erase(ev.rack);
        break;
    }
    if (!err.empty()) return err;
  }
  return "";
}

FaultInjector::FaultInjector(sim::Simulator* sim,
                             const FaultSchedule& schedule, FaultHooks hooks)
    : sim_(sim), schedule_(schedule), hooks_(std::move(hooks)) {
  ORBIT_CHECK(sim != nullptr);
}

void FaultInjector::Arm() {
  for (size_t i = 0; i < schedule_.events.size(); ++i) {
    ORBIT_CHECK_MSG(schedule_.events[i].at >= sim_->now(),
                    "fault scheduled in the past");
    sim_->AtTimer(schedule_.events[i].at, this, i);
  }
}

void FaultInjector::OnTimer(uint64_t arg) {
  if (arg == kRebuildCacheArg) {
    ++stats_.cache_rebuilds;
    ++stats_.injected;
    if (int_ != nullptr) int_->Mark(sim_->now(), "cache_rebuild", 0);
    hooks_.rebuild_cache();
  } else if (arg >= kRebuildLeafTag) {
    const uint64_t rack = arg - kRebuildLeafTag;
    ++stats_.leaf_rebuilds;
    ++stats_.injected;
    if (int_ != nullptr) int_->Mark(sim_->now(), "leaf_rebuild", rack);
    hooks_.rebuild_leaf(static_cast<int>(rack));
  } else {
    Fire(schedule_.events[arg]);
  }
}

void FaultInjector::Note(FaultKind kind, int server) {
  ++stats_.injected;
  if (int_ != nullptr)
    int_->Mark(sim_->now(), FaultKindName(kind),
               server >= 0 ? static_cast<uint64_t>(server) : 0);
  if (flight_ != nullptr) {
    flight_->Note(flight_comp_, sim_->now(), FaultKindName(kind),
                  server >= 0 ? static_cast<uint64_t>(server) : 0);
    // A fault is exactly the moment a post-mortem view of the preceding
    // events is worth keeping.
    flight_->TriggerDump(sim_->now(),
                         std::string("fault: ") + FaultKindName(kind));
  }
}

void FaultInjector::Fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kServerCrash:
      ++stats_.server_crashes;
      Note(ev.kind, ev.server);
      if (hooks_.set_server_link_down)
        hooks_.set_server_link_down(ev.server, true);
      break;
    case FaultKind::kServerRestart:
      ++stats_.server_restarts;
      Note(ev.kind, ev.server);
      if (hooks_.set_server_link_down)
        hooks_.set_server_link_down(ev.server, false);
      break;
    case FaultKind::kSwitchReset:
      ++stats_.switch_resets;
      Note(ev.kind, -1);
      if (hooks_.reset_switch) hooks_.reset_switch();
      // The controller notices the wipe and reinstalls its shadow copy
      // after the detection + reinstall delay.
      if (hooks_.rebuild_cache)
        sim_->AfterTimer(schedule_.switch_rebuild_delay, this,
                         kRebuildCacheArg);
      break;
    case FaultKind::kCtrlDown:
      ++stats_.ctrl_transitions;
      Note(ev.kind, -1);
      if (hooks_.set_ctrl_link_down) hooks_.set_ctrl_link_down(true);
      break;
    case FaultKind::kCtrlUp:
      ++stats_.ctrl_transitions;
      Note(ev.kind, -1);
      if (hooks_.set_ctrl_link_down) hooks_.set_ctrl_link_down(false);
      break;
    case FaultKind::kFabricLinkDown:
      ++stats_.fabric_link_transitions;
      Note(ev.kind, ev.rack);
      if (hooks_.set_fabric_link_down)
        hooks_.set_fabric_link_down(ev.rack, ev.spine, true);
      break;
    case FaultKind::kFabricLinkUp:
      ++stats_.fabric_link_transitions;
      Note(ev.kind, ev.rack);
      if (hooks_.set_fabric_link_down)
        hooks_.set_fabric_link_down(ev.rack, ev.spine, false);
      break;
    case FaultKind::kLeafCrash:
      ++stats_.leaf_crashes;
      Note(ev.kind, ev.rack);
      if (hooks_.set_leaf_down) hooks_.set_leaf_down(ev.rack, true);
      break;
    case FaultKind::kLeafRestart:
      ++stats_.leaf_restarts;
      Note(ev.kind, ev.rack);
      if (hooks_.set_leaf_down) hooks_.set_leaf_down(ev.rack, false);
      // The fabric controller notices the restart and reinstalls rack r's
      // cache after the detection + reinstall delay (same model as the
      // single-switch reset path).
      if (hooks_.rebuild_leaf)
        sim_->AfterTimer(schedule_.switch_rebuild_delay, this,
                         kRebuildLeafTag + static_cast<uint64_t>(ev.rack));
      break;
    case FaultKind::kSpineCrash:
      ++stats_.spine_transitions;
      Note(ev.kind, ev.spine);
      if (hooks_.set_spine_down) hooks_.set_spine_down(ev.spine, true);
      break;
    case FaultKind::kSpineRestart:
      ++stats_.spine_transitions;
      Note(ev.kind, ev.spine);
      if (hooks_.set_spine_down) hooks_.set_spine_down(ev.spine, false);
      break;
    case FaultKind::kLinkDegrade:
      ++stats_.link_degrades;
      Note(ev.kind, ev.rack);
      if (hooks_.set_fabric_link_degrade)
        hooks_.set_fabric_link_degrade(ev.rack, ev.spine, ev.dir,
                                       ev.degrade_loss, ev.degrade_latency);
      break;
    case FaultKind::kLinkRestore:
      ++stats_.link_degrades;
      Note(ev.kind, ev.rack);
      if (hooks_.set_fabric_link_degrade)
        hooks_.set_fabric_link_degrade(ev.rack, ev.spine, ev.dir, 0.0, 0);
      break;
    case FaultKind::kRackPartition:
      ++stats_.partitions;
      Note(ev.kind, ev.rack);
      if (hooks_.set_rack_partition) hooks_.set_rack_partition(ev.rack, true);
      break;
    case FaultKind::kRackHeal:
      ++stats_.partitions;
      Note(ev.kind, ev.rack);
      if (hooks_.set_rack_partition) hooks_.set_rack_partition(ev.rack, false);
      break;
  }
}

void FaultInjector::RegisterTelemetry(telemetry::Registry* registry,
                                      telemetry::IntSink* sink) {
  const std::string who = "FaultInjector::RegisterTelemetry";
  if (registry != nullptr) {
    registry->AddCounter("fault.injected", [this] { return stats_.injected; }, who);
    registry->AddCounter("fault.server_crashes",
                         [this] { return stats_.server_crashes; }, who);
    registry->AddCounter("fault.server_restarts",
                         [this] { return stats_.server_restarts; }, who);
    registry->AddCounter("fault.switch_resets",
                         [this] { return stats_.switch_resets; }, who);
    registry->AddCounter("fault.cache_rebuilds",
                         [this] { return stats_.cache_rebuilds; }, who);
    registry->AddCounter("fault.ctrl_transitions",
                         [this] { return stats_.ctrl_transitions; }, who);
    registry->AddCounter("fault.fabric_link_transitions",
                         [this] { return stats_.fabric_link_transitions; },
                         who);
    registry->AddCounter("fault.leaf_crashes",
                         [this] { return stats_.leaf_crashes; }, who);
    registry->AddCounter("fault.leaf_restarts",
                         [this] { return stats_.leaf_restarts; }, who);
    registry->AddCounter("fault.leaf_rebuilds",
                         [this] { return stats_.leaf_rebuilds; }, who);
    registry->AddCounter("fault.spine_transitions",
                         [this] { return stats_.spine_transitions; }, who);
    registry->AddCounter("fault.link_degrades",
                         [this] { return stats_.link_degrades; }, who);
    registry->AddCounter("fault.partitions",
                         [this] { return stats_.partitions; }, who);
  }
  int_ = sink;
}

void FaultInjector::SetFlightRecorder(telemetry::FlightRecorder* recorder) {
  flight_ = recorder;
  if (flight_ != nullptr) flight_comp_ = flight_->Component("faults");
}

}  // namespace orbit::fault
