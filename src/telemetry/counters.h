// Named counter/gauge registry with deterministic snapshots.
//
// Components that already keep internal statistics (SwitchDevice::Stats,
// OrbitProgram::Stats, per-array access counts, …) register *sources* —
// closures reading the live value — under stable dotted names
// ("switch.recirc.packets", "rmt.s0.cache_lookup.hits"). The registry is
// pull-based: nothing is written per packet, so an unregistered run pays
// nothing, and a registered run pays only at snapshot time. Snapshots are
// taken at simulated-time boundaries, so parallel and serial harness runs
// sample identical values.
//
// Counters are monotonic over a run; gauges are point-in-time readings
// (queue depths, in-flight packets). The distinction matters downstream:
// time-series consumers difference counters and plot gauges directly.
//
// Link drops are pulled the same way, from each link's sim::ChannelStats
// (telemetry/netstats.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "telemetry/int/int.h"

namespace orbit::telemetry {

// One sampled view of every registered metric, in registration order.
struct Snapshot {
  SimTime at = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> gauges;
};

class Registry {
 public:
  using Source = std::function<uint64_t()>;

  // `registrant` names who is registering (component + prefix, e.g.
  // "Server::RegisterTelemetry(server.3)"); it only appears in the
  // duplicate-name diagnostic. Registering the same name twice throws
  // CheckFailure naming both registrants — a silently shadowed counter
  // would export two rows under one name and corrupt every downstream
  // diff.
  void AddCounter(std::string name, Source read, std::string registrant = {}) {
    Claim("counter", name, std::move(registrant));
    counters_.emplace_back(std::move(name), std::move(read));
  }
  void AddGauge(std::string name, Source read, std::string registrant = {}) {
    Claim("gauge", name, std::move(registrant));
    gauges_.emplace_back(std::move(name), std::move(read));
  }

  size_t num_counters() const { return counters_.size(); }
  size_t num_gauges() const { return gauges_.size(); }

  Snapshot Sample(SimTime at) const {
    Snapshot snap;
    snap.at = at;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, read] : counters_)
      snap.counters.emplace_back(name, read());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, read] : gauges_)
      snap.gauges.emplace_back(name, read());
    return snap;
  }

 private:
  void Claim(const char* kind, const std::string& name,
             std::string registrant) {
    if (registrant.empty()) registrant = "(unnamed registrant)";
    // try_emplace leaves `registrant` untouched when the key exists, so
    // the diagnostic can name both parties.
    auto [it, inserted] = owners_.try_emplace(
        std::string(kind) + ":" + name, std::move(registrant));
    if (!inserted) {
      throw CheckFailure("duplicate telemetry " + std::string(kind) + " '" +
                         name + "': already registered by " + it->second +
                         ", re-registered by " + registrant +
                         " — give each component instance a unique prefix");
    }
  }

  std::vector<std::pair<std::string, Source>> counters_;
  std::vector<std::pair<std::string, Source>> gauges_;
  // kind-qualified name -> registrant, for duplicate diagnostics.
  std::unordered_map<std::string, std::string> owners_;
};

// Everything one instrumented testbed run captured; owned by the caller
// (harness runner slot or test) and filled by RunTestbed.
struct RunCapture {
  std::vector<Snapshot> snapshots;    // periodic + final registry samples
  IntCapture int_capture;             // hop-event stream + histogram snapshots
  std::string flight_dump;            // flight-recorder text; "" = no dumps

  bool empty() const {
    return snapshots.empty() && int_capture.empty() && flight_dump.empty();
  }
  void Clear() {
    snapshots.clear();
    int_capture.Clear();
    flight_dump.clear();
  }
};

}  // namespace orbit::telemetry
