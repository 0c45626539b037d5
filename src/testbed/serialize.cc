#include "testbed/serialize.h"

#include <algorithm>

namespace orbit::testbed {

using harness::JsonValue;

JsonValue ConfigJson(const TestbedConfig& config) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("scheme", SchemeName(config.scheme));
  out.Set("num_clients", config.topo.num_clients);
  out.Set("num_servers", config.topo.num_servers);
  out.Set("server_rate_rps", config.topo.server_rate_rps);
  out.Set("client_rate_rps", config.topo.client_rate_rps);
  out.Set("num_keys", config.workload.num_keys);
  out.Set("key_size", static_cast<int64_t>(config.workload.key_size));
  out.Set("zipf_theta", config.workload.zipf_theta);
  {
    const wl::ValueDist& dist = config.workload.value_dist;
    JsonValue vd = JsonValue::MakeObject();
    if (dist.bimodal()) {
      vd.Set("small", static_cast<int64_t>(dist.small_size()));
      vd.Set("large", static_cast<int64_t>(dist.large_size()));
      vd.Set("p_small", dist.p_small());
      vd.Set("seed", std::to_string(dist.seed()));
    } else {
      vd.Set("size", static_cast<int64_t>(dist.fixed_size()));
    }
    out.Set("value_dist", std::move(vd));
  }
  out.Set("write_ratio", config.workload.write_ratio);
  out.Set("twitter", config.workload.twitter != nullptr ? JsonValue(config.workload.twitter->id)
                                               : JsonValue());
  out.Set("orbit_cache_size", static_cast<int64_t>(config.cache.orbit_cache_size));
  out.Set("orbit_capacity", static_cast<int64_t>(config.cache.orbit_capacity));
  out.Set("orbit_queue_size", static_cast<int64_t>(config.cache.orbit_queue_size));
  out.Set("netcache_size", static_cast<int64_t>(config.cache.netcache_size));
  out.Set("netcache_recirc_read", config.cache.netcache_recirc_read);
  out.Set("epoch_guard", config.cache.epoch_guard);
  out.Set("enable_cloning", config.cache.enable_cloning);
  out.Set("write_back", config.cache.write_back);
  out.Set("multi_packet", config.cache.multi_packet);
  out.Set("run_cache_updates", config.control.run_cache_updates);
  out.Set("update_period", config.control.update_period);
  out.Set("hot_in", config.workload.hot_in);
  out.Set("hot_in_period", config.workload.hot_in_period);
  out.Set("hot_in_count", config.workload.hot_in_count);
  out.Set("client_max_retries", config.client.max_retries);
  out.Set("client_request_timeout", config.client.request_timeout);
  {
    // Fault schedule: outcome-affecting, so it must feed the fingerprint.
    // Serialized compactly — an empty schedule is the common case.
    JsonValue ft = JsonValue::MakeObject();
    JsonValue events = JsonValue::MakeArray();
    for (const auto& ev : config.fault.events) {
      JsonValue e = JsonValue::MakeObject();
      e.Set("at", ev.at);
      e.Set("kind", fault::FaultKindName(ev.kind));
      if (ev.server >= 0) e.Set("server", ev.server);
      // Fabric targets: emitted only when set, so pre-fabric schedules
      // keep their exact serialization (and fingerprints).
      if (ev.rack >= 0) e.Set("rack", ev.rack);
      if (ev.spine >= 0) e.Set("spine", ev.spine);
      if (ev.dir >= 0) e.Set("dir", ev.dir);
      if (ev.degrade_loss > 0) e.Set("degrade_loss", ev.degrade_loss);
      if (ev.degrade_latency > 0) e.Set("degrade_latency", ev.degrade_latency);
      events.Append(std::move(e));
    }
    ft.Set("events", std::move(events));
    ft.Set("rebuild_delay", config.fault.switch_rebuild_delay);
    const auto burst_json = [](const sim::GilbertElliottConfig& ge) {
      JsonValue burst = JsonValue::MakeObject();
      burst.Set("p_enter_bad", ge.p_enter_bad);
      burst.Set("p_exit_bad", ge.p_exit_bad);
      burst.Set("loss_good", ge.loss_good);
      burst.Set("loss_bad", ge.loss_bad);
      return burst;
    };
    if (config.fault.server_burst_loss.enabled())
      ft.Set("server_burst_loss", burst_json(config.fault.server_burst_loss));
    if (config.fault.fabric_burst_loss.enabled())
      ft.Set("fabric_burst_loss", burst_json(config.fault.fabric_burst_loss));
    out.Set("fault", std::move(ft));
  }
  out.Set("warmup", config.warmup);
  out.Set("duration", config.duration);
  out.Set("seed", std::to_string(config.seed));
  out.Set("timeline_bin", config.timeline_bin);
  {
    JsonValue asic = JsonValue::MakeObject();
    asic.Set("num_stages", config.topo.asic.num_stages);
    asic.Set("alu_bytes_per_stage",
             static_cast<int64_t>(config.topo.asic.alu_bytes_per_stage));
    asic.Set("sram_bytes_per_stage",
             static_cast<int64_t>(config.topo.asic.sram_bytes_per_stage));
    asic.Set("alus_per_stage", config.topo.asic.alus_per_stage);
    asic.Set("tables_per_stage", config.topo.asic.tables_per_stage);
    asic.Set("recirc_rate_gbps", config.topo.asic.recirc_rate_gbps);
    out.Set("asic", std::move(asic));
  }
  out.Set("client_link_gbps", config.topo.client_link_gbps);
  out.Set("server_link_gbps", config.topo.server_link_gbps);
  out.Set("link_delay", config.topo.link_delay);
  if (config.topo.fabric.enabled()) {
    // Leaf–spine section: outcome-affecting, so it feeds the fingerprint —
    // but only when enabled, so every pre-fabric config keeps its exact
    // serialization (and the quick-suite baseline its bytes).
    JsonValue fb = JsonValue::MakeObject();
    fb.Set("num_racks", config.topo.fabric.num_racks);
    fb.Set("num_spines", config.topo.fabric.num_spines);
    if (config.topo.fabric.failover) {
      // Probes share uplink bandwidth (outcome-affecting), so failover
      // feeds the fingerprint — but only when on, keeping every
      // pre-failover fabric config byte-identical.
      JsonValue fo = JsonValue::MakeObject();
      fo.Set("probe_interval", config.topo.fabric.probe_interval);
      fo.Set("detection_window", config.topo.fabric.detection_window);
      fb.Set("failover", std::move(fo));
    }
    out.Set("fabric", std::move(fb));
  }
  return out;
}

std::string ConfigFingerprint(const TestbedConfig& config) {
  return ConfigJson(config).Dump();
}

namespace {

// Percentile summary of one latency histogram, in microseconds.
JsonValue LatencyJson(const stats::Histogram& h) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("n", h.count());
  out.Set("p50_us", h.count() > 0 ? h.Median() / 1e3 : 0.0);
  out.Set("p99_us", h.count() > 0 ? h.P99() / 1e3 : 0.0);
  out.Set("mean_us", h.mean() / 1e3);
  return out;
}

}  // namespace

JsonValue ResultMetrics(const TestbedResult& result,
                        const ResultMetricsOptions& options) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("rx_mrps", result.rx_rps / 1e6);
  out.Set("tx_mrps", result.tx_rps / 1e6);
  out.Set("cache_mrps", result.cache_served_rps / 1e6);
  out.Set("server_mrps", result.server_served_rps / 1e6);
  out.Set("loss", result.tx_rps > 0
                      ? std::max(0.0, 1.0 - result.rx_rps / result.tx_rps)
                      : 0.0);
  out.Set("balancing_efficiency", result.balancing_efficiency);

  {
    stats::Histogram reads = result.read_cached_latency;
    reads.Merge(result.read_server_latency);
    out.Set("read_p50_us", reads.count() > 0 ? reads.Median() / 1e3 : 0.0);
    out.Set("read_p99_us", reads.count() > 0 ? reads.P99() / 1e3 : 0.0);
  }
  out.Set("read_cached", LatencyJson(result.read_cached_latency));
  out.Set("read_server", LatencyJson(result.read_server_latency));
  out.Set("write", LatencyJson(result.write_latency));
  out.Set("switch_resident", LatencyJson(result.switch_resident));

  out.Set("lookup_hits", result.lookup_hits);
  out.Set("absorbed", result.absorbed);
  out.Set("overflows", result.overflows);
  out.Set("overflow_ratio", result.overflow_ratio);
  out.Set("recirc_drops", result.recirc_drops);
  out.Set("cache_packets_in_flight", result.cache_packets_in_flight);
  out.Set("cp_drop_evicted", result.cp_drop_evicted);
  out.Set("cp_drop_invalid", result.cp_drop_invalid);
  out.Set("cp_drop_epoch", result.cp_drop_epoch);
  out.Set("validations", result.validations);
  out.Set("collisions", result.collisions);
  out.Set("stale_reads", result.stale_reads);
  out.Set("timeouts", result.timeouts);
  out.Set("retransmissions", result.retransmissions);
  out.Set("retries_exhausted", result.retries_exhausted);
  out.Set("inflight_at_stop", result.inflight_at_stop);
  out.Set("faults_injected", result.faults_injected);
  out.Set("reroutes", result.reroutes);
  out.Set("blackholed_packets", result.blackholed_packets);
  out.Set("server_drops", result.server_drops);
  out.Set("cache_entries", static_cast<int64_t>(result.cache_entries));
  out.Set("controller_cache_size",
          static_cast<int64_t>(result.controller_cache_size));

  if (!result.server_loads.empty()) {
    const auto [mn, mx] = std::minmax_element(result.server_loads.begin(),
                                              result.server_loads.end());
    out.Set("server_load_min", *mn);
    out.Set("server_load_max", *mx);
  }
  if (options.include_server_loads) {
    JsonValue loads = JsonValue::MakeArray();
    for (uint64_t v : result.server_loads) loads.Append(v);
    out.Set("server_loads", std::move(loads));
  }
  if (!result.throughput_timeline.empty()) {
    JsonValue tput = JsonValue::MakeArray();
    for (double v : result.throughput_timeline) tput.Append(v);
    out.Set("throughput_timeline_rps", std::move(tput));
    JsonValue ovf = JsonValue::MakeArray();
    for (double v : result.overflow_ratio_timeline) ovf.Append(v);
    out.Set("overflow_ratio_timeline", std::move(ovf));
  }

  out.Set("rmt_stages_used", result.rmt_stages_used);
  out.Set("rmt_sram_bytes_used", result.rmt_sram_bytes_used);
  out.Set("rmt_sram_fraction", result.rmt_sram_fraction);
  out.Set("rmt_alus_used", result.rmt_alus_used);
  out.Set("events_processed", result.events_processed);
  return out;
}

}  // namespace orbit::testbed
