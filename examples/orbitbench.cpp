// orbitbench — configurable experiment driver.
//
// Runs one testbed experiment from command-line flags and prints a result
// summary; the programmable front door to everything the figure benches do.
//
//   ./build/examples/orbitbench --scheme netcache --servers 16 --saturate
//
// Flags (defaults in brackets; a bad flag prints the list):
//   --scheme orbitcache|netcache|nocache   [orbitcache]
//   --skew F           zipf theta, 0 = uniform            [0.99]
//   --keys N           key-space size                     [1000000]
//   --clients N        client nodes                       [4]
//   --servers N        emulated storage servers           [32]
//   --server-rate N    per-server RPS cap, 0 = unlimited  [100000]
//   --rate N           offered load (RPS)                 [6000000]
//   --saturate         search for saturated throughput instead of --rate
//   --write-ratio F                                        [0]
//   --cache-size N     OrbitCache entries                 [128]
//   --netcache-size N  NetCache entries                   [10000]
//   --value N          fixed value size; 0 = paper bimodal [0]
//   --write-back       enable the §3.10 write-back extension
//   --multi-packet     enable the §3.10 multi-packet extension
//   --duration-ms N    measurement window                 [200]
//   --seed N                                              [42]
#include <cstdio>
#include <string>

#include "harness/flags.h"
#include "testbed/testbed.h"

int main(int argc, char** argv) {
  using namespace orbit;

  testbed::TestbedConfig cfg;
  harness::Flags flags;
  flags.AddString("scheme", "orbitcache", "NAME",
                  "orbitcache | netcache | nocache");
  flags.AddDouble("skew", cfg.workload.zipf_theta, "F",
                  "zipf theta, 0 = uniform");
  flags.AddUint64("keys", 1'000'000, "N", "key-space size");
  flags.AddInt("clients", cfg.topo.num_clients, "N", "client nodes");
  flags.AddInt("servers", cfg.topo.num_servers, "N",
               "emulated storage servers");
  flags.AddDouble("server-rate", cfg.topo.server_rate_rps, "N",
                  "per-server RPS cap, 0 = unlimited");
  flags.AddDouble("rate", cfg.topo.client_rate_rps, "N", "offered load (RPS)");
  flags.AddBool("saturate",
                "search for saturated throughput instead of --rate");
  flags.AddDouble("write-ratio", cfg.workload.write_ratio, "F",
                  "fraction of writes");
  flags.AddUint64("cache-size", cfg.cache.orbit_cache_size, "N",
                  "OrbitCache entries");
  flags.AddUint64("netcache-size", cfg.cache.netcache_size, "N",
                  "NetCache entries");
  flags.AddUint64("value", 0, "N", "fixed value size; 0 = paper bimodal");
  flags.AddBool("write-back", "enable the §3.10 write-back extension");
  flags.AddBool("multi-packet", "enable the §3.10 multi-packet extension");
  flags.AddInt("duration-ms", 200, "N", "measurement window");
  flags.AddUint64("seed", cfg.seed, "N", "run seed");
  const bool parsed = flags.Parse(argc, argv);
  if (!parsed || !flags.positionals().empty()) {
    const std::string why =
        parsed ? "unexpected argument: " + flags.positionals()[0]
               : flags.error();
    std::fprintf(stderr, "%s\nflags:\n%s", why.c_str(), flags.Usage().c_str());
    return 1;
  }

  const std::string& scheme = flags.GetString("scheme");
  if (scheme == "orbitcache") cfg.scheme = testbed::Scheme::kOrbitCache;
  else if (scheme == "netcache") cfg.scheme = testbed::Scheme::kNetCache;
  else if (scheme == "nocache") cfg.scheme = testbed::Scheme::kNoCache;
  else { std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str()); return 1; }
  cfg.workload.zipf_theta = flags.GetDouble("skew");
  cfg.workload.num_keys = flags.GetUint64("keys");
  cfg.topo.num_clients = flags.GetInt("clients");
  cfg.topo.num_servers = flags.GetInt("servers");
  cfg.topo.server_rate_rps = flags.GetDouble("server-rate");
  cfg.topo.client_rate_rps = flags.GetDouble("rate");
  cfg.workload.write_ratio = flags.GetDouble("write-ratio");
  cfg.cache.orbit_cache_size = flags.GetUint64("cache-size");
  cfg.cache.netcache_size = flags.GetUint64("netcache-size");
  if (flags.GetUint64("value") > 0)
    cfg.workload.value_dist = wl::ValueDist::Fixed(
        static_cast<uint32_t>(flags.GetUint64("value")));
  cfg.cache.write_back = flags.GetBool("write-back");
  cfg.cache.multi_packet = flags.GetBool("multi-packet");
  cfg.duration = flags.GetInt("duration-ms") * kMillisecond;
  cfg.seed = flags.GetUint64("seed");
  const bool saturate = flags.GetBool("saturate");

  std::printf("%s | zipf-%.2f over %llu keys | %d servers @ %.0fK RPS | "
              "write ratio %.2f\n",
              testbed::SchemeName(cfg.scheme), cfg.workload.zipf_theta,
              static_cast<unsigned long long>(cfg.workload.num_keys), cfg.topo.num_servers,
              cfg.topo.server_rate_rps / 1e3, cfg.workload.write_ratio);

  testbed::TestbedResult res;
  if (saturate) {
    auto sat = testbed::FindSaturation(cfg);
    res = std::move(sat.result);
    std::printf("saturation search: %d runs, settled at %.2f MRPS offered\n",
                sat.runs, sat.sat_tx_rps / 1e6);
  } else {
    res = testbed::RunTestbed(cfg);
  }

  std::printf("\nthroughput   %.3f MRPS rx (%.3f offered)\n", res.rx_rps / 1e6,
              res.tx_rps / 1e6);
  std::printf("breakdown    switch %.3f MRPS, servers %.3f MRPS\n",
              res.cache_served_rps / 1e6, res.server_served_rps / 1e6);
  std::printf("balance      efficiency %.2f (min/max server)\n",
              res.balancing_efficiency);
  std::printf("read latency cached p50=%.1f p99=%.1f us | server p50=%.1f "
              "p99=%.1f us\n",
              res.read_cached_latency.Median() / 1e3,
              res.read_cached_latency.P99() / 1e3,
              res.read_server_latency.Median() / 1e3,
              res.read_server_latency.P99() / 1e3);
  if (res.write_latency.count() > 0)
    std::printf("write latency p50=%.1f p99=%.1f us\n",
                res.write_latency.Median() / 1e3,
                res.write_latency.P99() / 1e3);
  std::printf("cache        %zu entries, overflow ratio %.4f, %llu packets "
              "in orbit\n",
              res.cache_entries, res.overflow_ratio,
              static_cast<unsigned long long>(res.cache_packets_in_flight));
  std::printf("integrity    %llu stale reads, %llu collisions, %llu timeouts\n",
              static_cast<unsigned long long>(res.stale_reads),
              static_cast<unsigned long long>(res.collisions),
              static_cast<unsigned long long>(res.timeouts));
  return 0;
}
