#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "apps/client.h"
#include "apps/server.h"
#include "common/hash.h"
#include "common/random.h"
#include "kv/kv_store.h"
#include "netcache/program.h"
#include "orbitcache/program.h"
#include "orbitcache/request_table.h"
#include "rmt/switch.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "testbed/constants.h"
#include "testbed/workload_source.h"

namespace orbit::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using testbed::kClientBase;
using testbed::kControllerBase;
using testbed::kOrbitPort;
using testbed::kServerBase;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Publishes a value computed from the timed calls, so the compiler cannot
// drop the calls.
void Keep(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

// Collects one ns/op sample per timed batch until the probe's budget is
// spent; the probe reports their median, which shrugs off batches the
// shared host slowed down.
class Sampler {
 public:
  explicit Sampler(double budget_s) : budget_s_(budget_s) {}

  bool More() const {
    if (samples_.size() < kMinBatches) return true;
    return samples_.size() < kMaxBatches && SecondsSince(start_) < budget_s_;
  }
  void Add(double seconds, double ops) {
    if (ops > 0) samples_.push_back(seconds * 1e9 / ops);
  }
  double MedianNs() const { return Median(samples_); }

 private:
  static constexpr size_t kMinBatches = 5;
  static constexpr size_t kMaxBatches = 10'000;
  double budget_s_;
  Clock::time_point start_ = Clock::now();
  std::vector<double> samples_;
};

// About as many events as the simulator-driven probes below keep queued.
constexpr size_t kProbePopulation = 256;

class NullTimer : public sim::TimerHandler {
 public:
  void OnTimer(uint64_t) override {}
};

// Consumes every packet delivered to it.
class SinkNode : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr pkt, int) override {
    ++received;
    pkt.reset();
  }
  std::string name() const override { return "sink"; }
  uint64_t received = 0;
};

std::shared_ptr<testbed::ZipfWorkloadSource> MakeSource(
    const testbed::TestbedConfig& cfg) {
  return std::make_shared<testbed::ZipfWorkloadSource>(
      cfg, testbed::MakeValueSizeFn(cfg), nullptr);
}

// Requests drawn from the workload's own source and seed.
std::vector<app::WorkloadSource::Request> DrawRequests(
    const testbed::TestbedConfig& cfg, testbed::ZipfWorkloadSource& source,
    size_t n) {
  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<app::WorkloadSource::Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(source.Next(rng));
  return out;
}

sim::PacketPtr RequestPacket(const app::WorkloadSource::Request& req,
                             uint32_t seq) {
  auto pkt = sim::NewPacket(kClientBase, req.server, 9000, kOrbitPort);
  pkt->msg.op = req.is_write ? proto::Op::kWriteReq : proto::Op::kReadReq;
  pkt->msg.seq = seq;
  pkt->msg.hkey = req.hkey;
  pkt->msg.key = req.key;
  if (req.is_write) pkt->msg.value = kv::Value::Synthetic(req.value_size, 0);
  return pkt;
}

// ---- sim: event core and link -------------------------------------------

// Hold model: keep `population` events queued; every iteration pops the
// earliest and pushes a replacement. One push in events_per_request is a
// request deadline at the client timeout; the rest are the short link,
// pipeline and recirculation delays of the request path.
double HoldNs(const ProbeContext& ctx, size_t population) {
  const testbed::TestbedConfig& cfg = ctx.config;
  const double deadline_share =
      ctx.events_per_request > 1 ? 1.0 / ctx.events_per_request : 0.2;
  Rng rng(cfg.seed);
  auto delay = [&]() -> SimTime {
    if (rng.UniformDouble() < deadline_share) return cfg.client.request_timeout;
    return 100 + static_cast<SimTime>(rng.UniformU64(1900));
  };
  sim::EventQueue queue;
  NullTimer handler;
  for (size_t i = 0; i < population; ++i)
    queue.PushTimer(static_cast<SimTime>(
                        rng.UniformU64(static_cast<uint64_t>(
                            cfg.client.request_timeout))),
                    &handler, i);
  Sampler s(ctx.budget_s);
  constexpr int kBatch = 50'000;
  while (s.More()) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      const sim::Event e = queue.Pop();
      queue.PushTimer(e.time + delay(), e.timer, e.arg);
    }
    s.Add(SecondsSince(t0), kBatch);
  }
  return s.MedianNs();
}

// The workload's pending population: every request holds a deadline for
// the request timeout, so about offered rate x timeout events are queued.
size_t WorkloadPopulation(const testbed::TestbedConfig& cfg) {
  const double timeout_s =
      static_cast<double>(cfg.client.request_timeout) / kSecond;
  return std::max<size_t>(
      kProbePopulation,
      static_cast<size_t>(cfg.topo.client_rate_rps * timeout_s));
}

// Pooled request-sized packets across one client link, in waves that
// drain fully, so the pool recycles the same packets throughout.
double LinkNs(const ProbeContext& ctx, double* events_per_op) {
  const testbed::TestbedConfig& cfg = ctx.config;
  sim::Simulator simulator;
  sim::Network net(&simulator);
  SinkNode src, dst;
  sim::LinkConfig link;
  link.rate_gbps = cfg.topo.client_link_gbps;
  link.propagation = cfg.topo.link_delay;
  net.Connect(&src, &dst, link);
  auto source = MakeSource(cfg);
  const auto reqs = DrawRequests(cfg, *source, 512);
  Sampler s(ctx.budget_s);
  uint64_t ops = 0;
  const uint64_t events0 = simulator.events_processed();
  while (s.More()) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < reqs.size(); ++i)
      net.Send(&src, 0, RequestPacket(reqs[i], static_cast<uint32_t>(i)));
    simulator.RunToCompletion();
    s.Add(SecondsSince(t0), static_cast<double>(reqs.size()));
    ops += reqs.size();
  }
  *events_per_op =
      static_cast<double>(simulator.events_processed() - events0) / ops;
  return s.MedianNs();
}

// ---- rmt + orbitcache ---------------------------------------------------

// One leaf switch running OrbitProgram with the workload's hottest items
// cached and orbiting: each item is bound and fetched through the public
// path, so its F-REP validates the entry and mints the cache packet.
struct OrbitRig {
  explicit OrbitRig(const testbed::TestbedConfig& cfg)
      : net(&simulator),
        sw(&simulator, &net, "tor", cfg.topo.asic),
        source(MakeSource(cfg)) {
    oc::OrbitConfig oc_cfg;
    oc_cfg.capacity = cfg.cache.orbit_capacity;
    oc_cfg.queue_size = cfg.cache.orbit_queue_size;
    oc_cfg.orbit_port = kOrbitPort;
    oc_cfg.epoch_guard = cfg.cache.epoch_guard;
    oc_cfg.enable_cloning = cfg.cache.enable_cloning;
    oc_cfg.write_back = cfg.cache.write_back;
    oc_cfg.multi_packet = cfg.cache.multi_packet;
    program = std::make_unique<oc::OrbitProgram>(&sw, oc_cfg);
    sw.SetProgram(program.get());
    const auto ctrl = net.Connect(&sink, &sw, sim::LinkConfig{});
    sw.AddRoute(kControllerBase, ctrl.port_b);
    program->RegisterCloneTarget(kControllerBase, ctrl.port_b);
    const auto client = net.Connect(&sink, &sw, sim::LinkConfig{});
    sw.AddRoute(kClientBase, client.port_b);
    program->RegisterCloneTarget(kClientBase, client.port_b);
    const auto size_fn = testbed::MakeValueSizeFn(cfg);
    const uint64_t items =
        std::min<uint64_t>(cfg.cache.orbit_cache_size, cfg.workload.num_keys);
    for (uint32_t idx = 0; idx < items; ++idx) {
      const Key key = source->keyspace().KeyAtRank(idx);
      const Hash128 hkey = HashKey128(key);
      program->InsertEntry(hkey, idx);
      auto pkt = sim::NewPacket(kServerBase, kControllerBase, kOrbitPort,
                                kOrbitPort);
      pkt->msg.op = proto::Op::kFetchRep;
      pkt->msg.hkey = hkey;
      pkt->msg.key = key;
      pkt->msg.value = kv::Value::Synthetic(size_fn(key), 1);
      pkt->msg.epoch = program->EpochOf(idx);
      sw.OnPacket(std::move(pkt), ctrl.port_b);
      keys.push_back(key);
      hkeys.push_back(hkey);
    }
  }

  sim::Simulator simulator;
  sim::Network net;
  rmt::SwitchDevice sw;
  SinkNode sink;
  std::shared_ptr<testbed::ZipfWorkloadSource> source;
  std::unique_ptr<oc::OrbitProgram> program;
  std::vector<Key> keys;
  std::vector<Hash128> hkeys;
};

// Idle orbit passes: with no request pending, every simulator event is a
// cache packet re-entering SwitchDevice::OnPacket on the recirculation
// port and going straight back into the loop.
double RecircPassNs(const ProbeContext& ctx, double* events_per_op) {
  OrbitRig rig(ctx.config);
  rig.simulator.RunUntil(10 * kMicrosecond);  // fetch replies settle
  Sampler s(ctx.budget_s);
  constexpr int kBatch = 20'000;
  uint64_t passes = 0, events = 0;
  while (s.More()) {
    const uint64_t p0 = rig.sw.stats().recirc_packets;
    const uint64_t e0 = rig.simulator.events_processed();
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) rig.simulator.Step();
    const double secs = SecondsSince(t0);
    const uint64_t dp = rig.sw.stats().recirc_packets - p0;
    s.Add(secs, static_cast<double>(dp));
    passes += dp;
    events += rig.simulator.events_processed() - e0;
  }
  *events_per_op = passes > 0 ? static_cast<double>(events) / passes : 0;
  return s.MedianNs();
}

// OrbitProgram::Ingress on the three kinds of call the orbit loop makes:
// an idle pass (cache packet, empty queue), an absorbed read (request
// enqueued) and a serving pass (cache packet dequeues a request). Returns
// the mix-weighted mean; *idle_ns gets the idle-pass cost alone.
double OrbitIngressNs(const ProbeContext& ctx, double* idle_ns) {
  OrbitRig rig(ctx.config);
  rig.simulator.RunUntil(10 * kMicrosecond);
  const size_t n = rig.keys.size();
  const uint32_t depth =
      static_cast<uint32_t>(ctx.config.cache.orbit_queue_size);
  std::vector<sim::PacketPtr> cache_pkts, reads;
  for (size_t i = 0; i < n; ++i) {
    auto cp = sim::NewPacket(kServerBase, kControllerBase, kOrbitPort,
                             kOrbitPort);
    cp->msg.op = proto::Op::kReadRep;
    cp->msg.hkey = rig.hkeys[i];
    cp->msg.key = rig.keys[i];
    cp->msg.epoch = rig.program->EpochOf(static_cast<uint32_t>(i));
    cp->from_recirc = true;
    cache_pkts.push_back(std::move(cp));
    auto rd = sim::NewPacket(kClientBase, kServerBase, 9000, kOrbitPort);
    rd->msg.op = proto::Op::kReadReq;
    rd->msg.hkey = rig.hkeys[i];
    rd->msg.key = rig.keys[i];
    reads.push_back(std::move(rd));
  }
  Sampler idle(ctx.budget_s / 3), absorb(ctx.budget_s / 3),
      serve(ctx.budget_s / 3);
  uint64_t sink = 0;  // keeps the calls observable
  while (idle.More() || absorb.More() || serve.More()) {
    auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i)
      sink += static_cast<uint64_t>(
          rig.program->Ingress(*cache_pkts[i], rig.sw).action);
    idle.Add(SecondsSince(t0), static_cast<double>(n));
    t0 = Clock::now();
    for (uint32_t d = 0; d < depth; ++d)
      for (size_t i = 0; i < n; ++i) {
        reads[i]->msg.seq = d;
        sink += static_cast<uint64_t>(
            rig.program->Ingress(*reads[i], rig.sw).action);
      }
    absorb.Add(SecondsSince(t0), static_cast<double>(n * depth));
    t0 = Clock::now();
    for (uint32_t d = 0; d < depth; ++d)
      for (size_t i = 0; i < n; ++i)
        sink += static_cast<uint64_t>(
            rig.program->Ingress(*cache_pkts[i], rig.sw).action);
    serve.Add(SecondsSince(t0), static_cast<double>(n * depth));
  }
  Keep(sink);
  *idle_ns = idle.MedianNs();
  double w_idle = ctx.idle_passes, w_absorb = ctx.absorbed_reads,
         w_serve = ctx.serving_passes;
  if (w_idle + w_absorb + w_serve <= 0) w_idle = w_absorb = w_serve = 1;
  return (w_idle * *idle_ns + w_absorb * absorb.MedianNs() +
          w_serve * serve.MedianNs()) /
         (w_idle + w_absorb + w_serve);
}

double RequestTableNs(const ProbeContext& ctx) {
  const testbed::TestbedConfig& cfg = ctx.config;
  rmt::Resources res(cfg.topo.asic);
  oc::RequestTable table(&res, cfg.cache.orbit_capacity,
                         cfg.cache.orbit_queue_size, /*first_stage=*/2);
  const uint32_t items = static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min<uint64_t>(cfg.cache.orbit_cache_size,
                                               cfg.workload.num_keys)));
  oc::RequestMeta meta;
  meta.client_addr = kClientBase;
  meta.l4_port = 9000;
  Sampler s(ctx.budget_s);
  constexpr uint32_t kBatch = 50'000;
  uint64_t sink = 0;
  while (s.More()) {
    const auto t0 = Clock::now();
    for (uint32_t i = 0; i < kBatch; ++i) {
      meta.seq = i;
      table.TryEnqueue(i % items, meta);
      sink += table.TryDequeue(i % items)->seq;
    }
    s.Add(SecondsSince(t0), kBatch);
  }
  Keep(sink);
  return s.MedianNs();
}

// ---- netcache -----------------------------------------------------------

// NetProgram::Ingress on the workload's read/write mix against a preloaded
// cache: a read is one call (served from switch memory on a valid hit); a
// write is two — the request invalidates the entry, and the server's value
// reply revalidates it.
double NetcacheIngressNs(const ProbeContext& ctx) {
  const testbed::TestbedConfig& cfg = ctx.config;
  sim::Simulator simulator;
  sim::Network net(&simulator);
  rmt::SwitchDevice sw(&simulator, &net, "tor", cfg.topo.asic);
  nc::NetConfig nc_cfg;
  nc_cfg.capacity = cfg.cache.netcache_size;
  nc_cfg.orbit_port = kOrbitPort;
  nc_cfg.hot_threshold = UINT64_MAX;  // static cache, as the testbed runs it
  nc::NetProgram program(&sw, nc_cfg);
  sw.SetProgram(&program);
  auto source = MakeSource(cfg);
  const auto size_fn = testbed::MakeValueSizeFn(cfg);
  uint32_t idx = 0;
  for (uint64_t r = 0; r < cfg.cache.netcache_size && r < cfg.workload.num_keys;
       ++r) {
    const Key key = source->keyspace().KeyAtRank(r);
    if (!testbed::NetCacheCanCache(cfg, key)) continue;
    program.InsertEntry(key, idx++);
    auto rep = sim::NewPacket(kServerBase, kControllerBase, kOrbitPort,
                              kOrbitPort);
    rep->msg.op = proto::Op::kFetchRep;
    rep->msg.key = key;
    rep->msg.value = kv::Value::Synthetic(size_fn(key), 1);
    program.Ingress(*rep, sw);
  }

  const auto reqs = DrawRequests(cfg, *source, 4096);
  std::vector<sim::PacketPtr> pkts;
  for (size_t i = 0; i < reqs.size(); ++i)
    pkts.push_back(RequestPacket(reqs[i], static_cast<uint32_t>(i)));
  auto rep = sim::NewPacket(kServerBase, kClientBase, kOrbitPort, 9000);
  rep->msg.op = proto::Op::kWriteRep;

  Sampler s(ctx.budget_s);
  uint64_t sink = 0;
  while (s.More()) {
    uint64_t calls = 0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < pkts.size(); ++i) {
      sim::Packet& p = *pkts[i];
      // Restore the request fields a served read or a write rewrote.
      p.src = kClientBase;
      p.dst = reqs[i].server;
      p.sport = 9000;
      p.dport = kOrbitPort;
      p.msg.flag = 0;
      p.msg.op = reqs[i].is_write ? proto::Op::kWriteReq : proto::Op::kReadReq;
      sink += static_cast<uint64_t>(program.Ingress(p, sw).action);
      ++calls;
      if (reqs[i].is_write) {
        rep->msg.key = p.msg.key;
        rep->msg.epoch = p.msg.epoch;
        rep->msg.flag = p.msg.flag;
        rep->msg.value = kv::Value::Synthetic(reqs[i].value_size, i + 2);
        sink += static_cast<uint64_t>(program.Ingress(*rep, sw).action);
        ++calls;
      }
    }
    s.Add(SecondsSince(t0), static_cast<double>(calls));
  }
  Keep(sink);
  return s.MedianNs();
}

// ---- kv -----------------------------------------------------------------

void KvNs(const ProbeContext& ctx, double* get_ns, double* put_ns) {
  const testbed::TestbedConfig& cfg = ctx.config;
  auto source = MakeSource(cfg);
  const auto reqs = DrawRequests(cfg, *source, 65'536);
  kv::KvStore store;
  for (const auto& r : reqs) store.Put(r.key, r.value_size);
  Sampler gets(ctx.budget_s / 2), puts(ctx.budget_s / 2);
  uint64_t sink = 0;
  while (gets.More() || puts.More()) {
    auto t0 = Clock::now();
    for (const auto& r : reqs) sink += store.Get(r.key)->size();
    gets.Add(SecondsSince(t0), static_cast<double>(reqs.size()));
    t0 = Clock::now();
    for (const auto& r : reqs) sink += store.Put(r.key, r.value_size);
    puts.Add(SecondsSince(t0), static_cast<double>(reqs.size()));
  }
  Keep(sink);
  *get_ns = gets.MedianNs();
  *put_ns = puts.MedianNs();
}

// ---- apps ---------------------------------------------------------------

// One storage server answering the workload's requests into a sink: each
// batch fills the Rx queue to its admission limit with OnPacket, then runs
// the completion timers and reply deliveries to the end.
double ServerNs(const ProbeContext& ctx, double* events_per_op) {
  const testbed::TestbedConfig& cfg = ctx.config;
  sim::Simulator simulator;
  sim::Network net(&simulator);
  app::ServerConfig scfg;
  scfg.addr = kServerBase;
  scfg.orbit_port = kOrbitPort;
  scfg.service_rate_rps = cfg.topo.server_rate_rps;
  app::ServerNode server(&simulator, &net, 0, scfg,
                         testbed::MakeValueSizeFn(cfg));
  SinkNode sink;
  sim::LinkConfig link;
  link.rate_gbps = cfg.topo.server_link_gbps;
  link.propagation = cfg.topo.link_delay;
  net.Connect(&server, &sink, link);
  auto source = MakeSource(cfg);
  const auto reqs = DrawRequests(cfg, *source, 16'384);
  const size_t batch = scfg.rx_queue_limit;
  Sampler s(ctx.budget_s);
  size_t next = 0;
  uint64_t ops = 0, events = 0;
  std::vector<sim::PacketPtr> pkts;
  while (s.More()) {
    pkts.clear();
    for (size_t i = 0; i < batch; ++i, ++next)
      pkts.push_back(RequestPacket(reqs[next % reqs.size()],
                                   static_cast<uint32_t>(next)));
    const uint64_t e0 = simulator.events_processed();
    const auto t0 = Clock::now();
    for (auto& p : pkts) server.OnPacket(std::move(p), 0);
    simulator.RunToCompletion();
    s.Add(SecondsSince(t0), static_cast<double>(batch));
    ops += batch;
    events += simulator.events_processed() - e0;
  }
  *events_per_op = static_cast<double>(events) / ops;
  return s.MedianNs();
}

// One client sending at its share of the workload's rate into a sink:
// each batch runs a fresh client for 90% of the request timeout, so every
// send pays its workload draw, transmit and deadline arm, and no deadline
// fires (in the real run almost every deadline fires after its reply).
double ClientNs(const ProbeContext& ctx, double* events_per_op) {
  const testbed::TestbedConfig& cfg = ctx.config;
  auto source = MakeSource(cfg);
  Sampler s(ctx.budget_s);
  uint64_t ops = 0, events = 0;
  for (uint64_t round = 0; s.More(); ++round) {
    sim::Simulator simulator;
    sim::Network net(&simulator);
    app::ClientConfig ccfg;
    ccfg.addr = kClientBase;
    ccfg.orbit_port = kOrbitPort;
    ccfg.rate_rps = cfg.topo.client_rate_rps / cfg.topo.num_clients;
    ccfg.request_timeout = cfg.client.request_timeout;
    ccfg.max_retries = cfg.client.max_retries;
    ccfg.seed = cfg.seed * 7919 + round;
    app::ClientNode client(&simulator, &net, 0, ccfg, source);
    SinkNode sink;
    sim::LinkConfig link;
    link.rate_gbps = cfg.topo.client_link_gbps;
    link.propagation = cfg.topo.link_delay;
    net.Connect(&client, &sink, link);
    // Cap a batch near 20K sends so slow rates and long timeouts alike
    // give batches of a few milliseconds.
    const SimTime span = std::min<SimTime>(
        cfg.client.request_timeout * 9 / 10,
        static_cast<SimTime>(20'000.0 / ccfg.rate_rps * kSecond));
    client.Start();
    const auto t0 = Clock::now();
    simulator.RunUntil(span);
    const double secs = SecondsSince(t0);
    const double sends = static_cast<double>(client.stats().tx_requests);
    s.Add(secs, sends);
    ops += client.stats().tx_requests;
    events += simulator.events_processed();
    client.Stop();
  }
  *events_per_op = ops > 0 ? static_cast<double>(events) / ops : 0;
  return s.MedianNs();
}

// ---- workload -----------------------------------------------------------

double NextNs(const ProbeContext& ctx) {
  auto source = MakeSource(ctx.config);
  Rng rng(ctx.config.seed);
  Sampler s(ctx.budget_s);
  constexpr int kBatch = 50'000;
  uint64_t sink = 0;
  while (s.More()) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) sink += source->Next(rng).server;
    s.Add(SecondsSince(t0), kBatch);
  }
  Keep(sink);
  return s.MedianNs();
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ProbeResults RunProbes(const ProbeContext& ctx) {
  ProbeResults r;
  r.hold_ns = HoldNs(ctx, WorkloadPopulation(ctx.config));
  r.probe_hold_ns = HoldNs(ctx, kProbePopulation);
  r.link_ns = LinkNs(ctx, &r.link_events_per_op);
  r.recirc_pass_ns = RecircPassNs(ctx, &r.recirc_events_per_op);
  r.orbit_ingress_ns = OrbitIngressNs(ctx, &r.orbit_idle_ns);
  r.reqtable_ns = RequestTableNs(ctx);
  r.netcache_ingress_ns = NetcacheIngressNs(ctx);
  KvNs(ctx, &r.kv_get_ns, &r.kv_put_ns);
  r.server_ns = ServerNs(ctx, &r.server_events_per_op);
  r.client_req_ns = ClientNs(ctx, &r.client_events_per_op);
  r.next_ns = NextNs(ctx);
  return r;
}

}  // namespace orbit::perfbench
