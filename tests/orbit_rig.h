// A small hand-wired OrbitCache deployment for protocol-level integration
// tests: one switch, a scriptable client port, N storage servers, and an
// optional controller. Unlike the testbed (which drives statistical
// workloads), the rig sends individual packets and inspects individual
// replies, so tests can exercise exact protocol interleavings.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apps/server.h"
#include "kv/partition.h"
#include "orbitcache/controller.h"
#include "orbitcache/program.h"
#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit::testrig {

constexpr L4Port kPort = 5008;
constexpr Addr kClientAddr = 1;
constexpr Addr kControllerAddr = 900;
constexpr Addr kServerBase = 100;

struct RigConfig {
  oc::OrbitConfig orbit;
  int num_servers = 2;
  double server_rate_rps = 0;  // unthrottled by default
  bool multi_packet_servers = false;
  uint32_t value_size = 64;
  bool with_controller = false;
  ctrl::ControllerConfig controller;
  // Link used for switch<->server connections (loss injection etc.).
  sim::LinkConfig server_link;
};

class Rig {
 public:
  struct Reply {
    proto::Message msg;
    SimTime at = 0;
  };

  // Records every packet delivered to the client address.
  class ClientPort : public sim::Node {
   public:
    explicit ClientPort(sim::Simulator* sim) : sim_(sim) {}
    void OnPacket(sim::PacketPtr pkt, int) override {
      replies.push_back({pkt->msg, sim_->now()});
    }
    std::string name() const override { return "rig-client"; }
    std::vector<Reply> replies;

   private:
    sim::Simulator* sim_;
  };

  explicit Rig(const RigConfig& config)
      : config_(config),
        net_(&sim_),
        sw_(&sim_, &net_, "rig-tor", rmt::AsicConfig{}),
        partitioner_(static_cast<uint32_t>(config.num_servers)),
        client_(&sim_) {
    program_ = std::make_unique<oc::OrbitProgram>(&sw_, config.orbit);
    sw_.SetProgram(program_.get());

    // Every AddRoute also points the address's PRE clone group at its port
    // (clients get replies, servers snapshot-flush forks, the controller
    // fetch acks).
    auto c = net_.Connect(&client_, &sw_, sim::LinkConfig{});
    sw_.AddRoute(kClientAddr, c.port_b);

    for (int i = 0; i < config.num_servers; ++i) {
      app::ServerConfig scfg;
      scfg.addr = kServerBase + static_cast<Addr>(i);
      scfg.srv_id = static_cast<uint8_t>(i);
      scfg.orbit_port = kPort;
      scfg.service_rate_rps = config.server_rate_rps;
      scfg.multi_packet = config.multi_packet_servers;
      const uint32_t vs = config.value_size;
      servers_.push_back(std::make_unique<app::ServerNode>(
          &sim_, &net_, 0, scfg, [vs](const Key&) { return vs; }));
      sim::LinkConfig slink = config.server_link;
      slink.loss_seed = config.server_link.loss_seed + static_cast<uint64_t>(i);
      auto s = net_.Connect(servers_.back().get(), &sw_, slink);
      sw_.AddRoute(scfg.addr, s.port_b);
      server_addrs_.push_back(scfg.addr);
    }

    if (config.with_controller) {
      controller_ = std::make_unique<oc::Controller>(
          &sim_, &net_, program_.get(), &partitioner_, server_addrs_,
          kControllerAddr, 0, config.controller);
      auto k = net_.Connect(controller_.get(), &sw_, sim::LinkConfig{});
      sw_.AddRoute(kControllerAddr, k.port_b);
    } else {
      // Route fetch acks somewhere harmless.
      auto k = net_.Connect(&client_, &sw_, sim::LinkConfig{});
      sw_.AddRoute(kControllerAddr, k.port_b);
    }
  }

  Addr ServerAddrFor(const Key& key) const {
    return kServerBase + partitioner_.ServerFor(key);
  }
  app::ServerNode& ServerFor(const Key& key) {
    return *servers_[partitioner_.ServerFor(key)];
  }

  void SendRead(const Key& key, uint32_t seq) {
    Send(proto::Op::kReadReq, key, seq, kv::Value());
  }
  void SendWrite(const Key& key, uint32_t seq, uint32_t size,
                 uint64_t version = 0) {
    Send(proto::Op::kWriteReq, key, seq, kv::Value::Synthetic(size, version));
  }
  void SendCorrection(const Key& key, uint32_t seq) {
    Send(proto::Op::kCorrectionReq, key, seq, kv::Value());
  }
  // Controller-less manual fetch: makes the servers mint a cache packet.
  void SendFetch(const Key& key, uint32_t seq = 0) {
    proto::Message msg;
    msg.op = proto::Op::kFetchReq;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net_.Send(&client_, 0,
              sim::MakePacket(kControllerAddr, ServerAddrFor(key), kPort,
                              kPort, std::move(msg)));
  }

  // Installs `key` at `idx` and fetches its value, then settles.
  void CacheAndFetch(const Key& key, uint32_t idx) {
    program_->InsertEntry(HashKey128(key), idx);
    SendFetch(key);
    Settle();
  }

  void Run(SimTime duration) { sim_.RunUntil(sim_.now() + duration); }
  // Long enough for any in-flight exchange to finish.
  void Settle() { Run(200 * kMicrosecond); }

  const Reply* FindReply(uint32_t seq) const {
    for (const auto& r : client_.replies)
      if (r.msg.seq == seq) return &r;
    return nullptr;
  }
  size_t CountReplies(uint32_t seq) const {
    size_t n = 0;
    for (const auto& r : client_.replies)
      if (r.msg.seq == seq) ++n;
    return n;
  }

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  rmt::SwitchDevice& sw() { return sw_; }
  oc::OrbitProgram& program() { return *program_; }
  oc::Controller& controller() { return *controller_; }
  ClientPort& client() { return client_; }

 private:
  void Send(proto::Op op, const Key& key, uint32_t seq, kv::Value value) {
    proto::Message msg;
    msg.op = op;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    msg.value = std::move(value);
    net_.Send(&client_, 0,
              sim::MakePacket(kClientAddr, ServerAddrFor(key), 9000, kPort,
                              std::move(msg)));
  }

  RigConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  rmt::SwitchDevice sw_;
  kv::Partitioner partitioner_;
  ClientPort client_;
  std::unique_ptr<oc::OrbitProgram> program_;
  std::vector<std::unique_ptr<app::ServerNode>> servers_;
  std::vector<Addr> server_addrs_;
  std::unique_ptr<oc::Controller> controller_;
};

}  // namespace orbit::testrig
