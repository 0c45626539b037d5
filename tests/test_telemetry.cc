// Telemetry unit coverage: the counter registry, the golden Chrome
// trace-event JSON form of the hop-event stream (the external contract
// Perfetto consumes), and the link drop counters.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "telemetry/counters.h"
#include "telemetry/export.h"
#include "telemetry/netstats.h"

namespace orbit::telemetry {
namespace {

TEST(Registry, SamplesInRegistrationOrder) {
  Registry reg;
  uint64_t a = 5;
  reg.AddCounter("b.second", [] { return uint64_t{2}; });
  reg.AddCounter("a.first", [&a] { return a; });
  reg.AddGauge("depth", [] { return uint64_t{7}; });

  Snapshot snap = reg.Sample(123);
  EXPECT_EQ(snap.at, 123);
  ASSERT_EQ(snap.counters.size(), 2u);
  // Registration order, not name order: determinism contract.
  EXPECT_EQ(snap.counters[0].first, "b.second");
  EXPECT_EQ(snap.counters[1].first, "a.first");
  EXPECT_EQ(snap.counters[1].second, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7u);

  // Sources are live: later samples see updated values.
  a = 9;
  snap = reg.Sample(456);
  EXPECT_EQ(snap.counters[1].second, 9u);
}

// The exact exported bytes are the external contract (Perfetto reads
// them); lock the golden form of every event shape in one small capture:
// the root span, an instant hop, a span hop with a detail, and a fault
// mark on the trailing faults row.
TEST(ChromeTraceJson, GoldenDocument) {
  IntCapture cap;
  cap.hop_names = {"tor.pipeline", "client-1.tx"};
  IntFlowRec flow;
  flow.flow_id = 42;
  flow.started_at = 1000;
  flow.finished_at = 9000;
  flow.outcome = "read_cached";
  flow.hops.push_back({1000, 1, IntHopKind::kClientTx, 0, 0, 0, 0, nullptr});
  flow.hops.push_back(
      {1500, 0, IntHopKind::kPipeline, 2250, 250, 0, 0, "forward_addr"});
  flow.hops.push_back({5000, 0, IntHopKind::kRecirc, 1000, 96, 1, 0, nullptr});
  cap.flows.push_back(std::move(flow));
  cap.marks.push_back({6000, "switch_reset", 0});

  const std::string json = ChromeTraceJson({{"exp point=0", &cap}});
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
      "\"exp point=0\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"tor.pipeline\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"client-1.tx\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"faults\"}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"dur\":8.000,\"name\":"
      "\"request:read_cached\",\"cat\":\"telemetry\",\"args\":{\"flow\":42}},\n"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":1.000,\"s\":\"t\",\"name\":"
      "\"client_tx\",\"cat\":\"telemetry\",\"args\":{\"flow\":42,"
      "\"queue_depth\":0,\"recirc\":0,\"drop\":0}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1.500,\"dur\":2.250,\"name\":"
      "\"pipeline:forward_addr\",\"cat\":\"telemetry\",\"args\":{\"flow\":42,"
      "\"queue_depth\":250,\"recirc\":0,\"drop\":0}},\n"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":5.000,\"dur\":1.000,\"name\":"
      "\"recirc\",\"cat\":\"telemetry\",\"args\":{\"flow\":42,"
      "\"queue_depth\":96,\"recirc\":1,\"drop\":0}},\n"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":2,\"ts\":6.000,\"s\":\"t\",\"name\":"
      "\"switch_reset\",\"cat\":\"telemetry\",\"args\":{\"value\":0}}\n"
      "]}\n";
  EXPECT_EQ(json, expected);
}

TEST(ChromeTraceJson, EmptyCaptureListStillValidDocument) {
  const std::string json = ChromeTraceJson({});
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n");
}

// ---- link drop counters -------------------------------------------------

class NamedNode : public sim::Node {
 public:
  explicit NamedNode(std::string name) : name_(std::move(name)) {}
  void OnPacket(sim::PacketPtr, int) override {}
  std::string name() const override { return name_; }

 private:
  std::string name_;
};

// One link per drop reason: a slow link with a tiny drop-tail queue
// overflows, a loss_rate of 1 kills every packet on the coin, and a link
// taken down discards everything offered. Each network-wide total must
// equal its per-link counter, and no drop may count under two reasons.
TEST(RegisterLinkDropCounters, TotalsEqualPerLinkCountersForEveryReason) {
  sim::LinkConfig slow;
  slow.rate_gbps = 0.001;  // slow: packets pile up
  slow.propagation = 100;
  slow.queue_limit_bytes = 200;  // tiny drop-tail queue
  sim::LinkConfig lossy;
  lossy.rate_gbps = 10.0;
  lossy.propagation = 100;
  lossy.loss_rate = 1.0;
  struct Case {
    sim::LinkConfig link;
    bool down;
    sim::DropReason reason;
    std::string total;
  };
  const Case cases[] = {
      {slow, false, sim::DropReason::kQueueOverflow, "net.drop.queue_overflow"},
      {lossy, false, sim::DropReason::kInjectedLoss, "net.drop.loss"},
      {sim::LinkConfig{}, true, sim::DropReason::kLinkDown,
       "net.drop.link_down"}};
  for (const Case& c : cases) {
    const std::string reason = sim::DropReasonName(c.reason);
    sim::Simulator sim;
    sim::Network net(&sim);
    // Distinct names: each direction registers its own per-link counters.
    NamedNode a("a"), b("b");
    const auto att = net.Connect(&a, &b, c.link);
    att.link->set_down(c.down);
    Registry reg;
    RegisterLinkDropCounters(reg, net);

    for (int i = 0; i < 20; ++i) {
      proto::Message msg;
      msg.op = proto::Op::kReadReq;
      auto pkt = sim::MakePacket(1, 2, 5008, 5008, std::move(msg));
      net.Send(&a, att.port_a, std::move(pkt));
    }
    sim.RunToCompletion();

    const Snapshot snap = reg.Sample(sim.now());
    // Two directions x three reasons, then the three totals in order.
    ASSERT_EQ(snap.counters.size(), 9u) << reason;
    EXPECT_EQ(snap.counters[6].first, "net.drop.queue_overflow");
    EXPECT_EQ(snap.counters[7].first, "net.drop.loss");
    EXPECT_EQ(snap.counters[8].first, "net.drop.link_down");
    const std::map<std::string, uint64_t> v(snap.counters.begin(),
                                            snap.counters.end());
    const uint64_t dropped = v.at("net.link.0.a->b.drop." + reason);
    EXPECT_GT(dropped, 0u) << reason;
    if (c.reason != sim::DropReason::kQueueOverflow) {
      EXPECT_EQ(dropped, 20u) << reason;
    }
    EXPECT_EQ(v.at(c.total), dropped) << reason;
    uint64_t per_link = 0, totals = 0;
    for (const auto& [name, value] : snap.counters)
      (name.rfind("net.drop.", 0) == 0 ? totals : per_link) += value;
    EXPECT_EQ(per_link, dropped) << reason << ": one reason per drop";
    EXPECT_EQ(totals, dropped) << reason << ": one reason per drop";
  }
  EXPECT_STREQ(sim::DropReasonName(sim::DropReason::kQueueOverflow),
               "queue_overflow");
  EXPECT_STREQ(sim::DropReasonName(sim::DropReason::kInjectedLoss),
               "injected_loss");
  EXPECT_STREQ(sim::DropReasonName(sim::DropReason::kLinkDown), "link_down");
}

}  // namespace
}  // namespace orbit::telemetry
