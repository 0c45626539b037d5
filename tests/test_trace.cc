// The hop-event stream end to end on the one-server rig: a sampled read
// from a real client yields one flow that records every hop of the
// exchange, in time order, each inside the flow's own span.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/client.h"
#include "common/hash.h"
#include "telemetry/int/int.h"
#include "telemetry/netstats.h"
#include "tests/orbit_rig.h"

namespace orbit::telemetry {
namespace {

constexpr Addr kTracedClient = 2;

// Every request reads the same key.
class OneKey : public app::WorkloadSource {
 public:
  OneKey(Key key, Addr server) : key_(std::move(key)), server_(server) {}
  Request Next(Rng&) override {
    Request req;
    req.key = key_;
    req.hkey = HashKey128(key_);
    req.server = server_;
    return req;
  }

 private:
  Key key_;
  Addr server_;
};

TEST(HopStream, SampledReadRecordsWholeExchange) {
  testrig::RigConfig cfg;
  cfg.num_servers = 1;
  testrig::Rig rig(cfg);
  const Key key = "traced-key-00000";

  app::ClientConfig ccfg;
  ccfg.addr = kTracedClient;
  ccfg.orbit_port = testrig::kPort;
  ccfg.rate_rps = 1'000;
  app::ClientNode client(&rig.sim(), &rig.net(), /*port=*/0, ccfg,
                         std::make_shared<OneKey>(key, rig.ServerAddrFor(key)));
  const auto link = rig.net().Connect(&client, &rig.sw(), sim::LinkConfig{});
  rig.sw().AddRoute(kTracedClient, link.port_b);

  IntSink sink({/*sample_every=*/64, /*histograms=*/false});
  AttachLinkInt(sink, rig.net());
  rig.sw().SetIntSink(&sink);
  rig.ServerFor(key).SetIntSink(&sink);
  client.SetIntSink(&sink);

  // The first request (seq 64) is sampled; the ones after it are not.
  client.set_next_seq_for_test(64);
  client.Start();
  rig.Run(5 * kMillisecond);
  client.Stop();
  ASSERT_GT(client.stats().tx_requests, 1u);

  IntCapture cap;
  sink.Drain(&cap);
  ASSERT_EQ(cap.flows.size(), 1u);
  const IntFlowRec& flow = cap.flows[0];
  EXPECT_EQ(flow.flow_id, MakeFlowId(kTracedClient, 64));
  EXPECT_STREQ(flow.outcome, "read_server");
  ASSERT_GT(flow.finished_at, flow.started_at);

  std::vector<std::string> got;
  SimTime prev = flow.started_at;
  for (const IntHop& hop : flow.hops) {
    std::string rec = IntHopKindName(hop.kind);
    if (hop.detail != nullptr) rec += std::string(":") + hop.detail;
    got.push_back(rec + " @ " + cap.hop_names.at(hop.hop));
    EXPECT_GE(hop.at, prev) << rec;
    EXPECT_LE(hop.at + hop.latency_ns, flow.finished_at) << rec;
    prev = hop.at;
  }
  const std::vector<std::string> want = {
      "client_tx @ client-2.tx",
      "link @ link.3.client->rig-tor",
      "program:lookup_miss @ rig-tor.program",
      "pipeline:forward_addr @ rig-tor.pipeline",
      "link @ link.1.rig-tor->server-0",
      "srv_rx @ server-0.rx",
      "srv_queue @ server-0.queue",
      "srv_process @ server-0.process",
      "link @ link.1.server-0->rig-tor",
      "pipeline:forward_addr @ rig-tor.pipeline",
      "link @ link.3.rig-tor->client",
      "client_rx @ client-2.rx",
  };
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace orbit::telemetry
