#include "telemetry/netstats.h"

#include "sim/link.h"
#include "sim/node.h"

namespace orbit::telemetry {

void RegisterLinkDropCounters(Registry& reg, const sim::Network& net) {
  for (size_t i = 0; i < net.num_links(); ++i) {
    const sim::Link* link = net.link(i);
    for (int dir = 0; dir < 2; ++dir) {
      const std::string base = "net.link." + std::to_string(i) + "." +
                               link->endpoint(dir)->name() + "->" +
                               link->endpoint(1 - dir)->name() + ".drop.";
      const sim::ChannelStats& st = link->stats(dir);
      const std::string who = "RegisterLinkDropCounters(" + base + ")";
      reg.AddCounter(base + "queue_overflow", [&st] { return st.drops; }, who);
      reg.AddCounter(base + "injected_loss", [&st] { return st.lost; }, who);
      reg.AddCounter(base + "link_down", [&st] { return st.down_drops; }, who);
    }
  }
  const auto total = [&net](uint64_t sim::ChannelStats::*field) {
    return [&net, field] {
      uint64_t sum = 0;
      for (size_t i = 0; i < net.num_links(); ++i)
        for (int dir = 0; dir < 2; ++dir) sum += net.link(i)->stats(dir).*field;
      return sum;
    };
  };
  const std::string who = "RegisterLinkDropCounters";
  reg.AddCounter("net.drop.queue_overflow", total(&sim::ChannelStats::drops),
                 who);
  reg.AddCounter("net.drop.loss", total(&sim::ChannelStats::lost), who);
  reg.AddCounter("net.drop.link_down", total(&sim::ChannelStats::down_drops),
                 who);
}

void AttachLinkInt(IntSink& sink, sim::Network& net) {
  const uint32_t lat_hist = sink.Hist("hop.link.ns", "ns");
  for (size_t i = 0; i < net.num_links(); ++i) {
    sim::Link* link = net.mutable_link(i);
    for (int dir = 0; dir < 2; ++dir) {
      const std::string base = "link." + std::to_string(i) + "." +
                               link->endpoint(dir)->name() + "->" +
                               link->endpoint(1 - dir)->name();
      link->AttachInt(&sink, lat_hist, dir, sink.Hop(base),
                      sink.Hist(base + ".queue_bytes", "bytes"));
    }
  }
}

}  // namespace orbit::telemetry
