// Link drop counters for the snapshot exporter.
//
// Every link direction counts its own drops in sim::ChannelStats; this
// helper walks the network's links in creation order and registers one
// pull-based counter per direction per drop reason, named
//
//   net.link.<idx>.<from>-><to>.drop.{queue_overflow,injected_loss,link_down}
//
// then three network-wide totals, each the sum of one reason over every
// link:
//
//   net.drop.{queue_overflow,loss,link_down}
//
// The index disambiguates nodes with identical names (all clients print as
// "client"); names come from Node::name() so leaf/spine hops are readable.
// Pull-based over Link::ChannelStats: registering costs nothing per packet.
#pragma once

#include "sim/network.h"
#include "telemetry/counters.h"
#include "telemetry/int/int.h"

namespace orbit::telemetry {

void RegisterLinkDropCounters(Registry& reg, const sim::Network& net);

// INT attachment for every link (both directions), in creation order.
// Interns per-direction hop names `link.<idx>.<from>-><to>`, always-on
// queue-depth histograms `link.<idx>.<from>-><to>.queue_bytes`, and the
// shared hop-class latency histogram `hop.link.ns`. Call after the
// topology is fully wired — links created later are not instrumented.
void AttachLinkInt(IntSink& sink, sim::Network& net);

}  // namespace orbit::telemetry
