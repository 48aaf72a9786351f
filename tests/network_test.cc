/**
 * @file
 * Unit tests for the bus, DRAM and network timing models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/bus.hh"
#include "mem/dram.hh"
#include "net/network.hh"

namespace prism {
namespace {

TEST(MemoryBus, IndependentAddressAndDataPaths)
{
    MemoryBus bus(4, 8);
    EXPECT_EQ(bus.addressPhase(0), 4u);
    EXPECT_EQ(bus.dataPhase(0), 8u); // data path not blocked by addr
    EXPECT_EQ(bus.addressPhase(0), 8u); // addr path queued
    EXPECT_EQ(bus.addrTenures(), 2u);
    EXPECT_EQ(bus.dataTransfers(), 1u);
}

TEST(Dram, PortContention)
{
    Dram d(18);
    EXPECT_EQ(d.access(0), 18u);
    EXPECT_EQ(d.access(0), 36u);
    EXPECT_EQ(d.access(100), 118u);
    EXPECT_EQ(d.accesses(), 3u);
}

TEST(Network, UncontendedLatency)
{
    EventQueue eq;
    Network::Params p;
    Network net(eq, 4, p);
    Tick delivered = 0;
    net.send(0, 1, MsgSize::Control, [&] { delivered = eq.now(); });
    eq.runAll();
    // egress occ + wire latency + ingress occ
    EXPECT_EQ(delivered, p.controlOccupancy + p.oneWayLatency +
                             p.controlOccupancy);
    EXPECT_EQ(net.uncontendedLatency(MsgSize::Control), delivered);
}

TEST(Network, LoopbackSkipsWire)
{
    EventQueue eq;
    Network::Params p;
    Network net(eq, 2, p);
    Tick delivered = 0;
    net.send(1, 1, MsgSize::Data, [&] { delivered = eq.now(); });
    eq.runAll();
    EXPECT_EQ(delivered, 2 * p.dataOccupancy);
}

TEST(Network, FifoPerSourceDestinationPair)
{
    EventQueue eq;
    Network::Params p;
    Network net(eq, 2, p);
    std::vector<int> order;
    // Mixed sizes: a small message sent later must not overtake a
    // large one sent earlier on the same (src, dst) pair.
    net.send(0, 1, MsgSize::Page, [&] { order.push_back(1); });
    net.send(0, 1, MsgSize::Control, [&] { order.push_back(2); });
    net.send(0, 1, MsgSize::Control, [&] { order.push_back(3); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Network, EgressSerializesBursts)
{
    EventQueue eq;
    Network::Params p;
    Network net(eq, 4, p);
    std::vector<Tick> times;
    for (int i = 0; i < 3; ++i)
        net.send(0, 1 + static_cast<NodeId>(i), MsgSize::Control,
                 [&] { times.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(times.size(), 3u);
    // Each successive message waits one more egress occupancy.
    EXPECT_EQ(times[1] - times[0], p.controlOccupancy);
    EXPECT_EQ(times[2] - times[1], p.controlOccupancy);
    EXPECT_EQ(net.stats().messages, 3u);
}

TEST(Network, TrafficProxyAccumulates)
{
    EventQueue eq;
    Network::Params p;
    Network net(eq, 2, p);
    net.send(0, 1, MsgSize::Control, [] {});
    net.send(0, 1, MsgSize::Data, [] {});
    eq.runAll();
    EXPECT_EQ(net.stats().trafficProxy, p.controlOccupancy + p.dataOccupancy);
}

} // namespace
} // namespace prism
