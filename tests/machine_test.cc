/**
 * @file
 * Machine-level tests: topology wiring, parallel-phase measurement,
 * metrics aggregation, and the miss-latency histogram.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

TEST(Machine, TopologyWiring)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 3;
    Machine m(cfg);
    EXPECT_EQ(m.numNodes(), 4u);
    EXPECT_EQ(m.numProcs(), 12u);
    // Node-major processor numbering.
    EXPECT_EQ(m.proc(0).id(), 0u);
    EXPECT_EQ(m.proc(7).id(), 7u);
    EXPECT_EQ(&m.proc(7), &m.node(2).proc(1));
    // Round-robin static homes.
    EXPECT_EQ(m.staticHomeOf(0), 0u);
    EXPECT_EQ(m.staticHomeOf(5), 1u);
    EXPECT_EQ(m.staticHomeOf(7), 3u);
}

TEST(Machine, ParallelPhaseBracketsMetrics)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(1, 8 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);

    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            auto va = [](std::uint64_t pg) {
                return makeVAddr(kSharedVsid, pg, 0);
            };
            // Pre-phase remote traffic (node 1 touches page 0).
            if (pp.id() == 1)
                co_await pp.read(va(0));
            co_await pp.barrier(0);
            if (pp.id() == 0)
                co_await pp.beginParallel();
            co_await pp.barrier(0);
            // In-phase traffic.
            if (pp.id() == 1)
                co_await pp.read(va(2));
            co_await pp.barrier(0);
            if (pp.id() == 0)
                co_await pp.endParallel();
            co_await pp.barrier(0);
            // Post-phase traffic must not count.
            if (pp.id() == 1)
                co_await pp.read(va(4));
        }(p);
    });

    RunMetrics r = m.metrics();
    // Exactly the one in-phase remote miss is reported.
    EXPECT_EQ(r.remoteMisses, 1u);
    EXPECT_GT(r.execCycles, 0u);
    EXPECT_LT(r.execCycles, r.totalCycles);
    // Whole-run counters still see all three.
    std::uint64_t all = 0;
    for (NodeId n = 0; n < 2; ++n)
        all += m.node(n).controller().stats().remoteMisses;
    EXPECT_EQ(all, 3u);
}

TEST(Machine, MissLatencyHistogramPopulates)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(2, 8 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            if (pp.id() != 1)
                co_return;
            for (int l = 0; l < 32; ++l)
                co_await pp.read(
                    makeVAddr(kSharedVsid, 0,
                              static_cast<std::uint64_t>(l) * 64));
        }(p);
    });
    // Every one of the 32 lines is a 2-party fetch from home node 0.
    const Histogram &h = m.node(1).controller().latency().read2;
    EXPECT_EQ(h.count(), 32u);
    // Remote misses land in the hundreds-of-cycles buckets.
    EXPECT_GT(h.mean(), 200.0);
    EXPECT_LT(h.mean(), 2000.0);
}

TEST(Machine, DrainLeavesNoPendingEvents)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 2;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(3, 8 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            for (int i = 0; i < 50; ++i)
                co_await pp.write(makeVAddr(
                    kSharedVsid, static_cast<std::uint64_t>(i % 6),
                    static_cast<std::uint64_t>(i) * 64 % kPageBytes));
        }(p);
    });
    EXPECT_EQ(m.eventQueue().pending(), 0u);
}

TEST(Machine, RouteRejectsNothingAndCountsMessages)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(4, 4 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            if (pp.id() == 1)
                co_await pp.read(makeVAddr(kSharedVsid, 0, 0));
            co_return;
        }(p);
    });
    // Page-in request/reply + coherence request/reply at minimum.
    EXPECT_GE(m.network().stats().messages, 4u);
}

} // namespace
} // namespace prism
