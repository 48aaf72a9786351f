/**
 * @file
 * Workload tests: every application runs to completion at Tiny scale,
 * is deterministic, emits sensible reference streams, and (where the
 * host-side computation has a checkable answer) computes correctly.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/machine.hh"
#include "workload/apps.hh"
#include "workload/radix.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

MachineConfig
smallCfg()
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    return cfg;
}

class AppRun : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AppRun, RunsAndMeasuresParallelPhase)
{
    MachineConfig cfg = smallCfg();
    Machine m(cfg);
    auto w = makeApp(GetParam(), AppScale::Tiny);
    RunMetrics r = runWorkload(m, *w);
    EXPECT_GT(r.execCycles, 0u);
    EXPECT_LT(r.execCycles, r.totalCycles + 1);
    EXPECT_GT(r.references, 0u);
    EXPECT_GT(r.framesAllocated, 0u);
    EXPECT_GT(r.avgUtilization, 0.0);
    EXPECT_LE(r.avgUtilization, 1.0);
    // The parallel phase was bracketed.
    EXPECT_GT(m.parallelBeginTick(), 0u);
    // All simulation activity drained.
    EXPECT_EQ(m.eventQueue().pending(), 0u);
}

TEST_P(AppRun, DeterministicExecution)
{
    auto run = [&] {
        MachineConfig cfg = smallCfg();
        Machine m(cfg);
        auto w = makeApp(GetParam(), AppScale::Tiny);
        return runWorkload(m, *w);
    };
    RunMetrics a = run();
    RunMetrics b = run();
    EXPECT_EQ(a.execCycles, b.execCycles) << GetParam();
    EXPECT_EQ(a.references, b.references) << GetParam();
    EXPECT_EQ(a.remoteMisses, b.remoteMisses) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppRun,
                         ::testing::Values("Barnes", "FFT", "LU", "MP3D",
                                           "Ocean", "Radix", "Water-Nsq",
                                           "Water-Spa"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) {
                             std::string n = info.param;
                             for (auto &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(Workload, RadixActuallySorts)
{
    MachineConfig cfg = smallCfg();
    Machine m(cfg);
    RadixWorkload w(RadixWorkload::Params{1u << 12, 256, 24, 5});
    runWorkload(m, w);
    const auto &out = w.result();
    ASSERT_EQ(out.size(), 1u << 12);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(Workload, SizeDescriptionsMatchTable2Format)
{
    for (const auto &app : standardApps(AppScale::Paper)) {
        auto w = app.make();
        EXPECT_EQ(app.name, w->name());
        EXPECT_FALSE(w->sizeDesc().empty());
    }
    // Spot-check the paper's data-set descriptions.
    EXPECT_EQ(makeApp("FFT", AppScale::Paper)->sizeDesc(),
              "65536 complex doubles");
    EXPECT_EQ(makeApp("Radix", AppScale::Paper)->sizeDesc(),
              "1048576 integer keys, radix 1024");
    EXPECT_EQ(makeApp("Water-Nsq", AppScale::Paper)->sizeDesc(),
              "512 molecules, 3 iters");
}

TEST(Workload, SharedPagesSpreadAcrossHomes)
{
    // Round-robin home assignment: after an app runs, every node is
    // home to some shared pages.
    MachineConfig cfg = smallCfg();
    Machine m(cfg);
    auto w = makeApp("Ocean", AppScale::Tiny);
    runWorkload(m, *w);
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        EXPECT_GT(m.node(n).controller().pages().homePages(), 0u)
            << "node " << n << " homes no pages";
    }
}

TEST(Workload, GlobalArenaAllocatesPageAligned)
{
    MachineConfig cfg = smallCfg();
    Machine m(cfg);
    GlobalArena arena(m, 0xA1, 16 * kPageBytes);
    VAddr a = arena.allocPages(100);
    VAddr b = arena.allocPages(kPageBytes + 1);
    EXPECT_EQ(a.offset(), 0u);
    EXPECT_EQ(b.offset(), 0u);
    EXPECT_NE(a.page(), b.page());
    VAddr c = arena.alloc(8);
    EXPECT_GT(c.raw, b.raw);
}

TEST(Workload, PrivArenaIsPerProcessor)
{
    PrivArena a(0);
    PrivArena b(1);
    VAddr va = a.alloc(64);
    VAddr vb = b.alloc(64);
    EXPECT_NE(va.vsid(), vb.vsid());
    EXPECT_EQ(va.vsid(), kPrivateVsidBase);
}

} // namespace
} // namespace prism
