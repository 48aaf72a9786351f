/**
 * @file
 * End-to-end smoke tests: small machines run small workloads to
 * completion under every policy, with sane metrics.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workload/apps.hh"
#include "workload/fft.hh"
#include "workload/radix.hh"
#include "workload/experiment.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

MachineConfig
tinyConfig()
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    return cfg;
}

TEST(Smoke, FftTinyRunsToCompletion)
{
    MachineConfig cfg = tinyConfig();
    Machine m(cfg);
    FftWorkload w(FftWorkload::Params{8});
    RunMetrics r = runWorkload(m, w);
    EXPECT_GT(r.execCycles, 0u);
    EXPECT_GT(r.references, 0u);
    EXPECT_GT(r.framesAllocated, 0u);
    EXPECT_EQ(m.eventQueue().pending(), 0u);
}

TEST(Smoke, EveryTinyAppEveryPolicy)
{
    for (const auto &app : standardApps(AppScale::Tiny)) {
        for (PolicyKind pk :
             {PolicyKind::Scoma, PolicyKind::LaNuma, PolicyKind::DynLru}) {
            MachineConfig cfg = tinyConfig();
            cfg.policy = pk;
            cfg.clientFrameCapPerNode.assign(
                cfg.numNodes, pk == PolicyKind::Scoma ? 0 : 24);
            RunMetrics r = runOnce(RunSpec{.machine = cfg}, app);
            EXPECT_GT(r.execCycles, 0u)
                << app.name << " " << policyName(pk);
            EXPECT_GT(r.references, 0u)
                << app.name << " " << policyName(pk);
        }
    }
}

TEST(Smoke, DeterministicAcrossRuns)
{
    auto run = [] {
        MachineConfig cfg = tinyConfig();
        Machine m(cfg);
        RadixWorkload w(RadixWorkload::Params{1u << 10, 256, 24, 9});
        return runWorkload(m, w);
    };
    RunMetrics a = run();
    RunMetrics b = run();
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.remoteMisses, b.remoteMisses);
    EXPECT_EQ(a.references, b.references);
    EXPECT_EQ(a.networkMessages, b.networkMessages);
}

} // namespace
} // namespace prism
