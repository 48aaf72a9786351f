/**
 * @file
 * Behavioural regression tests: the qualitative relationships the
 * paper's evaluation rests on must hold at Small scale.  These pin
 * the *shape* of the results so a regression in the protocol, the
 * policies or the workloads shows up as a test failure, not as a
 * silently wrong benchmark table.
 */

#include <gtest/gtest.h>

#include "workload/apps.hh"
#include "workload/experiment.hh"
#include "workload/parallel_runner.hh"

namespace prism {
namespace {

const AppSpec &
app(std::vector<AppSpec> &apps, const char *name)
{
    for (auto &a : apps) {
        if (a.name == name)
            return a;
    }
    throw std::runtime_error("unknown app");
}

class Behaviour : public ::testing::Test
{
  protected:
    static std::vector<AppSpec> apps_;

    static void
    SetUpTestSuite()
    {
        apps_ = standardApps(AppScale::Small);
    }
};

std::vector<AppSpec> Behaviour::apps_;

TEST_F(Behaviour, LanumaSuffersCapacityRemoteMissesOnOcean)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::LaNuma}},
        {app(apps_, "Ocean")});
    // Paper Table 4: Ocean LANUMA has far more remote misses than
    // SCOMA (capacity misses go remote).  The gap grows with the
    // problem size; at Small scale it is still a clear >30%.
    EXPECT_GT(rs[1].metrics.remoteMisses,
              static_cast<std::uint64_t>(
                  1.3 * static_cast<double>(rs[0].metrics.remoteMisses)));
    // And it runs substantially slower (Figure 7).
    EXPECT_GT(rs[1].metrics.execCycles,
              static_cast<Tick>(1.2 * rs[0].metrics.execCycles));
}

TEST_F(Behaviour, ScomaSeventyTradesPageOutsForFewerRemoteMisses)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::LaNuma, PolicyKind::Scoma70}},
        {app(apps_, "Radix")});
    const auto &scoma = rs[0].metrics;
    const auto &lanuma = rs[1].metrics;
    const auto &s70 = rs[2].metrics;
    // SCOMA-70's page cache keeps remote misses below LANUMA...
    EXPECT_LT(s70.remoteMisses, lanuma.remoteMisses);
    // ...but at the price of paging activity SCOMA never pays.
    EXPECT_EQ(scoma.clientPageOuts, 0u);
    EXPECT_GE(s70.remoteMisses, scoma.remoteMisses);
}

TEST_F(Behaviour, DynFcfsNeverPagesOut)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::DynFcfs}},
        {app(apps_, "FFT")});
    // Paper Table 5: "Page-outs do not occur in Dyn-FCFS."
    EXPECT_EQ(rs[1].metrics.clientPageOuts, 0u);
}

TEST_F(Behaviour, AdaptivePoliciesCutPageOutsBelowScomaSeventy)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::Scoma70, PolicyKind::DynLru}},
        {app(apps_, "Barnes")});
    // Paper Table 5 vs Table 4: the adaptive configurations
    // significantly reduce client page-outs versus SCOMA-70.
    EXPECT_LT(rs[2].metrics.clientPageOuts,
              rs[1].metrics.clientPageOuts);
}

TEST_F(Behaviour, AdaptiveBeatsLanumaOnCapacityBoundApp)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::LaNuma, PolicyKind::DynFcfs}},
        {app(apps_, "Ocean")});
    EXPECT_LT(rs[2].metrics.execCycles, rs[1].metrics.execCycles);
}

TEST_F(Behaviour, Mp3dIsCommunicationDominated)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::LaNuma}},
        {app(apps_, "MP3D")});
    // Paper: communication-related traffic costs the same in either
    // mode, so MP3D shows no significant difference (within 20%).
    const double ratio =
        static_cast<double>(rs[1].metrics.execCycles) /
        static_cast<double>(rs[0].metrics.execCycles);
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.25);
}

TEST_F(Behaviour, ScomaAllocatesMoreFramesWithLowerUtilization)
{
    MachineConfig base;
    auto rs = runSweepsParallel(
        RunSpec{.machine = base, .policies = {PolicyKind::Scoma, PolicyKind::LaNuma}},
        {app(apps_, "FFT")});
    // Paper Table 3's memory-consumption claim.  (The utilization
    // ordering is a paper-scale property; at Small scale the sparse
    // private/home frames dominate both columns, so here we only
    // check sanity of the utilization metric itself.)
    EXPECT_GT(rs[0].metrics.framesAllocated,
              rs[1].metrics.framesAllocated);
    EXPECT_GT(rs[0].metrics.avgUtilization, 0.0);
    EXPECT_LE(rs[0].metrics.avgUtilization, 1.0);
    EXPECT_GT(rs[1].metrics.avgUtilization, 0.0);
    EXPECT_LE(rs[1].metrics.avgUtilization, 1.0);
}

TEST_F(Behaviour, DramPitSlowsLanumaOnlyModestly)
{
    // Section 4.3: moving the PIT from SRAM (2) to DRAM (10) costs
    // a few percent.
    MachineConfig sram;
    sram.policy = PolicyKind::LaNuma;
    RunMetrics s = runOnce(RunSpec{.machine = sram}, app(apps_, "LU"));
    MachineConfig dram = sram;
    dram.pitLatency = 10;
    RunMetrics d = runOnce(RunSpec{.machine = dram}, app(apps_, "LU"));
    const double slowdown = static_cast<double>(d.execCycles) /
                            static_cast<double>(s.execCycles);
    EXPECT_GE(slowdown, 1.0);
    EXPECT_LT(slowdown, 1.25);
}

} // namespace
} // namespace prism
