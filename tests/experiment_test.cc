/**
 * @file
 * Experiment-runner tests: the SCOMA-70 cap calibration methodology
 * (Section 4.2) and the policy sweep plumbing.
 */

#include <gtest/gtest.h>

#include "workload/apps.hh"
#include "workload/experiment.hh"
#include "workload/parallel_runner.hh"

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

TEST(Experiment, PaperPoliciesInFigureSevenOrder)
{
    auto p = paperPolicies();
    ASSERT_EQ(p.size(), 6u);
    EXPECT_EQ(p[0], PolicyKind::Scoma);
    EXPECT_EQ(p[1], PolicyKind::LaNuma);
    EXPECT_EQ(p[2], PolicyKind::Scoma70);
    EXPECT_EQ(p[3], PolicyKind::DynFcfs);
    EXPECT_EQ(p[4], PolicyKind::DynUtil);
    EXPECT_EQ(p[5], PolicyKind::DynLru);
}

TEST(Experiment, SweepReusesScomaCalibrationRun)
{
    auto apps = standardApps(AppScale::Tiny);
    const AppSpec *fft = nullptr;
    for (auto &a : apps) {
        if (a.name == "FFT")
            fft = &a;
    }
    ASSERT_NE(fft, nullptr);
    auto rs = runSweepsParallel(
        RunSpec{.machine = smallCfg(),
                .policies = {PolicyKind::Scoma, PolicyKind::Scoma70}},
        {*fft});
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_EQ(rs[0].policy, PolicyKind::Scoma);
    EXPECT_GT(rs[0].metrics.execCycles, 0u);
    // SCOMA has no page-outs by construction.
    EXPECT_EQ(rs[0].metrics.clientPageOuts, 0u);
    // The restricted run can only allocate fewer client frames.
    for (std::size_t n = 0; n < rs[0].metrics.clientScomaPeakPerNode
                                    .size(); ++n) {
        std::uint64_t cap = static_cast<std::uint64_t>(
            0.7 * static_cast<double>(
                      rs[0].metrics.clientScomaPeakPerNode[n]));
        if (cap == 0)
            cap = 1;
        EXPECT_LE(rs[1].metrics.clientScomaPeakPerNode[n], cap)
            << "node " << n;
    }
}

TEST(Experiment, LaNumaRunsUncapped)
{
    auto apps = standardApps(AppScale::Tiny);
    const AppSpec *ocean = nullptr;
    for (auto &a : apps) {
        if (a.name == "Ocean")
            ocean = &a;
    }
    ASSERT_NE(ocean, nullptr);
    auto rs = runSweepsParallel(
        RunSpec{.machine = smallCfg(),
                .policies = {PolicyKind::Scoma, PolicyKind::LaNuma}},
        {*ocean});
    // LANUMA allocates no client S-COMA frames at all.
    for (std::uint64_t peak : rs[1].metrics.clientScomaPeakPerNode)
        EXPECT_EQ(peak, 0u);
    // And consumes fewer real frames than SCOMA (Table 3's point).
    EXPECT_LT(rs[1].metrics.framesAllocated,
              rs[0].metrics.framesAllocated);
}

TEST(Experiment, CapFractionIsConfigurable)
{
    auto apps = standardApps(AppScale::Tiny);
    const AppSpec *radix = nullptr;
    for (auto &a : apps) {
        if (a.name == "Radix")
            radix = &a;
    }
    ASSERT_NE(radix, nullptr);
    auto r50 = runSweepsParallel(
        RunSpec{.machine = smallCfg(),
                .policies = {PolicyKind::Scoma, PolicyKind::Scoma70},
                .capFraction = 0.50},
        {*radix});
    auto r90 = runSweepsParallel(
        RunSpec{.machine = smallCfg(),
                .policies = {PolicyKind::Scoma, PolicyKind::Scoma70},
                .capFraction = 0.90},
        {*radix});
    // A tighter cache cannot cause fewer page-outs.
    EXPECT_GE(r50[1].metrics.clientPageOuts,
              r90[1].metrics.clientPageOuts);
}

TEST(Experiment, AppRegistryScalesExist)
{
    for (AppScale s :
         {AppScale::Paper, AppScale::Small, AppScale::Tiny}) {
        auto apps = standardApps(s);
        EXPECT_EQ(apps.size(), 9u); // Table 2's eight kernels + KV
        EXPECT_EQ(apps.back().name, "KV");
        for (auto &a : apps)
            EXPECT_NE(a.make(), nullptr);
    }
}

} // namespace
} // namespace prism
