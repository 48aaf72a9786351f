/**
 * @file
 * Parallel sweep runner tests.
 *
 * The load-bearing invariant: simulations are deterministic and fully
 * isolated per Machine, so the same (app, policy) sweep must produce
 * bit-identical RunMetrics whether it runs sequentially or on a
 * worker pool — for any worker count and any completion order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <vector>

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

std::vector<AppSpec>
tinyApps(std::initializer_list<const char *> names)
{
    std::vector<AppSpec> out;
    for (const AppSpec &a : standardApps(AppScale::Tiny)) {
        for (const char *n : names) {
            if (a.name == n)
                out.push_back(a);
        }
    }
    return out;
}

::testing::AssertionResult
metricsIdentical(const RunMetrics &a, const RunMetrics &b)
{
#define PRISM_CHECK_FIELD(f)                                              \
    if (a.f != b.f)                                                       \
        return ::testing::AssertionFailure()                              \
               << #f " differs: " << a.f << " vs " << b.f;
    PRISM_CHECK_FIELD(execCycles)
    PRISM_CHECK_FIELD(totalCycles)
    PRISM_CHECK_FIELD(remoteMisses)
    PRISM_CHECK_FIELD(clientPageOuts)
    PRISM_CHECK_FIELD(upgrades)
    PRISM_CHECK_FIELD(invalidations)
    PRISM_CHECK_FIELD(networkMessages)
    PRISM_CHECK_FIELD(pageFaults)
    PRISM_CHECK_FIELD(framesAllocated)
    PRISM_CHECK_FIELD(references)
    PRISM_CHECK_FIELD(forwards)
    PRISM_CHECK_FIELD(migrations)
#undef PRISM_CHECK_FIELD
    if (a.avgUtilization != b.avgUtilization)
        return ::testing::AssertionFailure() << "avgUtilization differs";
    if (a.clientScomaPeakPerNode != b.clientScomaPeakPerNode)
        return ::testing::AssertionFailure()
               << "clientScomaPeakPerNode differs";
    return ::testing::AssertionSuccess();
}

TEST(TaskPool, RunsAllTasks)
{
    TaskPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(TaskPool, NestedSubmissionsCompleteBeforeWaitReturns)
{
    TaskPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&pool, &count] {
            ++count;
            for (int j = 0; j < 5; ++j)
                pool.submit([&count] { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 10 + 10 * 5);
}

TEST(TaskPool, WaitIsReusable)
{
    TaskPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(Jobs, EnvParsing)
{
    ASSERT_EQ(setenv("PRISM_JOBS", "3", 1), 0);
    EXPECT_EQ(defaultJobs(), 3u);
    ASSERT_EQ(unsetenv("PRISM_JOBS"), 0);
    EXPECT_GE(defaultJobs(), 1u);
}

/**
 * The determinism contract: one-app sweeps on one worker and a
 * two-app sweep on four workers must agree bit-for-bit on every
 * metric, for every (app, policy) cell including the calibrated-cap
 * ones.
 */
TEST(ParallelSweep, BitIdenticalToSequentialSweep)
{
    const MachineConfig base = smallCfg();
    const auto policies = paperPolicies();

    const std::vector<AppSpec> apps = tinyApps({"FFT", "Radix"});
    ASSERT_EQ(apps.size(), 2u);

    std::vector<ExperimentResult> sequential;
    for (const auto &app : apps) {
        auto rs = runSweepsParallel(
            RunSpec{.machine = base, .policies = policies, .jobs = 1},
            {app});
        sequential.insert(sequential.end(), rs.begin(), rs.end());
    }

    const auto parallel = runSweepsParallel(
        RunSpec{.machine = base, .policies = policies, .jobs = 4},
        apps);

    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].app, sequential[i].app) << "slot " << i;
        EXPECT_EQ(parallel[i].policy, sequential[i].policy)
            << "slot " << i;
        EXPECT_TRUE(metricsIdentical(parallel[i].metrics,
                                     sequential[i].metrics))
            << "app " << parallel[i].app << " slot " << i;
    }
}

/** Worker count must not change results either. */
TEST(ParallelSweep, WorkerCountInvariant)
{
    const MachineConfig base = smallCfg();
    const std::vector<PolicyKind> policies = {
        PolicyKind::Scoma, PolicyKind::Scoma70, PolicyKind::DynLru};

    const std::vector<AppSpec> apps = tinyApps({"LU"});
    ASSERT_EQ(apps.size(), 1u);

    const auto one = runSweepsParallel(
        RunSpec{.machine = base, .policies = policies, .jobs = 1},
        apps);
    const auto eight = runSweepsParallel(
        RunSpec{.machine = base, .policies = policies, .jobs = 8},
        apps);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_TRUE(metricsIdentical(one[i].metrics, eight[i].metrics));
}

/**
 * A grid over two machine shapes: labeled cells in apps x variants x
 * policies order, each variant's cells equal to a one-variant sweep
 * on that machine (so each variant calibrates its own caps), at any
 * worker count.
 */
TEST(ParallelSweep, VariantGridMatchesOneVariantSweeps)
{
    const std::vector<PolicyKind> policies = {
        PolicyKind::Scoma, PolicyKind::LaNuma, PolicyKind::Scoma70,
        PolicyKind::DynLru};
    MachineConfig small = smallCfg();
    small.numNodes = 2;
    const std::vector<MachineVariant> variants = {{"4x2", smallCfg()},
                                                  {"2x2", small}};
    const std::vector<AppSpec> apps = tinyApps({"FFT", "Radix"});
    ASSERT_EQ(apps.size(), 2u);

    const auto grid = runSweepsParallel(
        RunSpec{.policies = policies, .jobs = 4}, apps, variants);
    const auto serial = runSweepsParallel(
        RunSpec{.policies = policies, .jobs = 1}, apps, variants);
    ASSERT_EQ(grid.size(), apps.size() * variants.size() * policies.size());
    ASSERT_EQ(serial.size(), grid.size());

    std::size_t i = 0;
    for (const AppSpec &app : apps) {
        for (const MachineVariant &v : variants) {
            const auto one = runSweepsParallel(
                RunSpec{.machine = v.machine, .policies = policies},
                {app});
            ASSERT_EQ(one.size(), policies.size());
            for (std::size_t p = 0; p < policies.size(); ++p, ++i) {
                EXPECT_EQ(grid[i].app, app.name) << "slot " << i;
                EXPECT_EQ(grid[i].variant, v.label) << "slot " << i;
                EXPECT_EQ(grid[i].policy, policies[p]) << "slot " << i;
                EXPECT_TRUE(one[p].variant.empty());
                EXPECT_TRUE(metricsIdentical(grid[i].metrics,
                                             one[p].metrics))
                    << app.name << " " << v.label << " "
                    << policyName(policies[p]);
                EXPECT_TRUE(metricsIdentical(grid[i].metrics,
                                             serial[i].metrics))
                    << "jobs 4 vs 1, slot " << i;
            }
        }
    }
}

} // namespace
} // namespace prism
