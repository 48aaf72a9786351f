/**
 * @file
 * End-to-end determinism of the sharded scheduler: for a shard-safe
 * workload, the run report must be a pure function of (config,
 * workload seed) — independent of the shard count and stable across
 * reruns.  The sequential scheduler (`--jobs-intra 1`) keeps its own
 * pre-sharding serialization (global send-order ingress booking), so
 * it is rerun-deterministic but deliberately NOT byte-compared to the
 * sharded runs; see docs/PERFORMANCE.md "Sharded scheduler" for why.
 * Workload-logical metrics (simulated references) are timing-free and
 * must agree across every shard count including 1.  So must a whole
 * run that books no NIC at all: a program of only synchronization and
 * compute, whose locks, barriers and phase marks take one apply path
 * at every shard count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "obs/report.hh"
#include "workload/radix.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

MachineConfig
smallCfg(std::uint32_t jobs_intra)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.procsPerNode = 2;
    cfg.jobsIntra = jobs_intra;
    return cfg;
}

struct RunOutput {
    RunMetrics metrics;
    std::string json; //!< serialized report, generatedAt stripped
};

/** @p m 's report with the timestamp dropped, for comparing. */
std::string
reportJson(Machine &m)
{
    std::ostringstream os;
    m.report().writeJson(os);
    std::istringstream is(os.str());
    std::string line, json;
    while (std::getline(is, line)) {
        if (line.find("generatedAt") != std::string::npos)
            continue;
        json += line;
        json += '\n';
    }
    return json;
}

/** One Radix run. */
RunOutput
runRadix(std::uint64_t seed, std::uint32_t jobs_intra)
{
    RadixWorkload::Params p;
    p.keys = 1u << 12;
    p.radix = 64;
    p.keyBits = 18;
    p.seed = seed;
    RadixWorkload w(p);

    Machine m(smallCfg(jobs_intra));
    RunOutput out;
    out.metrics = runWorkload(m, w);
    out.json = reportJson(m);
    return out;
}

class ShardDeterminism : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ShardDeterminism, ReportIndependentOfShardCount)
{
    const std::uint64_t seed = GetParam();

    const RunOutput j1 = runRadix(seed, 1);
    const RunOutput j2 = runRadix(seed, 2);
    const RunOutput j4 = runRadix(seed, 4);
    const RunOutput j8 = runRadix(seed, 8);

    // Sharded runs: byte-identical reports for every shard count.
    EXPECT_EQ(j2.json, j4.json) << "jobsIntra 2 vs 4, seed " << seed;
    EXPECT_EQ(j4.json, j8.json) << "jobsIntra 4 vs 8, seed " << seed;

    // Rerun stability: parallel execution must not leak host-thread
    // timing into the simulation.
    const RunOutput j4b = runRadix(seed, 4);
    EXPECT_EQ(j4.json, j4b.json) << "jobsIntra 4 rerun, seed " << seed;

    // Sequential rerun stability (the pre-sharding contract).
    const RunOutput j1b = runRadix(seed, 1);
    EXPECT_EQ(j1.json, j1b.json) << "jobsIntra 1 rerun, seed " << seed;

    // Workload-logical metrics do not depend on message serialization
    // at all, so they bridge the sequential/sharded divide.
    EXPECT_EQ(j1.metrics.references, j2.metrics.references);
    EXPECT_EQ(j1.metrics.references, j4.metrics.references);
    EXPECT_EQ(j1.metrics.references, j8.metrics.references);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDeterminism,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

/**
 * A program of only syncs and compute() for a 4x2 machine: no shared
 * memory, so no message is sent.  With the default costs (lock
 * acquire 300, handoff 140, barrier 400) the cost model predicts:
 *  - proc i computes 100(i+1) and arrives at barrier 0; proc 7 is
 *    last, at 800, so all leave at 1200, and proc 2 (node 1) marks
 *    the phase begin at 1200;
 *  - two rounds of lock 1, each: compute 10i, lock, hold 50, unlock.
 *    Proc 0 takes the free lock at 1200 and holds it from 1500; procs
 *    1..7 ask at 1200+10i and park in id order, and each handoff
 *    costs 140 plus the 50 held, so proc k releases at 1550+190k.
 *    Every proc asks again (at its release plus 10k) before proc 7's
 *    first release at 2880, so round two runs in id order too: proc
 *    0 holds from 2880+140 = 3020 and proc k releases at 3070+190k;
 *  - three episodes of barrier 0, each after compute 25i.  Proc k
 *    first arrives at 3070+215k, so the last arrival is proc 7 at
 *    4575 and all leave at 4975; then 5150 -> 5550 and 5725 -> 6125;
 *  - proc 5 (node 2) marks the phase end at 6125.
 * So execCycles = 6125 - 1200 = 4925, with 16 lock acquires (15 of
 * them contended) and 4 barrier episodes.
 */
CoTask
syncOnlyProgram(Proc &p)
{
    const std::uint64_t id = p.id();
    p.compute(100 * (id + 1));
    co_await p.barrier(0);
    if (id == 2)
        co_await p.beginParallel();
    for (int r = 0; r < 2; ++r) {
        p.compute(10 * id);
        co_await p.lock(1);
        p.compute(50);
        co_await p.unlock(1);
    }
    for (int r = 0; r < 3; ++r) {
        p.compute(25 * id);
        co_await p.barrier(0);
    }
    if (id == 5)
        co_await p.endParallel();
}

/**
 * A second run on one machine starts every program at the machine's
 * clock, whichever shard it is on.  The first run leaves the shard
 * clocks apart (proc i's last event is at 1200 + 37i, so node 0's
 * shard stops at 1237 and node 3's at 1459); the second run's
 * programs all start at 1459, and proc 0 finishes last, at
 * 1459 + 8000 = 9459.
 */
CoTask
rerunProgram(Proc &p, int round)
{
    const std::uint64_t id = p.id();
    if (round == 0) {
        p.compute(100 * (id + 1));
        co_await p.barrier(0);
        p.compute(37 * id);
    } else {
        p.compute(1000 * (8 - id));
    }
    co_await p.fence();
}

TEST(ShardDeterminism, SecondRunStartsAtTheMachineClock)
{
    for (std::uint32_t jobs : {1u, 2u, 4u}) {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.procsPerNode = 2;
        cfg.jobsIntra = jobs;
        Machine m(cfg);
        ASSERT_EQ(m.numShards(), jobs);
        for (int r = 0; r < 2; ++r)
            m.run([r](Proc &p) { return rerunProgram(p, r); });
        EXPECT_EQ(m.parallelEndTick(), 9459u) << "jobsIntra " << jobs;
    }
}

TEST(ShardDeterminism, SyncOnlyProgramMatchesTheCostModelAtEveryShardCount)
{
    std::string one_shard;
    for (std::uint32_t jobs : {1u, 2u, 4u}) {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.procsPerNode = 2;
        cfg.jobsIntra = jobs;
        Machine m(cfg);
        ASSERT_EQ(m.numShards(), jobs);
        m.run(syncOnlyProgram);
        const RunMetrics r = m.metrics();
        EXPECT_EQ(m.parallelBeginTick(), 1200u) << "jobsIntra " << jobs;
        EXPECT_EQ(m.parallelEndTick(), 6125u) << "jobsIntra " << jobs;
        EXPECT_EQ(r.execCycles, 4925u) << "jobsIntra " << jobs;
        EXPECT_EQ(r.totalCycles, 6125u) << "jobsIntra " << jobs;
        EXPECT_EQ(r.networkMessages, 0u) << "jobsIntra " << jobs;
        EXPECT_EQ(m.locks().acquires(), 16u) << "jobsIntra " << jobs;
        EXPECT_EQ(m.locks().contended(), 15u) << "jobsIntra " << jobs;
        EXPECT_EQ(m.barriers().episodes(), 4u) << "jobsIntra " << jobs;
        const std::string json = reportJson(m);
        if (jobs == 1)
            one_shard = json;
        else
            EXPECT_EQ(json, one_shard) << "jobsIntra " << jobs << " vs 1";
    }
}

} // namespace
} // namespace prism
