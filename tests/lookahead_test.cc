/**
 * @file
 * A zero window lookahead must not hang the sharded scheduler.
 *
 * conservativeLookahead() (sim/shard.hh) is the smallest of the
 * barrier, lock-acquire and lock-handoff costs and the network's
 * latency plus its smallest NIC occupancy.  Any of these may be
 * configured to 0, and the window [W, W + 0) then holds no event.
 * Machine falls back to one shard for such a config, so a run at
 * jobsIntra = 2 must finish and report exactly what jobsIntra = 1
 * reports.  tests/CMakeLists.txt gives this test a TIMEOUT, so a
 * regression fails instead of hanging.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "core/machine.hh"
#include "workload/radix.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

struct ZeroCase {
    const char *name;
    std::function<void(MachineConfig &)> edit;
};

/** The Radix run's report with the timestamp dropped. */
std::string
runRadix(const ZeroCase &c, std::uint32_t jobs_intra,
         std::uint32_t *shards)
{
    RadixWorkload::Params p;
    p.keys = 1u << 10;
    p.radix = 64;
    p.keyBits = 12;
    p.seed = 3;
    RadixWorkload w(p);

    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.jobsIntra = jobs_intra;
    c.edit(cfg);
    Machine m(cfg);
    *shards = m.numShards();
    runWorkload(m, w);

    std::ostringstream os;
    m.report().writeJson(os);
    std::istringstream is(os.str());
    std::string line, out;
    while (std::getline(is, line)) {
        if (line.find("generatedAt") == std::string::npos)
            out += line + '\n';
    }
    return out;
}

class ZeroLookahead : public ::testing::TestWithParam<ZeroCase>
{
};

TEST_P(ZeroLookahead, FallsBackToOneShard)
{
    std::uint32_t shards1 = 0, shards2 = 0;
    const std::string j1 = runRadix(GetParam(), 1, &shards1);
    const std::string j2 = runRadix(GetParam(), 2, &shards2);
    EXPECT_EQ(shards2, 1u);
    EXPECT_EQ(j1, j2);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ZeroLookahead,
    ::testing::Values(
        ZeroCase{"barrierCycles",
                 [](MachineConfig &c) { c.barrierCycles = 0; }},
        ZeroCase{"lockAcquireCycles",
                 [](MachineConfig &c) { c.lockAcquireCycles = 0; }},
        ZeroCase{"lockHandoffCycles",
                 [](MachineConfig &c) { c.lockHandoffCycles = 0; }},
        ZeroCase{"netLatencyAndCtrlOccupancy",
                 [](MachineConfig &c) {
                     c.netLatency = 0;
                     c.netCtrlOccupancy = 0;
                 }}),
    [](const ::testing::TestParamInfo<ZeroCase> &i) {
        return std::string(i.param.name);
    });

TEST(ZeroLookaheadInform, NamesTheZeroFields)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 1;
    cfg.jobsIntra = 2;
    cfg.barrierCycles = 0;
    cfg.netLatency = 0;
    cfg.netPageOccupancy = 0;
    ::testing::internal::CaptureStderr();
    Machine m(cfg);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("jobsIntra=2 ignored: a zero window lookahead "
                       "(barrierCycles = 0, netLatency = 0, "
                       "netPageOccupancy = 0)"),
              std::string::npos)
        << err;
    EXPECT_EQ(m.numShards(), 1u);
}

} // namespace
} // namespace prism
