/**
 * @file
 * The message log (docs/PROTOCOL.md, "Debug tracing"): with
 * PRISM_TRACE_GPAGE and PRISM_TRACE_LI naming one line of a remote
 * page, every client-table cell and every home-table transition on
 * that line is one stderr line naming its view, event and next state.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

/** Processor @p who reads @p va; the others do nothing. */
CoTask
readBy(Proc &p, ProcId who, VAddr va)
{
    if (p.id() == who)
        co_await p.read(va);
}

TEST(MsgLog, NamesTheClientCellAndTheHomeTransition)
{
    // Page 1 of the machine's first shared segment is homed at node 1;
    // processor 0, on node 0, reads its line 0.
    const GPage gp = (GPage{1} << kPageNumBits) | 1;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%llx",
                  static_cast<unsigned long long>(gp));
    setenv("PRISM_TRACE_GPAGE", hex, 1);
    setenv("PRISM_TRACE_LI", "0", 1);
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    Machine m(cfg);
    unsetenv("PRISM_TRACE_GPAGE");
    unsetenv("PRISM_TRACE_LI");
    const std::uint64_t gsid = m.shmget(1, 4 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    ASSERT_EQ((gsid << kPageNumBits) | 1, gp);

    ::testing::internal::CaptureStderr();
    m.run([](Proc &p) {
        return readBy(p, 0, makeVAddr(kSharedVsid, 1, 0));
    });
    const std::string log = ::testing::internal::GetCapturedStderr();

    // The client's miss on its Invalid tag asks for a shared copy...
    EXPECT_NE(log.find("warn: n0 Invalid BusRead -> Transit actions=0x4 "
                       "t="),
              std::string::npos)
        << log;
    // ...and the home recalls its own copy and replies with the data,
    // leaving itself and the reader sharing the line.
    EXPECT_NE(log.find("warn: home1 OwnedHome ReqS from n0 -> "
                       "OwnerAndSender actions=0xa owner=1 sh="),
              std::string::npos)
        << log;
}

} // namespace
} // namespace prism
