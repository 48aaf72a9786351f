/**
 * @file
 * Death tests: internal-invariant violations must panic loudly
 * (gem5-style panic = abort), and user errors must be caught.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "coherence/directory.hh"
#include "coherence/msg.hh"
#include "coherence/pit.hh"
#include "core/machine.hh"
#include "core/sync.hh"
#include "os/frame_pool.hh"
#include "policy/page_policy.hh"
#include "sim/coro_sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

TEST(Death, SchedulingInThePastPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(10, [] {});
            eq.runOne();
            eq.schedule(5, [] {});
        },
        "scheduled in the past");
}

TEST(Death, ReleasingUnheldLockPanics)
{
    EXPECT_DEATH(
        {
            LockManager lm(1, 1);
            lm.release(42, 0, [](const SyncWaiter &, Tick) {});
        },
        "unheld lock");
}

TEST(Death, GlobalArenaExhaustionPanics)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 2;
            cfg.procsPerNode = 1;
            Machine m(cfg);
            GlobalArena arena(m, 1, 2 * kPageBytes);
            arena.alloc(kPageBytes);
            arena.alloc(kPageBytes);
            arena.alloc(1); // over the segment size
        },
        "arena exhausted");
}

TEST(Death, EmptyCoTaskStartPanics)
{
    EXPECT_DEATH(
        {
            CoTask t;
            t.start();
        },
        "empty CoTask");
}

TEST(Death, FramePoolDoubleReleasePanics)
{
    EXPECT_DEATH(
        {
            FramePool p(0);
            p.release(0); // nothing was allocated
        },
        "empty pool");
}

TEST(Death, PitDoubleInstallPanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            Pit pit(pages, 1, 1);
            pit.installLocal(3, 64);
            pit.installLocal(3, 64); // frame 3 is already mapped
        },
        "PIT entry already present");
}

TEST(Death, PitAbsentRemovePanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            Pit pit(pages, 1, 1);
            pit.remove(7); // never installed
        },
        "removing absent PIT entry");
}

TEST(Death, PitHandleUsedAfterRemovePanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            Pit pit(pages, 1, 1);
            Pit::Ref e = pit.install(5, 0x100, 0, 0, 5, PageMode::Scoma,
                                     64, FgTag::Invalid);
            pit.remove(5);
            (void)e->gpage; // the slot was reset under the handle
        },
        "stale PIT entry handle");
}

TEST(Death, PitHandleUsedAfterFrameReusePanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            Pit pit(pages, 1, 1);
            Pit::Ref e = pit.install(5, 0x100, 0, 0, 5, PageMode::Scoma,
                                     64, FgTag::Invalid);
            pit.remove(5);
            pit.install(5, 0x200, 0, 0, 5, PageMode::Scoma, 64,
                        FgTag::Invalid); // frame 5 now maps another page
            e->tags.set(0, FgTag::Exclusive);
        },
        "stale PIT entry handle");
}

FireAndForget
lockAndWait(CoMutex &m, CoEvent &done)
{
    co_await m.acquire();
    co_await done.wait();
    m.release();
}

TEST(Death, PageRecordReleasedWithLineLockWaiterPanics)
{
    // A home handler queued on a line lock pins the page's record: it
    // must not be freed under the waiter (which would resume into a
    // recycled slot).
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            PageRecords::Ref rec = pages.get(0x42);
            CoMutex &lk = pages.lineLocks(rec)[3];
            CoEvent done(eq);
            lockAndWait(lk, done); // holds the lock
            lockAndWait(lk, done); // queues behind it
            pages.release(rec);
        },
        "released while one of its line locks is held or queued");
}

TEST(Death, PageRecordHandleUsedAfterReleasePanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            PageRecords::Ref rec = pages.get(0x42);
            pages.settle(rec); // nothing live: freed
            pages.get(0x43);   // reuses the slot
            (void)rec->registry;
        },
        "stale page record handle");
}

TEST(Death, DirLineUsedAfterSlotReusePanics)
{
    // The home generation is never reset: a view whose page left, and
    // whose record slot now holds another homed page, still panics.
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            PageRecords::Ref rec = pages.get(0x42);
            pages.setHome(rec, pages.newHome());
            Directory::LineRef d(*rec, 3);
            pages.setHome(rec, nullptr);
            pages.settle(rec); // nothing live: freed
            pages.setHome(pages.get(0x43), pages.newHome()); // same slot
            (void)d.state();
        },
        "directory LineRef outlived its page's home block");
}

TEST(Death, DirLineOfUnhomedPagePanics)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            PageRecords pages(eq, 64, 8);
            PageRecords::Ref rec = pages.get(0x42);
            Directory::LineRef d(*rec, 0);
        },
        "directory line of gpage 0x42, which is not homed here");
}

TEST(Death, RegistryPointingAtSelfPanics)
{
    // A static home whose registry names itself as dynamic home while
    // its directory lacks the page would forward the request back to
    // itself forever; the controller must panic instead.
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 1;
            cfg.procsPerNode = 1;
            Machine m(cfg);
            auto &ctrl = m.node(0).controller();
            ctrl.installHomeMapping(1, 0); // registry_[0] = self
            ctrl.pages().setHome(ctrl.pages().find(0), nullptr);
            Msg req;
            req.type = MsgType::ReqS;
            req.src = 0;
            req.dst = 0;
            req.requester = 0;
            req.gpage = 0;
            req.lineIdx = 0;
            ctrl.onMessage(std::move(req));
            m.eventQueue().runAll();
        },
        "registry points at");
}

TEST(Death, TooManyNodesIsFatal)
{
    // The fatal must name the limit and where it lives so the user
    // can find the knob instead of guessing.
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = kMaxNodes + 1;
            Machine m(cfg);
        },
        "kMaxNodes");
}

TEST(Death, ZeroProcsPerNodeIsFatal)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.procsPerNode = 0;
            Machine m(cfg);
        },
        "procsPerNode");
}

TEST(Death, TooManyProcsIsFatal)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            cfg.numNodes = 1024;
            cfg.procsPerNode = 512; // 512K procs > kMaxProcs
            Machine m(cfg);
        },
        "processor");
}

/** A default machine with @p edit applied must die naming @p field. */
template <typename Edit>
void
expectConfigFatal(Edit edit, const char *field)
{
    EXPECT_DEATH(
        {
            MachineConfig cfg;
            edit(cfg);
            Machine m(cfg);
        },
        field);
}

TEST(Death, PolicyWithoutARowIsFatal)
{
    // Each kernel reads its policy's row of kPolicyRules, so a value
    // past the table must fail before any node is built.
    expectConfigFatal(
        [](MachineConfig &c) {
            c.policy = static_cast<PolicyKind>(std::size(kPolicyRules));
        },
        "policy=7 has no row in kPolicyRules");
}

TEST(Death, LineLargerThanPageIsFatal)
{
    // A page must hold at least one line.
    expectConfigFatal([](MachineConfig &c) { c.lineBytes = 8192; },
                      "lineBytes=8192 exceeds the 4096-byte page");
}

TEST(Death, CacheAssocOutOfRangeIsFatal)
{
    // Zero ways would divide by zero; 256 overflow the recency bytes.
    expectConfigFatal([](MachineConfig &c) { c.l1Assoc = 0; },
                      "l1Assoc must be in 1..255");
    expectConfigFatal([](MachineConfig &c) { c.l2Assoc = 256; },
                      "l2Assoc must be in 1..255");
}

TEST(Death, CacheSetCountNotPowerOfTwoIsFatal)
{
    expectConfigFatal([](MachineConfig &c) { c.l1Bytes = 3000; },
                      "l1Bytes=3000 gives 46 sets");
    // 64 bytes cannot hold one set of four 64-byte ways.
    expectConfigFatal([](MachineConfig &c) { c.l2Bytes = 64; },
                      "l2Bytes=64 gives 0 sets");
}

TEST(Death, TlbWithoutEntriesIsFatal)
{
    expectConfigFatal([](MachineConfig &c) { c.tlbEntries = 0; },
                      "tlbEntries must be >= 1");
}

TEST(Death, ZeroRetryDelayIsFatal)
{
    // Every retry loop awaits delay(retryDelay); a zero delay never
    // suspends, so two writers of one line would spin in one event.
    expectConfigFatal([](MachineConfig &c) { c.retryDelay = 0; },
                      "retryDelay must be >= 1");
}

TEST(Death, CapVectorNotSizedToNodesIsFatal)
{
    // Each node reads its own entry: a short vector would be read past
    // its end, and a long one means caps sized for another machine.
    expectConfigFatal(
        [](MachineConfig &c) { c.clientFrameCapPerNode = {4, 4}; },
        "clientFrameCapPerNode has 2 entries but numNodes=8");
    expectConfigFatal(
        [](MachineConfig &c) {
            c.clientFrameCapPerNode.assign(16, 4);
        },
        "clientFrameCapPerNode has 16 entries but numNodes=8");
}

} // namespace
} // namespace prism
