/**
 * @file
 * Verifies the event-queue hot path performs zero heap allocations:
 * the InlineCallback rewrite exists precisely so that scheduling and
 * dispatching events never calls operator new, for every capture size
 * used in src/ (the largest is Machine::route's 16-byte delivery
 * closure; tests and benches go up to 40 bytes).  The same holds for
 * CoMutex, whose wait queue is threaded through the waiters' own
 * awaiters: a page record keeps one mutex per line of every home page.
 * Coroutine frames come from per-thread free lists (sim/task.hh), so a
 * warm machine's miss path -- remote reads, upgrades, invalidations
 * and 3-party fetches, each a chain of coroutines and protocol
 * messages -- allocates nothing at all, and a PIT entry reinstalled
 * on a paged-out frame reuses its slot's per-line arrays.
 *
 * Global operator new/delete are replaced with counting versions, and
 * the hot loops are run after the queue's up-front reserve so vector
 * growth cannot contribute.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "coherence/pit.hh"
#include "core/machine.hh"
#include "sim/coro_sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "workload/workload.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

} // namespace

void *
operator new(std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace prism {
namespace {

static_assert(EventQueue::Callback::kCapacity >= 40,
              "the capture sizes exercised below must stay inline");

TEST(EventQueueAlloc, ScheduleDispatchAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t sink = 0;

    // Capture shapes used across src/: a coroutine handle (8B), the
    // route() delivery closure (16B), and padded variants up to 40B.
    struct Cap16 {
        std::uint64_t *p;
        std::uint64_t a;
    };
    struct Cap24 {
        std::uint64_t *p;
        std::uint64_t a, b;
    };
    struct Cap40 {
        std::uint64_t *p;
        std::uint64_t a, b, c, d;
    };
    Cap16 c16{&sink, 1};
    Cap24 c24{&sink, 1, 2};
    Cap40 c40{&sink, 1, 2, 3, 4};

    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i) {
        eq.scheduleIn(1, [&sink] { ++sink; });
        eq.scheduleIn(2, [c16] { *c16.p += c16.a; });
        eq.scheduleIn(3, [c24] { *c24.p += c24.a + c24.b; });
        eq.scheduleIn(4, [c40] { *c40.p += c40.a + c40.d; });
        while (eq.runOne()) {
        }
    }
    EXPECT_EQ(g_news.load(), before)
        << "event scheduling/dispatch must not allocate";
    EXPECT_GT(sink, 0u);
}

TEST(EventQueueAlloc, StandingPopulationWithinReserveAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    // Warm the arena/heap up to a standing population once...
    for (int i = 0; i < 512; ++i)
        eq.scheduleIn(1 + static_cast<Cycles>(i % 97),
                      [&sink] { ++sink; });
    const std::uint64_t before = g_news.load();
    // ...then steady-state churn with the population held.
    for (int i = 0; i < 20000; ++i) {
        eq.scheduleIn(1 + static_cast<Cycles>(i % 97),
                      [&sink] { ++sink; });
        eq.runOne();
    }
    EXPECT_EQ(g_news.load(), before);
    eq.runAll();
    EXPECT_EQ(eq.pending(), 0u);
}

FireAndForget
lockRounds(EventQueue &eq, CoMutex &m, int rounds, Cycles hold,
           std::uint64_t &sink)
{
    co_await DelayAwaiter(eq, 1); // park until the measurement starts
    for (int i = 0; i < rounds; ++i) {
        co_await m.acquire();
        if (hold)
            co_await DelayAwaiter(eq, hold);
        ++sink;
        m.release();
    }
}

TEST(EventQueueAlloc, CoMutexAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t before = g_news.load();
    CoMutex m(eq);
    EXPECT_EQ(g_news.load(), before) << "constructing a CoMutex allocated";

    // Coroutine frames are allocated when each coroutine is created;
    // everything after that (acquire, queueing, handoff, release)
    // must not touch the heap.
    std::uint64_t sink = 0;
    lockRounds(eq, m, 1000, 0, sink); // uncontended: never waits
    before = g_news.load();
    eq.runAll();
    EXPECT_EQ(g_news.load(), before) << "uncontended acquire/release";
    EXPECT_EQ(sink, 1000u);

    constexpr int kContenders = 8;
    for (int i = 0; i < kContenders; ++i)
        lockRounds(eq, m, 200, 3, sink); // holds across a suspension
    before = g_news.load();
    eq.runAll();
    EXPECT_EQ(g_news.load(), before) << "contended acquire/release";
    EXPECT_EQ(sink, 1000u + kContenders * 200u);
    EXPECT_FALSE(m.held());
}

CoTask
idleTask(std::uint64_t &sink)
{
    ++sink;
    co_return;
}

FireAndForget
parkedHandler(EventQueue &eq, std::uint64_t &sink)
{
    co_await DelayAwaiter(eq, 1);
    ++sink;
}

TEST(EventQueueAlloc, CoroutineFramesComeBackFromThePool)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    // The first frame of each kind may allocate; destroying it parks
    // the block on this thread's free list for the next one.
    {
        CoTask t = idleTask(sink);
        t.start();
    }
    parkedHandler(eq, sink);
    eq.runAll();
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 100; ++i) {
        CoTask t = idleTask(sink);
        t.start();
        EXPECT_TRUE(t.done());
    }
    for (int i = 0; i < 100; ++i) {
        parkedHandler(eq, sink);
        eq.runAll();
    }
    EXPECT_EQ(g_news.load(), before)
        << "CoTask and FireAndForget frames must be reused";
    EXPECT_EQ(sink, 202u);
}

TEST(EventQueueAlloc, PitReinstallAllocatesNothing)
{
    // A frame paged out and in again: its PIT slot keeps the per-line
    // arrays (accessed lines, S-COMA tags) across remove and install.
    constexpr std::uint32_t kLines = 64;
    EventQueue eq;
    PageRecords pages{eq, kLines, 8};
    Pit pit{pages, 2, 18};
    Pit::Ref e = pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                             FgTag::Invalid);
    e->accessed.set(3);
    e->tags.set(3, FgTag::Exclusive);
    pit.remove(5);
    const std::uint64_t before = g_news.load();
    e = pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                    FgTag::Invalid);
    EXPECT_EQ(g_news.load() - before, 0u)
        << "reinstalling a PIT entry must reuse its slot's arrays";
    EXPECT_EQ(e->accessed.popcount(), 0u);
    EXPECT_EQ(e->tags.lines(), kLines);
    EXPECT_EQ(e->tags.count(FgTag::Invalid), kLines);
}

/**
 * A 4x2 machine running a fixed per-round script on kLines lines of a
 * page homed at node 0, one step per kGap-cycle slot so every step's
 * transactions drain before the next:
 *   0. proc 0 (home node) writes  -- invalidates last round's copies
 *   1. proc 2 (node 1) reads      -- 2-party remote reads
 *   2. proc 4 (node 2) reads      -- 2-party remote reads
 *   3. proc 2 (node 1) writes     -- upgrades, invalidating node 2
 *   4. proc 6 (node 3) reads      -- 3-party fetches from node 1
 * The first kWarm rounds fault the page in and warm every pool; the
 * next kMeasured rounds repeat them exactly and must not allocate.
 */
struct MissScript {
    static constexpr int kLines = 4;
    static constexpr int kSteps = 5;
    static constexpr int kWarm = 2;
    static constexpr int kMeasured = 3;
    static constexpr Cycles kGap = 50000;
    static constexpr ProcId kActor[kSteps] = {0, 2, 4, 2, 6};
    static constexpr bool kWrite[kSteps] = {true, false, false, true,
                                            false};

    std::uint64_t newsBefore = 0;
    std::uint64_t newsAfter = 0;

    static CoTask
    program(Proc &p, MissScript &s)
    {
        for (int r = 0; r <= kWarm + kMeasured; ++r) {
            for (int step = 0; step < kSteps; ++step) {
                const Tick slot =
                    static_cast<Tick>(r * kSteps + step + 1) * kGap;
                if (p.localNow() < slot)
                    p.compute(slot - p.localNow());
                co_await p.fence();
                if (p.id() == 0 && step == 0 && r == kWarm)
                    s.newsBefore = g_news.load();
                if (p.id() == 0 && step == 0 && r == kWarm + kMeasured) {
                    s.newsAfter = g_news.load();
                    co_return;
                }
                if (r == kWarm + kMeasured || p.id() != kActor[step])
                    continue;
                for (int l = 0; l < kLines; ++l) {
                    const VAddr va = makeVAddr(
                        kSharedVsid, 0,
                        static_cast<std::uint64_t>(l) * 64);
                    if (kWrite[step])
                        co_await p.write(va);
                    else
                        co_await p.read(va);
                }
            }
        }
    }
};

TEST(EventQueueAlloc, WarmMissPathAllocatesNothing)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    Machine m(cfg);
    const std::uint64_t gsid = m.shmget(0x7E57, 4 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    ASSERT_EQ(m.staticHomeOf(gsid << kPageNumBits), 0u);

    auto totals = [&m] {
        std::uint64_t t[4] = {};
        for (NodeId n = 0; n < m.numNodes(); ++n) {
            const ControllerStats &st = m.node(n).controller().stats();
            t[0] += st.remoteMisses;
            t[1] += st.upgrades;
            t[2] += st.invalsSent;
            t[3] += st.fetchesServed;
        }
        return std::vector<std::uint64_t>(t, t + 4);
    };
    MissScript s;
    m.run([&s](Proc &p) { return MissScript::program(p, s); });
    const std::vector<std::uint64_t> t = totals();

    // Each round: 3 remote reads per line, 1 upgrade, invalidations at
    // steps 0 and 3, and one 3-party fetch per line.
    const int rounds = MissScript::kWarm + MissScript::kMeasured;
    EXPECT_GE(t[0], 3u * MissScript::kLines * rounds) << "remote misses";
    EXPECT_GE(t[1], 1u * MissScript::kLines * rounds) << "upgrades";
    EXPECT_GE(t[2], 2u * MissScript::kLines * rounds) << "invalidations";
    EXPECT_GE(t[3], 1u * MissScript::kLines * rounds) << "3-party fetches";
    ASSERT_GT(s.newsAfter, 0u) << "the script did not reach its end";
    EXPECT_EQ(s.newsAfter - s.newsBefore, 0u)
        << "a warm machine's miss path called operator new";
}

} // namespace
} // namespace prism
