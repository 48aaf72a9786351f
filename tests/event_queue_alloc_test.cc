/**
 * @file
 * Verifies the event-queue hot path performs zero heap allocations:
 * the InlineCallback rewrite exists precisely so that scheduling and
 * dispatching events never calls operator new, for every capture size
 * used in src/ (the largest is Machine::route's 16-byte delivery
 * closure; tests and benches go up to 40 bytes).  The same holds for
 * CoMutex, whose wait queue is threaded through the waiters' own
 * awaiters: a page record keeps one mutex per line of every home page.
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

#include "sim/coro_sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

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

} // namespace
} // namespace prism
