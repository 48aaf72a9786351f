/**
 * @file
 * Unit tests for the deterministic event queue and FCFS resources.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/task.hh"

namespace prism {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleAtSameTick)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(7, [&] {
        eq.scheduleIn(0, [&] { ++fired; });
    });
    eq.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(21, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

/**
 * Property/stress test for the hand-rolled heap: N interleaved
 * schedule/scheduleIn calls with heavy same-tick ties, plus callbacks
 * that schedule at the current tick.  The fired order must equal a
 * stable sort of (tick, scheduling order) — FIFO within a tick — and
 * the executed/pending accounting must stay exact.
 */
TEST(EventQueue, StressInterleavedTiesMatchReferenceOrder)
{
    constexpr int kSeeded = 3000;
    Rng rng(0xfeedULL);
    EventQueue eq;

    // Reference model: execution order must equal the global schedule
    // ordered by (tick, scheduling order).  `expected` records every
    // schedule call in call order — including callbacks scheduled
    // dynamically from inside other callbacks — so a stable sort by
    // tick reproduces the queue's (when, seq) tie-break exactly.
    std::vector<std::pair<Tick, int>> expected; // (when, id)
    std::vector<int> fired;
    int next_id = 0;

    for (int i = 0; i < kSeeded; ++i) {
        // Few distinct ticks -> many same-tick ties.
        const Tick when = eq.now() + rng.below(32);
        const int id = next_id++;
        const bool spawn = (id % 5 == 0);
        expected.emplace_back(when, id);
        auto cb = [&eq, &expected, &fired, &next_id, id, spawn] {
            fired.push_back(id);
            if (spawn) {
                // Child at the *current* tick: must run after every
                // event already queued for this tick.
                const int child = next_id++;
                expected.emplace_back(eq.now(), child);
                eq.scheduleIn(0,
                              [&fired, child] { fired.push_back(child); });
            }
        };
        if (id % 2 == 0)
            eq.schedule(when, cb);
        else
            eq.scheduleIn(when - eq.now(), cb);
        // Interleave scheduling with partial dispatch.
        if (id % 11 == 0)
            eq.runOne();
    }

    // Accounting mid-run: everything recorded is either fired or
    // still pending.
    EXPECT_EQ(eq.pending() + fired.size(), expected.size());
    EXPECT_EQ(eq.eventsExecuted(), fired.size());

    eq.runAll();

    EXPECT_EQ(eq.pending(), 0u);
    ASSERT_EQ(fired.size(), expected.size());
    EXPECT_EQ(eq.eventsExecuted(), fired.size());

    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].second) << "position " << i;
}

/** Parks the caller and wakes it at @p when through a wake-up key. */
struct WakeAt {
    EventQueue &eq;
    Tick when;
    bool front;

    bool await_ready() const { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (front)
            eq.resumeFront(when, h);
        else
            eq.resumeAt(when, h);
    }

    void await_resume() const {}
};

FireAndForget
wakeAndRecord(EventQueue &eq, Tick when, bool front, int id,
              std::vector<int> &fired)
{
    co_await WakeAt{eq, when, front};
    fired.push_back(id);
}

/**
 * Wake-up keys and callbacks draw from one sequence: interleaved at
 * random ticks with partial dispatch, they fire in (tick, scheduling
 * order) exactly as callbacks alone do.
 */
TEST(EventQueue, WakeUpsAndCallbacksShareOneOrder)
{
    Rng rng(0x5eedULL);
    EventQueue eq;
    std::vector<std::pair<Tick, int>> expected; // (when, id)
    std::vector<int> fired;
    for (int id = 0; id < 2000; ++id) {
        const Tick when = eq.now() + rng.below(16);
        expected.emplace_back(when, id);
        if (id % 2)
            wakeAndRecord(eq, when, false, id, fired);
        else
            eq.schedule(when, [&fired, id] { fired.push_back(id); });
        if (id % 7 == 0)
            eq.runOne();
    }
    eq.runAll();
    ASSERT_EQ(fired.size(), expected.size());
    EXPECT_EQ(eq.eventsExecuted(), expected.size());
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].second) << "position " << i;
}

TEST(EventQueue, FrontWakeUpsRunAheadOfTheirTick)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.schedule(5, [&fired] { fired.push_back(0); });
    wakeAndRecord(eq, 5, false, 1, fired);
    wakeAndRecord(eq, 5, true, 2, fired);
    wakeAndRecord(eq, 5, true, 3, fired);
    eq.runAll();
    // Front wake-ups share one count-down sequence: the later one
    // runs first, and both run ahead of the tick's other events.
    EXPECT_EQ(fired, (std::vector<int>{3, 2, 0, 1}));
}

/**
 * Deterministic replay: two queues fed the identical randomized
 * schedule/dispatch interleaving (including same-tick re-scheduling
 * from inside callbacks) must fire ids in the identical order.
 */
TEST(EventQueue, StressReplayIsDeterministic)
{
    auto drive = [](std::vector<int> &order) {
        Rng rng(0xabcdULL);
        EventQueue eq;
        int next_id = 0;
        for (int round = 0; round < 200; ++round) {
            // Burst of schedules at clustered ticks...
            const int burst = 1 + static_cast<int>(rng.below(8));
            for (int b = 0; b < burst; ++b) {
                const Tick d = rng.below(16);
                const int id = next_id++;
                eq.scheduleIn(d, [&order, &eq, id, d] {
                    order.push_back(id);
                    if (d % 3 == 0) {
                        // Re-schedule at the current tick.
                        eq.scheduleIn(0, [&order, id] {
                            order.push_back(-id);
                        });
                    }
                });
            }
            // ...interleaved with partial dispatch.
            for (std::uint64_t k = rng.below(4); k > 0; --k)
                eq.runOne();
        }
        eq.runAll();
        EXPECT_EQ(eq.pending(), 0u);
    };

    std::vector<int> a, b;
    drive(a);
    drive(b);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

/**
 * FIFO-within-tick across slot recycling: after the arena has been
 * through many occupy/release cycles, ties must still fire strictly
 * in scheduling order.
 */
TEST(EventQueue, TiesStayFifoAfterHeavyRecycling)
{
    EventQueue eq;
    // Churn the slot arena and the heap.
    for (int i = 0; i < 5000; ++i) {
        eq.scheduleIn(static_cast<Cycles>(i % 7), [] {});
        eq.runOne();
    }
    std::vector<int> order;
    const Tick t = eq.now() + 10;
    for (int i = 0; i < 100; ++i)
        eq.schedule(t, [&order, i] { order.push_back(i); });
    eq.runAll();
    ASSERT_EQ(order.size(), 100u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(FcfsResource, UncontendedStartsImmediately)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(100, 10), 100u);
    EXPECT_EQ(r.nextFree(), 110u);
}

TEST(FcfsResource, BackToBackQueues)
{
    FcfsResource r;
    EXPECT_EQ(r.acquire(0, 10), 0u);
    EXPECT_EQ(r.acquire(0, 10), 10u);
    EXPECT_EQ(r.acquire(5, 10), 20u);
    EXPECT_EQ(r.busyCycles(), 30u);
    EXPECT_EQ(r.grants(), 3u);
}

TEST(FcfsResource, IdleGapThenService)
{
    FcfsResource r;
    r.acquire(0, 10);
    EXPECT_EQ(r.acquire(50, 5), 50u);
    EXPECT_EQ(r.nextFree(), 55u);
}

} // namespace
} // namespace prism
