/**
 * @file
 * Unit tests for the lock and barrier cost models, driven through
 * their one apply form: each op is applied as it is issued and grants
 * resume the waiter in one event queue, as Machine::issueSync does on
 * one shard.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace prism {
namespace {

/** The one-shard grant: resume the waiter in @p eq at the grant tick. */
struct Grant {
    EventQueue &eq;

    void
    operator()(const SyncWaiter &w, Tick at) const
    {
        eq.resumeAt(at, w.h);
    }
};

/**
 * Issues one op from a coroutine: @p apply runs with the suspended
 * continuation and says whether the issuer waits for a grant.
 */
template <typename Apply>
struct Issue {
    Apply apply;

    bool await_ready() const { return false; }

    bool
    await_suspend(std::coroutine_handle<> h)
    {
        return apply(SyncWaiter{h});
    }

    void await_resume() const {}
};

template <typename Apply>
Issue(Apply) -> Issue<Apply>;

auto
acquire(LockManager &lm, std::uint64_t id, EventQueue &eq)
{
    return Issue{[&lm, id, &eq](const SyncWaiter &w) {
        lm.acquire(id, w, eq.now(), Grant{eq});
        return true;
    }};
}

void
release(LockManager &lm, std::uint64_t id, EventQueue &eq)
{
    lm.release(id, eq.now(), Grant{eq});
}

auto
arrive(BarrierManager &bm, std::uint64_t id, EventQueue &eq)
{
    return Issue{[&bm, id, &eq](const SyncWaiter &w) {
        return bm.arrive(id, w, eq.now(), Grant{eq});
    }};
}

TEST(LockManager, UncontendedAcquireChargesRoundTrip)
{
    EventQueue eq;
    LockManager lm(300, 140);
    Tick acquired = 0;
    auto w = [&]() -> FireAndForget {
        co_await acquire(lm, 7, eq);
        acquired = eq.now();
        release(lm, 7, eq);
    };
    w();
    eq.runAll();
    EXPECT_EQ(acquired, 300u);
    EXPECT_EQ(lm.acquires(), 1u);
    EXPECT_EQ(lm.contended(), 0u);
}

TEST(LockManager, ContendedFifoHandoff)
{
    EventQueue eq;
    LockManager lm(300, 140);
    std::vector<std::pair<int, Tick>> log;
    auto w = [&](int id, Cycles hold) -> FireAndForget {
        co_await acquire(lm, 1, eq);
        co_await DelayAwaiter(eq, hold);
        log.emplace_back(id, eq.now());
        release(lm, 1, eq);
    };
    w(1, 50);
    w(2, 50);
    w(3, 50);
    eq.runAll();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].first, 1);
    EXPECT_EQ(log[0].second, 350u); // 300 acquire + 50 hold
    EXPECT_EQ(log[1].first, 2);
    EXPECT_EQ(log[1].second, 540u); // +140 handoff + 50 hold
    EXPECT_EQ(log[2].first, 3);
    EXPECT_EQ(log[2].second, 730u);
    EXPECT_EQ(lm.contended(), 2u);
}

TEST(LockManager, IndependentLockIds)
{
    EventQueue eq;
    LockManager lm(10, 5);
    int running = 0, max_running = 0;
    auto w = [&](std::uint64_t id) -> FireAndForget {
        co_await acquire(lm, id, eq);
        ++running;
        max_running = std::max(max_running, running);
        co_await DelayAwaiter(eq, 100);
        --running;
        release(lm, id, eq);
    };
    w(1);
    w(2);
    w(3);
    eq.runAll();
    EXPECT_EQ(max_running, 3); // no false contention
}

TEST(BarrierManager, ReleasesAllTogether)
{
    EventQueue eq;
    BarrierManager bm(3, 400);
    std::vector<Tick> out;
    auto w = [&](Cycles arrive_at) -> FireAndForget {
        co_await DelayAwaiter(eq, arrive_at);
        co_await arrive(bm, 0, eq);
        out.push_back(eq.now());
    };
    w(10);
    w(200);
    w(35);
    eq.runAll();
    ASSERT_EQ(out.size(), 3u);
    // Everyone leaves at the last arrival plus the barrier cost.
    for (Tick t : out)
        EXPECT_EQ(t, 600u);
    EXPECT_EQ(bm.episodes(), 1u);
}

TEST(BarrierManager, EpisodesAutoAdvanceOnSameId)
{
    EventQueue eq;
    BarrierManager bm(2, 10);
    int rounds_done = 0;
    auto w = [&]() -> FireAndForget {
        for (int r = 0; r < 5; ++r)
            co_await arrive(bm, 0, eq);
        ++rounds_done;
    };
    w();
    w();
    eq.runAll();
    EXPECT_EQ(rounds_done, 2);
    EXPECT_EQ(bm.episodes(), 5u);
}

TEST(BarrierManager, SingleParticipantPassesThrough)
{
    EventQueue eq;
    BarrierManager bm(1, 10);
    bool done = false;
    auto w = [&]() -> FireAndForget {
        co_await arrive(bm, 3, eq);
        done = true;
    };
    w();
    // No suspension: the arrival completed inside the call, and it
    // cost nothing and scheduled no event.
    EXPECT_TRUE(done);
    EXPECT_EQ(eq.pending(), 0u);
    eq.runAll();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
    EXPECT_EQ(bm.episodes(), 0u);
}

} // namespace
} // namespace prism
