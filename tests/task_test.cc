/**
 * @file
 * Unit tests for coroutine tasks and coroutine synchronization.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/coro_sync.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace prism {
namespace {

CoTask
delayTwice(EventQueue &eq, std::vector<Tick> &log)
{
    co_await DelayAwaiter(eq, 10);
    log.push_back(eq.now());
    co_await DelayAwaiter(eq, 5);
    log.push_back(eq.now());
}

TEST(CoTask, DelaysAdvanceSimTime)
{
    EventQueue eq;
    std::vector<Tick> log;
    CoTask t = delayTwice(eq, log);
    bool done = false;
    t.start([&] { done = true; });
    eq.runAll();
    EXPECT_TRUE(done);
    EXPECT_EQ(log, (std::vector<Tick>{10, 15}));
}

CoTask
inner(EventQueue &eq, int &x)
{
    co_await DelayAwaiter(eq, 3);
    x += 1;
}

CoTask
outer(EventQueue &eq, int &x)
{
    co_await inner(eq, x);
    co_await inner(eq, x);
    x += 10;
}

TEST(CoTask, NestedTasksCompose)
{
    EventQueue eq;
    int x = 0;
    CoTask t = outer(eq, x);
    t.start();
    eq.runAll();
    EXPECT_EQ(x, 12);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(CoTask, ZeroDelayCompletesWithoutSuspending)
{
    EventQueue eq;
    int x = 0;
    auto mk = [&]() -> CoTask {
        co_await DelayAwaiter(eq, 0);
        x = 1;
    };
    CoTask t = mk();
    t.start();
    // Zero delay is await_ready: no event needed.
    EXPECT_EQ(x, 1);
    EXPECT_EQ(eq.pending(), 0u);
}

FireAndForget
fireAndForgetBody(EventQueue &eq, int &x)
{
    co_await DelayAwaiter(eq, 4);
    x = 99;
}

TEST(FireAndForgetTask, StartsEagerlyAndSelfDestroys)
{
    EventQueue eq;
    int x = 0;
    fireAndForgetBody(eq, x);
    EXPECT_EQ(x, 0); // suspended on the delay
    eq.runAll();
    EXPECT_EQ(x, 99);
}

TEST(CoMutex, FifoOrdering)
{
    EventQueue eq;
    CoMutex m(eq);
    std::vector<int> order;
    auto worker = [&](int id, Cycles hold) -> FireAndForget {
        co_await m.acquire();
        co_await DelayAwaiter(eq, hold);
        order.push_back(id);
        m.release();
    };
    worker(1, 10);
    worker(2, 10);
    worker(3, 10);
    EXPECT_TRUE(m.held());
    EXPECT_EQ(m.queued(), 2u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(m.held());
    EXPECT_EQ(m.queued(), 0u);

    // Many waiters: the queue stays FIFO and queued() counts each
    // handoff down.
    order.clear();
    constexpr int kMany = 100;
    std::vector<int> want;
    for (int id = 0; id < kMany; ++id) {
        worker(id, 1 + static_cast<Cycles>(id % 3));
        want.push_back(id);
        EXPECT_EQ(m.queued(), static_cast<std::size_t>(id));
    }
    std::size_t last = m.queued();
    while (eq.runOne()) {
        EXPECT_LE(m.queued(), last);
        last = m.queued();
    }
    EXPECT_EQ(order, want);
    EXPECT_FALSE(m.held());
    EXPECT_EQ(m.queued(), 0u);

    // Reuse after the queue drained: the mutex behaves as new.
    order.clear();
    worker(7, 5);
    EXPECT_TRUE(m.held());
    EXPECT_EQ(m.queued(), 0u);
    worker(8, 5);
    EXPECT_EQ(m.queued(), 1u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{7, 8}));
    EXPECT_FALSE(m.held());
}

TEST(CoEvent, SignalBeforeWaitIsImmediate)
{
    EventQueue eq;
    CoEvent ev(eq);
    ev.signal();
    int x = 0;
    auto w = [&]() -> FireAndForget {
        co_await ev.wait();
        x = 1;
    };
    w();
    EXPECT_EQ(x, 1);
}

TEST(CoEvent, SignalAfterWaitResumes)
{
    EventQueue eq;
    CoEvent ev(eq);
    int x = 0;
    auto w = [&]() -> FireAndForget {
        co_await ev.wait();
        x = 1;
    };
    w();
    EXPECT_EQ(x, 0);
    ev.signal();
    eq.runAll();
    EXPECT_EQ(x, 1);
}

TEST(CoLatch, WaitsForExpectedArrivals)
{
    EventQueue eq;
    CoLatch l(eq);
    int x = 0;
    auto w = [&]() -> FireAndForget {
        co_await l.wait();
        x = 1;
    };
    w();
    l.expect(2);
    l.arm();
    l.arrive();
    eq.runAll();
    EXPECT_EQ(x, 0);
    l.arrive();
    eq.runAll();
    EXPECT_EQ(x, 1);
}

TEST(CoLatch, EarlyArrivalsBeforeArmDoNotRelease)
{
    EventQueue eq;
    CoLatch l(eq);
    int x = 0;
    auto w = [&]() -> FireAndForget {
        co_await l.wait();
        x = 1;
    };
    w();
    // Acks may arrive before the reply announcing the count.
    l.arrive();
    l.arrive();
    eq.runAll();
    EXPECT_EQ(x, 0);
    l.expect(2);
    l.arm();
    eq.runAll();
    EXPECT_EQ(x, 1);
}

TEST(CoLatch, ZeroExpectedOpensOnArm)
{
    EventQueue eq;
    CoLatch l(eq);
    l.arm();
    int x = 0;
    auto w = [&]() -> FireAndForget {
        co_await l.wait();
        x = 1;
    };
    w();
    EXPECT_EQ(x, 1);
}

} // namespace
} // namespace prism
