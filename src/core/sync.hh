/**
 * @file
 * Synchronization cost models: locks and sense-reversing barriers.
 *
 * SPLASH synchronization runs through shared memory in reality; like
 * other Augmint-class simulators we model lock and barrier episodes as
 * simulator primitives that charge the latency of the equivalent
 * remote round trips, preserving serialization behaviour and cost
 * without simulating test-and-set reference streams (see DESIGN.md).
 *
 * Two entry paths share the same state and statistics:
 *  - the awaitable path (acquire/release/arrive), used by the
 *    sequential scheduler: ops take effect synchronously and resumes
 *    are scheduled on the manager's own event queue;
 *  - the apply path (applyAcquire/applyRelease/applyArrive), used by
 *    the sharded coordinator (sim/shard.hh): shards log SyncOps
 *    during a window and the coordinator applies them here in
 *    deterministic order, scheduling resumes through a grant callback
 *    into each waiter's own shard queue.
 */

#ifndef PRISM_CORE_SYNC_HH
#define PRISM_CORE_SYNC_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace prism {

/**
 * A parked waiter.  The sequential path stores only the handle; the
 * sharded apply path also carries the waiter's shard queue and rank
 * slot so a later grant can resume it deterministically.
 */
struct SyncWaiter {
    std::coroutine_handle<> h;
    EventQueue *q = nullptr;
    SyncActor *actor = nullptr;
};

/** FIFO queued locks, keyed by an application-chosen id. */
class LockManager
{
  public:
    LockManager(EventQueue &eq, Cycles acquire_cost, Cycles handoff_cost)
        : eq_(eq), acquireCost_(acquire_cost), handoffCost_(handoff_cost)
    {
    }

    /** Awaitable acquire of lock @p id (sequential scheduler). */
    auto
    acquire(std::uint64_t id)
    {
        struct Awaiter {
            LockManager &m;
            std::uint64_t id;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                Lock &l = m.locks_[id];
                if (!l.held) {
                    l.held = true;
                    ++m.acquires_;
                    m.eq_.resumeIn(m.acquireCost_, h);
                } else {
                    ++m.contended_;
                    l.waiters.push_back(SyncWaiter{h, nullptr, nullptr});
                }
            }

            void await_resume() const {}
        };
        return Awaiter{*this, id};
    }

    /** Release lock @p id; the next waiter resumes after a handoff. */
    void
    release(std::uint64_t id)
    {
        auto it = locks_.find(id);
        prism_assert(it != locks_.end() && it->second.held,
                     "releasing an unheld lock");
        Lock &l = it->second;
        if (l.waiters.empty()) {
            l.held = false;
            return;
        }
        auto h = l.waiters.front().h;
        l.waiters.pop_front();
        ++acquires_;
        eq_.resumeIn(handoffCost_, h);
    }

    /**
     * Sharded apply path: acquire issued at @p tick by @p w.  When the
     * lock is free the grant fires at tick + acquireCost; otherwise
     * the waiter parks in FIFO order, exactly like the awaitable path.
     * @p grant is `void(const SyncWaiter &, Tick resume_at)`.
     */
    template <typename GrantFn>
    void
    applyAcquire(std::uint64_t id, const SyncWaiter &w, Tick tick,
                 GrantFn &&grant)
    {
        Lock &l = locks_[id];
        if (!l.held) {
            l.held = true;
            ++acquires_;
            grant(w, tick + acquireCost_);
        } else {
            ++contended_;
            l.waiters.push_back(w);
        }
    }

    /** Sharded apply path: release issued at @p tick. */
    template <typename GrantFn>
    void
    applyRelease(std::uint64_t id, Tick tick, GrantFn &&grant)
    {
        auto it = locks_.find(id);
        prism_assert(it != locks_.end() && it->second.held,
                     "releasing an unheld lock");
        Lock &l = it->second;
        if (l.waiters.empty()) {
            l.held = false;
            return;
        }
        SyncWaiter w = l.waiters.front();
        l.waiters.pop_front();
        ++acquires_;
        grant(w, tick + handoffCost_);
    }

    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t contended() const { return contended_; }

  private:
    struct Lock {
        bool held = false;
        std::deque<SyncWaiter> waiters;
    };

    EventQueue &eq_;
    Cycles acquireCost_;
    Cycles handoffCost_;
    std::unordered_map<std::uint64_t, Lock> locks_;
    std::uint64_t acquires_ = 0;
    std::uint64_t contended_ = 0;
};

/** All-processor barriers, keyed by id (episodes auto-advance). */
class BarrierManager
{
  public:
    BarrierManager(EventQueue &eq, std::uint32_t participants, Cycles cost)
        : eq_(eq), participants_(participants), cost_(cost)
    {
    }

    /** Awaitable arrival at barrier @p id (sequential scheduler). */
    auto
    arrive(std::uint64_t id)
    {
        struct Awaiter {
            BarrierManager &m;
            std::uint64_t id;

            bool await_ready() const { return m.participants_ <= 1; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                Bar &b = m.bars_[id];
                b.waiters.push_back(SyncWaiter{h, nullptr, nullptr});
                if (b.waiters.size() == m.participants_) {
                    ++m.episodes_;
                    auto ws = std::move(b.waiters);
                    b.waiters.clear();
                    for (const auto &w : ws)
                        m.eq_.resumeIn(m.cost_, w.h);
                }
            }

            void await_resume() const {}
        };
        return Awaiter{*this, id};
    }

    /**
     * Sharded apply path: arrival issued at @p tick by @p w.  The
     * completing arrival (by construction the latest tick, since the
     * coordinator applies ops in time order) releases every waiter in
     * arrival order at tick + cost.
     */
    template <typename GrantFn>
    void
    applyArrive(std::uint64_t id, const SyncWaiter &w, Tick tick,
                GrantFn &&grant)
    {
        Bar &b = bars_[id];
        b.waiters.push_back(w);
        if (b.waiters.size() == participants_) {
            ++episodes_;
            auto ws = std::move(b.waiters);
            b.waiters.clear();
            for (const auto &waiter : ws)
                grant(waiter, tick + cost_);
        }
    }

    std::uint64_t episodes() const { return episodes_; }

  private:
    struct Bar {
        std::vector<SyncWaiter> waiters;
    };

    EventQueue &eq_;
    std::uint32_t participants_;
    Cycles cost_;
    std::unordered_map<std::uint64_t, Bar> bars_;
    std::uint64_t episodes_ = 0;
};

} // namespace prism

#endif // PRISM_CORE_SYNC_HH
