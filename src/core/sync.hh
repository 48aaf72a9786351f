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
 * There is one entry path.  A processor hands each op to
 * Machine::issueSync, which applies it here at once on one shard, or
 * logs it for the sharded coordinator (sim/shard.hh) to apply here at
 * the next window barrier in deterministic order.  Either way the
 * managers never touch an event queue themselves: each op that frees
 * a waiter calls the caller's grant callback,
 * `void(const SyncWaiter &, Tick resume_at)`, which schedules the
 * resume into the waiter's own queue.
 */

#ifndef PRISM_CORE_SYNC_HH
#define PRISM_CORE_SYNC_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace prism {

/**
 * A parked waiter: its continuation, plus the queue and rank slot a
 * grant resumes it through (opaque to the managers).
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
    LockManager(Cycles acquire_cost, Cycles handoff_cost)
        : acquireCost_(acquire_cost), handoffCost_(handoff_cost)
    {
    }

    /**
     * Acquire of lock @p id issued at @p tick by @p w.  When the lock
     * is free the grant fires at tick + acquireCost; otherwise the
     * waiter parks in FIFO order.
     */
    template <typename GrantFn>
    void
    acquire(std::uint64_t id, const SyncWaiter &w, Tick tick,
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

    /**
     * Release of lock @p id issued at @p tick: the next waiter is
     * granted the lock at tick + handoffCost.
     */
    template <typename GrantFn>
    void
    release(std::uint64_t id, Tick tick, GrantFn &&grant)
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
    BarrierManager(std::uint32_t participants, Cycles cost)
        : participants_(participants), cost_(cost)
    {
    }

    /**
     * Arrival at barrier @p id issued at @p tick by @p w.  The
     * completing arrival (the latest tick, since ops are applied in
     * time order) releases every waiter in arrival order at
     * tick + cost.  With one participant there is nobody to wait for:
     * the arrival passes through with no grant and no episode.
     * @retval true if @p w waits for a grant.
     */
    template <typename GrantFn>
    bool
    arrive(std::uint64_t id, const SyncWaiter &w, Tick tick,
           GrantFn &&grant)
    {
        if (participants_ <= 1)
            return false;
        Bar &b = bars_[id];
        b.waiters.push_back(w);
        if (b.waiters.size() == participants_) {
            ++episodes_;
            auto ws = std::move(b.waiters);
            b.waiters.clear();
            for (const auto &waiter : ws)
                grant(waiter, tick + cost_);
        }
        return true;
    }

    std::uint64_t episodes() const { return episodes_; }

  private:
    struct Bar {
        std::vector<SyncWaiter> waiters;
    };

    std::uint32_t participants_;
    Cycles cost_;
    std::unordered_map<std::uint64_t, Bar> bars_;
    std::uint64_t episodes_ = 0;
};

} // namespace prism

#endif // PRISM_CORE_SYNC_HH
