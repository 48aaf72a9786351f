/**
 * @file
 * Deterministic discrete-event scheduler.
 *
 * All simulated activity is serialized through one EventQueue.  Events
 * scheduled for the same tick fire in scheduling order (a monotonically
 * increasing sequence number breaks ties), which makes every simulation
 * run bit-reproducible for a given configuration and seed.
 *
 * An event is one of two kinds, sharing one sequence space so their
 * relative order is the order they were scheduled in:
 *  - a coroutine wake-up (resumeAt/resumeIn/resumeFront): the heap key
 *    itself carries the suspended frame's address and runOne resumes
 *    it directly.  Every awaitable in src/ wakes its waiter this way,
 *    so the common event touches no closure at all;
 *  - a callback (schedule/scheduleIn) for real closures such as
 *    Machine::route's message delivery.
 *
 * Hot-path design (this is the innermost loop of the simulator):
 *  - callbacks are InlineCallback, not std::function: fixed inline
 *    storage, no heap allocation for any capture size used in src/;
 *  - the time order is kept in a hand-rolled binary min-heap over a
 *    std::vector (reserved up front) rather than std::priority_queue,
 *    because pop must *move* the event out: std::priority_queue::top()
 *    returns a const reference, which previously forced a const_cast
 *    to move from it (see the regression note at runOne);
 *  - the heap holds only trivially-copyable 24-byte keys (tick, seq,
 *    target).  The target is a frame address (a wake-up; frames are
 *    at least 8-byte aligned, so its low bit is clear) or a callback's
 *    slot index shifted left with the low bit set.  Callbacks live in
 *    a stable slot arena, so sifting never touches a callback and
 *    each callback is moved exactly twice (into its slot at schedule,
 *    out at dispatch).
 */

#ifndef PRISM_SIM_EVENT_QUEUE_HH
#define PRISM_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/snap_log.hh"
#include "sim/types.hh"

namespace prism {

/** Sentinel shard id: "not bound to any shard" (debug affinity). */
inline constexpr std::uint32_t kAnyShard = 0xffffffffu;

/** A time-ordered queue of callbacks driving the simulation. */
class EventQueue
{
  public:
    using Callback = InlineCallback<kEventCallbackBytes>;

    EventQueue()
    {
        heap_.reserve(kInitialCapacity);
        slots_.reserve(kInitialCapacity);
        freeSlots_.reserve(kInitialCapacity);
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Number of events still pending. */
    std::size_t pending() const { return heap_.size(); }

    /** Tick of the earliest pending event; kTickMax when empty. */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? kTickMax : heap_.front().when;
    }

    /**
     * Schedule @p cb to run at absolute time @p when (>= now).
     * Callables are constructed directly in their arena slot (no
     * intermediate Callback temporary on the common lambda path).
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        push(when, nextSeq_++, slotFor(std::forward<F>(cb)));
    }

    /** Schedule @p cb to run @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycles delta, F &&cb)
    {
        schedule(now_ + delta, std::forward<F>(cb));
    }

    /**
     * Resume the suspended coroutine @p h at absolute time @p when
     * (>= now): a wake-up event ordered exactly like schedule().
     */
    void
    resumeAt(Tick when, std::coroutine_handle<> h)
    {
        push(when, nextSeq_++, frameTarget(h));
    }

    /** Resume @p h @p delta cycles from now. */
    void
    resumeIn(Cycles delta, std::coroutine_handle<> h)
    {
        resumeAt(now_ + delta, h);
    }

    /**
     * Resume @p h at @p when, ordered *before* every event already
     * scheduled for that tick.  Used by the sharded coordinator to
     * splice a deferred continuation (the code following a
     * parallel-phase mark) back in where one shard runs it at once,
     * ahead of same-tick events that were enqueued earlier.
     */
    void
    resumeFront(Tick when, std::coroutine_handle<> h)
    {
        push(when, frontSeq_--, frameTarget(h));
    }

    /**
     * Execute the next event.
     * @retval false if the queue was empty.
     *
     * Regression note: the event is *moved out* of the heap before it
     * runs.  A callback may schedule further events — including at the
     * current tick — which mutates the heap, so running the callback
     * in place would dangle.  The old std::priority_queue code had to
     * `const_cast` `top()` to get a moving pop; the hand-rolled heap
     * supports it directly (popTop).
     */
    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        const Event ev = popTop();
        now_ = ev.when;
        ++executed_;
        if (ev.target & kSlotTag) {
            const auto slot = static_cast<std::uint32_t>(ev.target >> 1);
            Callback cb = std::move(slots_[slot]);
            freeSlots_.push_back(slot);
            cb();
        } else {
            std::coroutine_handle<>::from_address(
                reinterpret_cast<void *>(ev.target))
                .resume();
        }
        return true;
    }

    /** Run until the queue drains. */
    void
    runAll()
    {
        while (runOne()) {
        }
    }

    /**
     * Run until the queue drains or @p until is reached, whichever is
     * first.  Events at exactly @p until still execute.  The clock
     * always advances to @p until on return (remaining events, if any,
     * are strictly later), so back-to-back runUntil calls measure
     * consistent intervals whether or not the queue drained.
     */
    void
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.front().when <= until) {
            runOne();
        }
        if (now_ < until)
            now_ = until;
    }

    // --- Sharded-scheduler hooks (no-ops in sequential mode) ----------

    /**
     * Attach the owning shard's snapshot log; increment sites call
     * snapNote() and pay one never-taken branch when unattached.
     */
    void setSnapshotLog(SnapshotLog *log) { snapLog_ = log; }

    /** Record a snapshot-counter increment at the current tick. */
    void
    snapNote(SnapKind k)
    {
        if (snapLog_)
            snapLog_->record(now_, k);
    }

#ifndef NDEBUG
    /** Debug: bind this queue to a shard for affinity checking. */
    void setOwnerShard(std::uint32_t s) { ownerShard_ = s; }

    /**
     * Debug: the shard the calling thread is executing (kAnyShard for
     * the coordinator / sequential mode).  Set by the window loop.
     */
    static std::uint32_t &
    threadShard()
    {
        thread_local std::uint32_t s = kAnyShard;
        return s;
    }
#endif

  private:
    /** Initial heap capacity; avoids regrowth for typical runs. */
    static constexpr std::size_t kInitialCapacity = 1024;

    /** Low target bit: the target is a callback slot, not a frame. */
    static constexpr std::uintptr_t kSlotTag = 1;

    /**
     * Heap node: ordering key plus what to run (a frame address, or a
     * callback slot tagged with kSlotTag).  The sequence is signed so
     * resumeFront can order ahead of all normally scheduled events at
     * the same tick (negative, counting down); the others use the
     * non-negative, counting-up range.
     */
    struct Event {
        Tick when;
        std::int64_t seq;
        std::uintptr_t target;
    };
    static_assert(std::is_trivially_copyable_v<Event>,
                  "heap sifting relies on cheap Event copies");

    static std::uintptr_t
    frameTarget(std::coroutine_handle<> h)
    {
        const auto t = reinterpret_cast<std::uintptr_t>(h.address());
        prism_assert(t != 0 && !(t & kSlotTag),
                     "resuming a null or misaligned coroutine frame");
        return t;
    }

    /** Store @p cb in a free arena slot; return its tagged target. */
    template <typename F>
    std::uintptr_t
    slotFor(F &&cb)
    {
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            slots_[slot] = std::move(cb);
        else
            slots_[slot].emplace(std::forward<F>(cb));
        return (static_cast<std::uintptr_t>(slot) << 1) | kSlotTag;
    }

    void
    push(Tick when, std::int64_t seq, std::uintptr_t target)
    {
        prism_assert(when >= now_,
                     "event scheduled in the past (%llu < %llu)",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_));
#ifndef NDEBUG
        // Shard affinity: only the owning shard's thread (or the
        // coordinator, which runs with no thread shard set) may
        // schedule into a shard-bound queue.
        prism_assert(ownerShard_ == kAnyShard ||
                         threadShard() == kAnyShard ||
                         threadShard() == ownerShard_,
                     "cross-shard schedule: queue owned by shard %u, "
                     "caller runs shard %u",
                     ownerShard_, threadShard());
#endif
        heap_.push_back(Event{when, seq, target});
        siftUp(heap_.size() - 1);
    }

    /** Min-heap order: earlier tick first, scheduling order on ties. */
    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void
    siftUp(std::size_t i)
    {
        const Event ev = heap_[i];
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!earlier(ev, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = ev;
    }

    /** Remove and return the earliest event (heap must be non-empty). */
    Event
    popTop()
    {
        const Event top = heap_.front();
        const Event last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n > 0) {
            // Sift the former last element down from the root hole.
            std::size_t hole = 0;
            while (true) {
                std::size_t child = 2 * hole + 1;
                if (child >= n)
                    break;
                if (child + 1 < n &&
                    earlier(heap_[child + 1], heap_[child]))
                    ++child;
                if (!earlier(heap_[child], last))
                    break;
                heap_[hole] = heap_[child];
                hole = child;
            }
            heap_[hole] = last;
        }
        return top;
    }

    std::vector<Event> heap_;
    /** Callback arena indexed by a slot target; freeSlots_ recycles. */
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::int64_t nextSeq_ = 0;
    std::int64_t frontSeq_ = -1;
    std::uint64_t executed_ = 0;
    SnapshotLog *snapLog_ = nullptr;
#ifndef NDEBUG
    std::uint32_t ownerShard_ = kAnyShard;
#endif
};

/**
 * A resource that serves one request at a time in FCFS order, modeled
 * analytically: acquire() returns the time service may begin and books
 * the occupancy.  Used for buses, controller occupancy, DRAM banks and
 * network links, where queueing delay (not event interleaving) is the
 * behaviour of interest.
 */
class FcfsResource
{
  public:
    /**
     * Request @p occupancy cycles of service no earlier than @p at.
     * @return the tick at which service begins.
     */
    Tick
    acquire(Tick at, Cycles occupancy)
    {
        Tick start = at > nextFree_ ? at : nextFree_;
        nextFree_ = start + occupancy;
        busyCycles_ += occupancy;
        ++grants_;
        return start;
    }

    /** Earliest time a new request could start service. */
    Tick nextFree() const { return nextFree_; }

    /** Total cycles of booked service (utilization numerator). */
    Cycles busyCycles() const { return busyCycles_; }

    /** Number of grants made. */
    std::uint64_t grants() const { return grants_; }

  private:
    Tick nextFree_ = 0;
    Cycles busyCycles_ = 0;
    std::uint64_t grants_ = 0;
};

} // namespace prism

#endif // PRISM_SIM_EVENT_QUEUE_HH
