/**
 * @file
 * Conservative parallel intra-run simulation: the shard layer.
 *
 * The machine is partitioned into shards of whole nodes, each owning
 * its own EventQueue.  Shards execute windows [W, W+L) of simulated
 * time in parallel, where the lookahead L is the minimum cross-shard
 * reaction delay (network latency plus minimum NIC occupancy, and the
 * synchronization-episode costs).  Within a window a shard touches
 * only its own state; every cross-shard interaction is either
 *
 *  - a time-stamped network entry pushed through a ShardChannel lane
 *    (drained by the coordinator at the window barrier, delivered via
 *    per-destination "ingress pumps" that book NIC occupancy in
 *    (arrival, source, sequence) order), or
 *  - a synchronization op (lock/barrier/mark) appended to a per-shard
 *    log and applied by the coordinator, sorted by a deterministic
 *    (tick, rank, seq) key chosen to match the sequential scheduler's
 *    tie order.  The coordinator applies it through the same
 *    Machine::applySync that one shard runs as the op is issued, so
 *    the lock, barrier and mark semantics exist once.
 *
 * Everything here is deterministic by construction: no ordering ever
 * depends on thread arrival order, so a run's results are identical
 * for any shard count >= 2 and stable across reruns.  They are NOT
 * byte-identical to the sequential scheduler: the sequential path
 * books ingress NIC occupancy in global send order, which is exactly
 * the information parallel execution gives up, so the sharded path
 * books it in (arrival, source, sequence) order instead.  Both are
 * valid serializations of the same contention model; the deltas and
 * their magnitude are documented in docs/PERFORMANCE.md ("Sharded
 * scheduler").
 */

#ifndef PRISM_SIM_SHARD_HH
#define PRISM_SIM_SHARD_HH

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace prism {

class EventQueue;

/**
 * Deterministic tie-break state for one processor's sync ops, read by
 * the coordinator's sort (one shard applies ops in issue order).
 * `rank` mirrors the sequential scheduler's event-sequence tie order:
 * it starts at the processor id (programs start in processor order),
 * and every grant stamps a fresh, globally increasing rank on the
 * processor it resumes, so two processors resumed by the same barrier
 * episode keep their waiter order, exactly as the sequential queue's
 * FIFO tie-break would.  `nextSeq` orders multiple ops issued by the
 * same processor at one tick.
 */
struct SyncActor {
    std::uint64_t rank = 0;
    std::uint32_t nextSeq = 0;
};

/**
 * A synchronization op as a processor issues it (Machine::issueSync):
 * applied at once on one shard, logged and applied at the next window
 * barrier on N shards.
 */
struct SyncOp {
    enum Kind : std::uint8_t {
        LockAcquire,
        LockRelease,
        BarrierArrive,
        MarkBegin,
        MarkEnd,
    };

    Tick tick;          //!< simulated time the op was issued
    std::uint64_t rank; //!< issuing processor's rank (see SyncActor)
    std::uint32_t seq;  //!< per-processor issue order within a tick
    Kind kind;
    std::uint64_t id;            //!< lock/barrier id (0 for marks)
    std::coroutine_handle<> h;   //!< continuation (a release never waits)
    EventQueue *q;               //!< issuing shard's queue (resume target)
    SyncActor *actor;            //!< issuing processor's rank slot

    bool isMark() const { return kind == MarkBegin || kind == MarkEnd; }

    /** The coordinator's application order (deterministic total order). */
    static bool
    before(const SyncOp &a, const SyncOp &b)
    {
        if (a.tick != b.tick)
            return a.tick < b.tick;
        if (a.rank != b.rank)
            return a.rank < b.rank;
        return a.seq < b.seq;
    }
};

/**
 * S x S staging lanes for cross-shard traffic.  During a window, lane
 * (from, to) is appended to only by shard `from`; at the barrier the
 * coordinator drains every lane in (from, to, FIFO) order, so the
 * drain order is deterministic regardless of thread interleaving.
 */
template <typename T>
class ShardChannel
{
  public:
    void
    reset(unsigned shards)
    {
        shards_ = shards;
        lanes_.clear();
        lanes_.resize(static_cast<std::size_t>(shards) * shards);
    }

    std::vector<T> &
    lane(unsigned from, unsigned to)
    {
        return lanes_[static_cast<std::size_t>(from) * shards_ + to];
    }

    /** Coordinator: consume every staged entry in deterministic order. */
    template <typename F>
    void
    drain(F &&consume)
    {
        for (auto &lane : lanes_) {
            for (T &e : lane)
                consume(std::move(e));
            lane.clear();
        }
    }

    bool
    empty() const
    {
        for (const auto &lane : lanes_) {
            if (!lane.empty())
                return false;
        }
        return true;
    }

  private:
    unsigned shards_ = 0;
    std::vector<std::vector<T>> lanes_;
};

/**
 * Sense-reversing barrier for the window loop: spins briefly (window
 * rounds are microseconds apart), then parks on the atomic so idle
 * shards don't burn a core during long serial stretches.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {}

    void
    arrive()
    {
        const std::uint32_t gen = gen_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            count_.store(0, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_release);
            gen_.notify_all();
        } else {
            // Spinning only helps when the releasing thread can run
            // concurrently; on a single-hardware-thread host it just
            // burns the timeslice the releaser needs, so park at once.
            for (int spin = spinBudget(); spin > 0; --spin) {
                if (gen_.load(std::memory_order_acquire) != gen)
                    return;
            }
            while (gen_.load(std::memory_order_acquire) == gen)
                gen_.wait(gen, std::memory_order_acquire);
        }
    }

  private:
    static constexpr int kSpins = 4096;

    static int
    spinBudget()
    {
        static const int budget =
            std::thread::hardware_concurrency() > 1 ? kSpins : 0;
        return budget;
    }

    std::uint32_t parties_;
    std::atomic<std::uint32_t> count_{0};
    std::atomic<std::uint32_t> gen_{0};
};

/**
 * Persistent worker team for the window loop: round(fn) runs
 * fn(shard) on every shard — shard 0 on the calling (coordinator)
 * thread, shards 1..N-1 on the workers — and returns once all are
 * done.  Two barrier crossings per round; workers never touch any
 * state between rounds, so everything the coordinator wrote before
 * round() is visible to them (and vice versa at return).
 */
class ShardWorkers
{
  public:
    explicit ShardWorkers(unsigned shards)
        : start_(shards), end_(shards)
    {
        threads_.reserve(shards - 1);
        for (unsigned s = 1; s < shards; ++s)
            threads_.emplace_back([this, s] { workerLoop(s); });
    }

    ~ShardWorkers()
    {
        stop_.store(true, std::memory_order_release);
        start_.arrive();
        for (auto &t : threads_)
            t.join();
    }

    ShardWorkers(const ShardWorkers &) = delete;
    ShardWorkers &operator=(const ShardWorkers &) = delete;

    void
    round(const std::function<void(unsigned)> &fn)
    {
        fn_ = &fn;
        start_.arrive();
        fn(0);
        end_.arrive();
    }

  private:
    void
    workerLoop(unsigned shard)
    {
        for (;;) {
            start_.arrive();
            if (stop_.load(std::memory_order_acquire))
                return;
            (*fn_)(shard);
            end_.arrive();
        }
    }

    SpinBarrier start_;
    SpinBarrier end_;
    std::atomic<bool> stop_{false};
    const std::function<void(unsigned)> *fn_ = nullptr;
    std::vector<std::thread> threads_;
};

/**
 * Conservative lookahead for a window: the earliest any action taken
 * at tick t inside one shard can require another shard to act is
 * t + L, so shards may freely execute [W, W+L) in parallel.
 *
 *  - a cross-shard message books its destination NIC no earlier than
 *    send + egress occupancy + wire latency (>= latency + min occ);
 *  - lock grants, handoffs and barrier releases resume their waiters
 *    acquireCost / handoffCost / barrierCost cycles after the op, so
 *    ops logged during a window are applied at the barrier before any
 *    of their effects come due.
 */
inline Cycles
conservativeLookahead(Cycles net_latency, Cycles min_occupancy,
                      Cycles lock_acquire, Cycles lock_handoff,
                      Cycles barrier_cost)
{
    Cycles l = net_latency + min_occupancy;
    if (lock_acquire < l)
        l = lock_acquire;
    if (lock_handoff < l)
        l = lock_handoff;
    if (barrier_cost < l)
        l = barrier_cost;
    return l;
}

} // namespace prism

#endif // PRISM_SIM_SHARD_HH
