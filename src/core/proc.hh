/**
 * @file
 * Processor model.
 *
 * Each simulated processor executes its workload program as a
 * coroutine.  Non-memory work is charged with compute(); memory
 * accesses take the fast path (TLB + L1/L2 tag checks, pure local
 * accounting, no event-queue traffic) whenever they hit, and suspend
 * into the node's bus/coherence machinery on misses, upgrades and TLB
 * refills that fault.  Every synchronization op (lock, unlock,
 * barrier, phase mark) is one SyncOp handed to Machine::issueSync,
 * whatever the shard count.  A run-ahead quantum bounds
 * how far a processor's local clock may drift ahead of simulated time
 * between suspensions.
 *
 * A processor is the last part of its Node to be built: it translates
 * through the node's kernel page table, misses into Node::memAccess,
 * and reads the machine's oracle once, at construction.
 */

#ifndef PRISM_CORE_PROC_HH
#define PRISM_CORE_PROC_HH

#include <coroutine>
#include <cstdint>
#include <utility>

#include "coherence/line_protocol.hh"
#include "core/config.hh"
#include "frontend/ref_sink.hh"
#include "mem/addr.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"
#include "sim/task.hh"

namespace prism {

class Node;
class Machine;
class ProtocolOracle;

/** Per-processor statistics (component "proc", names "p<lane>.*"). */
struct ProcStats {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t upgradesLocal = 0; //!< S->M resolved on the node bus
    std::uint64_t tlbRefills = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t computeCycles = 0;
};

inline constexpr CounterRow<ProcStats> kProcCounters[] = {
    {"loads", "count", "", &ProcStats::loads},
    {"stores", "count", "", &ProcStats::stores},
    {"l1Hits", "count", "", &ProcStats::l1Hits},
    {"l2Hits", "count", "", &ProcStats::l2Hits},
    {"l2Misses", "count", "", &ProcStats::l2Misses},
    {"upgradesLocal", "count", "S->M upgrades resolved on the node bus",
     &ProcStats::upgradesLocal},
    {"tlbRefills", "count", "", &ProcStats::tlbRefills},
    {"pageFaults", "count", "", &ProcStats::pageFaults},
    {"computeCycles", "count", "non-memory computation charged",
     &ProcStats::computeCycles},
};

static_assert(distinctNames(kProcCounters));

/** One simulated processor. */
class Proc
{
  public:
    /**
     * Processor @p id of @p node, built after the node's kernel: it
     * reads the machine's oracle.
     */
    Proc(ProcId id, Node &node);

    ProcId id() const { return id_; }
    Node &node() { return node_; }
    const ProcStats &stats() const { return stats_; }
    Tlb &tlb() { return tlb_; }
    SetAssocCache &l1() { return l1_; }
    SetAssocCache &l2() { return l2_; }

    /** Local time not yet reflected in the global clock. */
    Cycles pendingCycles() const { return pendingCycles_; }

    /**
     * This processor's local clock: global simulated time plus the
     * locally accumulated cycles not yet drained into it.  Open-loop
     * workloads use this to pace request arrivals and to timestamp
     * per-request latencies.
     */
    Tick localNow() const;

    // --- Program interface -----------------------------------------------

    /** Charge @p cycles of non-memory computation. */
    void
    compute(Cycles cycles)
    {
        if (refSink_)
            refSink_->compute(id_, cycles);
        pendingCycles_ += cycles;
        stats_.computeCycles += cycles;
    }

    /** Awaitable load from @p va. */
    auto
    read(VAddr va)
    {
        if (refSink_)
            refSink_->access(id_, va, false);
        return AccessAwaiter{*this, va, false};
    }

    /** Awaitable store to @p va. */
    auto
    write(VAddr va)
    {
        if (refSink_)
            refSink_->access(id_, va, true);
        return AccessAwaiter{*this, va, true};
    }

    /** Awaitable barrier arrival (all processors participate). */
    CoTask
    barrier(std::uint64_t id)
    {
        return syncOp(RefOp::Barrier, SyncOp::BarrierArrive, id);
    }

    /** Awaitable lock acquire. */
    CoTask
    lock(std::uint64_t id)
    {
        return syncOp(RefOp::Lock, SyncOp::LockAcquire, id);
    }

    /** Awaitable lock release (flushes local time first; never
     *  waits). */
    CoTask
    unlock(std::uint64_t id)
    {
        return syncOp(RefOp::Unlock, SyncOp::LockRelease, id);
    }

    /**
     * Drain locally accumulated cycles into the global clock
     * (measurement fence for latency microbenchmarks).
     */
    DelayAwaiter fence();

    /** Mark the start of the measured parallel phase (call once). */
    CoTask
    beginParallel()
    {
        return syncOp(RefOp::BeginParallel, SyncOp::MarkBegin, 0);
    }

    /** Mark the end of the measured parallel phase (call once). */
    CoTask
    endParallel()
    {
        return syncOp(RefOp::EndParallel, SyncOp::MarkEnd, 0);
    }

    // --- Node-side hooks ---------------------------------------------------

    /** A snooped copy: its state before the event and the actions. */
    struct Snoop {
        Mesi prior = Mesi::Invalid; //!< merged L1/L2; Invalid: no copy
        std::uint8_t actions = 0;   //!< the transition's LineAction flags
    };

    /**
     * Raise @p ev on this processor's copy of a line (a peer's bus
     * traffic, or an inter-node intervention): the copy moves to the
     * line table's next state.  Carrying out the transition's actions
     * is the caller's job.
     */
    Snoop snoopLine(std::uint64_t line_paddr, LineEvent ev);

    /** Non-mutating merged L1/L2 state of a line (no LRU effects). */
    Mesi
    lineState(std::uint64_t line_paddr) const
    {
        return strongerLine(l1_.lookup(line_paddr),
                            l2_.lookup(line_paddr));
    }

    /** Invalidate all cached lines of @p frame (page tear-down). */
    void invalidateFrame(FrameNum frame);

    /** Local TLB shootdown for one page (kernel paging). */
    void shootdown(VPage vp);

    /** Fill a line after a miss completes (handles victims). */
    void fillLine(std::uint64_t line_paddr, Mesi state);

    /**
     * Attach/detach a reference-stream recorder (Machine::setRefSink).
     * Null (the default) keeps the program-interface hooks to a single
     * predicted-not-taken branch.
     */
    void setRefSink(RefSink *s) { refSink_ = s; }

  private:
    struct AccessAwaiter {
        Proc &p;
        VAddr va;
        bool write;

        bool await_ready() const { return p.tryFastAccess(va, write); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            p.slowAccess(va, write, h);
        }

        void await_resume() const {}
    };

    /**
     * Hands one sync op to Machine::issueSync; the program stays
     * suspended only if issueSync says so.
     */
    struct SyncAwaiter {
        Proc &p;
        SyncOp::Kind kind;
        std::uint64_t id;

        bool await_ready() const { return false; }
        bool await_suspend(std::coroutine_handle<> h);
        void await_resume() const {}
    };

    /**
     * Flush local time, then issue sync op @p kind on @p id (@p rop
     * is what a recorder sees).
     */
    CoTask syncOp(RefOp rop, SyncOp::Kind kind, std::uint64_t id);

    /**
     * Attempt the access without suspending.
     * @retval true if it completed (hit under current permissions).
     */
    bool tryFastAccess(VAddr va, bool write);

    /** Cache/TLB attempt without stats or issue-cycle accounting. */
    bool fastCore(VAddr va, bool write);

    /** Insert into the L1, folding dirty victims into the L2. */
    void insertL1(std::uint64_t line_paddr, Mesi state);

    /** Slow path: flush pending time, fault/miss, fill, resume caller. */
    FireAndForget slowAccess(VAddr va, bool write,
                             std::coroutine_handle<> caller);

    /**
     * Flush pendingCycles_ into the global clock: the returned
     * awaitable waits them out (not at all when none are pending).
     */
    DelayAwaiter
    flushTime()
    {
        return DelayAwaiter(eq_, std::exchange(pendingCycles_, 0));
    }

    /** A line leaves this processor's caches: raise Evict on it. */
    void evict(std::uint64_t line_paddr, Mesi state);

    ProcId id_;
    Node &node_;
    Machine &machine_;
    ProtocolOracle *const oracle_; //!< null unless an oracle checks
    RefSink *refSink_ = nullptr;   //!< non-null only when recording
    SyncActor actor_;              //!< rank/seq for deterministic sync
    const MachineConfig &cfg_;
    EventQueue &eq_;
    LineGeometry geo_;
    const LineProtocol &proto_;

    SetAssocCache l1_;
    SetAssocCache l2_;
    Tlb tlb_;

    // One-entry translation cache for consecutive same-page accesses.
    VPage lastVPage_ = ~0ULL;
    FrameNum lastFrame_ = kInvalidFrame;

    /**
     * Commit cache for consecutive hits on one L1 line: the line's
     * address and whether a store may commit to it (state Modified).
     * Only ever set immediately after an operation that made the line
     * MRU in its set, so a fast commit's skipped touch() is a no-op by
     * construction.  Cleared on every L1 mutation that could break
     * that invariant (fills, snoops, frame invalidations).
     */
    std::uint64_t fastLineAddr_ = ~0ULL;
    bool fastLineWritable_ = false;

    void
    clearFastLine()
    {
        fastLineAddr_ = ~0ULL;
        fastLineWritable_ = false;
    }

    Cycles pendingCycles_ = 0;
    ProcStats stats_;
};

} // namespace prism

#endif // PRISM_CORE_PROC_HH
