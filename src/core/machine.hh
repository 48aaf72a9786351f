/**
 * @file
 * The PRISM machine: nodes, interconnect, global IPC, synchronization
 * managers, and the run loop.
 *
 * This is the library's main entry point: construct a Machine from a
 * MachineConfig, create and attach global segments, hand each
 * processor a program coroutine, and run() to completion.
 *
 * Construction builds what every node's parts read first (the
 * protocol oracle, the Chrome-trace sink and the message-log filter),
 * then the nodes, each of which builds its controller, kernel and
 * processors with a reference to itself; nothing is wired after
 * construction.  Each kernel looks its page-mode policy up in
 * kPolicyRules (policy/page_policy.hh) by cfg.policy.  The machine reads
 * cfg.protocol as given: the benches resolve --protocol and
 * PRISM_PROTOCOL into it.  PRISM_ORACLE is the one environment
 * override it applies itself.
 */

#ifndef PRISM_CORE_MACHINE_HH
#define PRISM_CORE_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "coherence/msg.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "core/node.hh"
#include "core/sync.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "os/ipc_server.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"
#include "sim/snap_log.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace prism {

class ProtocolOracle;
class RefSink;
class TraceSink;

/**
 * Everything one event-loop shard owns (sim/shard.hh).  The sequential
 * scheduler is the one-shard special case: shard 0 holds THE event
 * queue, message pool and message ring and counts the finished
 * programs, while the snapshot log, sync-op log and mark flag stay
 * idle (sync ops are applied as they are issued).  With jobsIntra > 1
 * each shard drives a contiguous block of nodes on its own thread;
 * all fields are written only by the owning shard's thread during a
 * window, and read/reset only by the coordinator between windows.
 */
struct MachineShard {
    EventQueue eq;
    /** Tick-tagged snapshot-counter increments (mark adjustment). */
    SnapshotLog snapLog;
    /** Sync ops logged this window, applied at the barrier. */
    std::vector<SyncOp> syncOps;
    /** Last-N message history for this shard's nodes. */
    TraceRing msgRing;
    /** Recycled message boxes for route() (freed by the *destination*
     *  shard, so boxes migrate between pools; see Machine::route). */
    std::vector<std::unique_ptr<Msg>> msgPool;
    /** A parallel-phase mark was logged and not yet applied: the
     *  window is truncated and stays truncated until the coordinator
     *  applies the mark and front-splices the continuation. */
    bool markHit = false;
    /** Programs finished on this shard in the current run(), and the
     *  last finish tick (reset at the start of each run). */
    std::uint32_t done = 0;
    Tick lastDone = 0;
};

/** The whole simulated multiprocessor. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg_; }

    /**
     * Shard 0's event queue — the *only* queue in sequential mode
     * (jobsIntra == 1, the default).  Callers that drive the queue by
     * hand (latency probes, unit tests) require sequential mode.
     */
    EventQueue &eventQueue() { return shards_[0]->eq; }

    /** Number of event-loop shards (1 = sequential scheduler). */
    std::uint32_t
    numShards() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /** Shard driving @p n 's event loop. */
    std::uint32_t shardOfNode(NodeId n) const { return shardOfNode_[n]; }

    /** Conservative window lookahead, cycles (sharded mode). */
    Cycles lookahead() const { return lookahead_; }

    /** Events executed, aggregated over every shard's queue. */
    std::uint64_t
    eventsExecuted() const
    {
        std::uint64_t total = 0;
        for (const auto &sh : shards_)
            total += sh->eq.eventsExecuted();
        return total;
    }

    Network &network() { return *net_; }
    IpcServer &ipc() { return ipc_; }
    LockManager &locks() { return locks_; }
    BarrierManager &barriers() { return barriers_; }

    /** The metric catalog: a view over every module's stats tables. */
    MetricRegistry metricRegistry() const { return MetricRegistry(*this); }

    /**
     * Walk every counter, histogram and gauge the machine owns, in
     * report order: per node the controller's counters, latencies and
     * footprint gauges, the kernel's counters, latencies and gauges,
     * and each processor's counters; then the network's counters and
     * latencies, and the KV latencies once a workload has taken them.
     */
    void visitMetrics(MetricVisitor &v) const;

    /**
     * The KV workload's request-latency histograms, created on the
     * first call (a KV workload's setup()); the catalog lists them
     * from then on.
     */
    KvLatency &
    kvLatency()
    {
        if (!kvLatency_)
            kvLatency_.emplace();
        return *kvLatency_;
    }

    /**
     * Always-on bounded history of recent protocol messages (the
     * last-N debugging buffer; see obs/ for the full trace sink).
     * Sharded mode keeps one ring per shard; this returns shard 0's
     * (the whole history in sequential mode).
     */
    const TraceRing &messageRing() const { return shards_[0]->msgRing; }

    /** Shard @p s 's message-history ring. */
    const TraceRing &
    messageRing(std::uint32_t s) const
    {
        return shards_[s]->msgRing;
    }

    /** Protocol oracle; nullptr when oracleMode is Off. */
    ProtocolOracle *oracle() { return oracle_.get(); }

    /** The Chrome-trace sink; nullptr unless this machine claimed it. */
    TraceSink *traceSink() { return trace_.get(); }

    /** The protocol message-log filter, parsed once per machine. */
    const MsgLogFilter &msgLogFilter() const { return msgLog_; }

    /**
     * Attach (or with nullptr detach) a reference-stream recorder:
     * segment setup calls report here, and every processor's program
     * interface is hooked (frontend/ref_sink.hh).
     */
    void setRefSink(RefSink *s);

    Node &node(NodeId n) { return *nodes_[n]; }
    std::uint32_t numNodes() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    /** Processor by global id (node-major numbering). */
    Proc &
    proc(ProcId p)
    {
        return nodes_[p / cfg_.procsPerNode]->proc(p % cfg_.procsPerNode);
    }

    std::uint32_t numProcs() const { return cfg_.numProcs(); }

    /** Static home of a global page: round-robin across nodes. */
    NodeId
    staticHomeOf(GPage gp) const
    {
        return prism::staticHomeOf(gp, cfg_.numNodes);
    }

    // --- Global shared memory setup ---------------------------------------

    /** Globalized shmget: allocate/look up a segment. */
    std::uint64_t shmget(std::uint64_t key, std::uint64_t bytes);

    /**
     * Globalized shmat on every node: bind virtual segment @p vsid to
     * global segment @p gsid at identical virtual addresses (the
     * loader behaviour described in Section 3.3).
     */
    void shmatAll(std::uint64_t vsid, std::uint64_t gsid);

    // --- Running programs ------------------------------------------------

    /**
     * Run one program coroutine per processor to completion.
     * @p make is called once per processor to create its program;
     * each program starts as an event on its shard at the machine's
     * current tick (the latest shard clock), in processor order.  A
     * machine may run() more than once, on any shard count.
     */
    void run(const std::function<CoTask(Proc &)> &make);

    /** Drain all residual simulation activity (writebacks etc.). */
    void drain();

    // --- Synchronization ----------------------------------------------

    /**
     * A processor issues @p op (Proc's lock, unlock, barrier and
     * phase marks).  On one shard it is applied at once through
     * applySync; on N shards it is logged with the issuing shard and
     * the coordinator applies it at the next window barrier.
     * @retval true if the issuer stays suspended until a grant (or,
     *         for a logged mark, the coordinator's resume).
     */
    bool issueSync(const SyncOp &op);

    // --- Parallel-phase measurement ------------------------------------

    Tick parallelBeginTick() const { return begin_.tick; }

    /**
     * Aggregate run metrics (see RunMetrics), read from the modules'
     * stats fields and accessors.
     */
    RunMetrics metrics() const;

    /** The end mark's tick, else the last program finish. */
    Tick parallelEndTick() const;

    /** Build the full structured run report (see obs/report.hh). */
    RunReport report() const { return buildRunReport(*this); }

    /** Route a protocol message through the network. */
    void route(Msg &&m);

  private:
    /** The phase-scoped counters' values, indexed by SnapKind. */
    using PhaseCounts = std::array<std::uint64_t, kSnapKinds>;

    /** A parallel-phase mark: its tick and the counters as of then. */
    struct PhaseMark {
        bool set = false;
        Tick tick = 0;
        PhaseCounts counts{};
    };

    /** Current totals of the phase-scoped counters, over all nodes. */
    PhaseCounts phaseCounts() const;

    /**
     * Apply @p op to the lock, barrier or mark state: at issue on one
     * shard, at the window barrier on N (the coordinator).
     * @retval true if the issuer waits for a grant.
     */
    bool applySync(const SyncOp &op);

    /**
     * Record the mark @p op: its tick, and the phase counters as of
     * that tick (the totals minus every increment other shards logged
     * at or after it; on one shard nothing is logged).
     */
    void recordMark(const SyncOp &op);

    // --- Sharded run loop (jobsIntra > 1) ------------------------------

    /** Windows of [W, W+L) until every queue and channel is dry. */
    void runShardedLoop();

    /** One shard's slice of a window: run events below windowLimit_. */
    void runShardWindow(std::uint32_t s);

    /** Index of the shard that owns @p q. */
    std::uint32_t shardOfQueue(const EventQueue *q) const;

    MachineConfig cfg_;
    /** Event-loop shards; shards_[0] doubles as the sequential queue.
     *  unique_ptr for address stability: nodes hold EventQueue&. */
    std::vector<std::unique_ptr<MachineShard>> shards_;
    std::vector<std::uint32_t> shardOfNode_;
    Cycles lookahead_ = 0;
    std::unique_ptr<Network> net_;
    IpcServer ipc_;
    LockManager locks_;
    BarrierManager barriers_;
    // Built before the nodes and destroyed after them: their parts
    // hold these from construction on.
    std::unique_ptr<ProtocolOracle> oracle_;
    std::unique_ptr<TraceSink> trace_;
    MsgLogFilter msgLog_;
    std::vector<std::unique_ptr<Node>> nodes_;
    RefSink *refSink_ = nullptr;
    std::optional<KvLatency> kvLatency_;
    /** Worker threads for shards 1..N-1 (null in sequential mode). */
    std::unique_ptr<ShardWorkers> workers_;
    /** Current window's exclusive limit W+L (set by the coordinator
     *  before each round; read by shard threads during it). */
    Tick windowLimit_ = 0;
    /** Sync ops held across a round because a mark preceded them. */
    std::vector<SyncOp> pendingSync_;
    /** Next grant rank (see SyncActor); seeded to numProcs(). */
    std::uint64_t nextSyncRank_ = 0;

    PhaseMark begin_;
    PhaseMark end_;
};

} // namespace prism

#endif // PRISM_CORE_MACHINE_HH
