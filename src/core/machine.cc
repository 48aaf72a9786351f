#include "core/machine.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "check/oracle.hh"
#include "core/env.hh"
#include "frontend/ref_sink.hh"
#include "obs/trace_sink.hh"

namespace prism {

namespace {

/** The fields that make conservativeLookahead() zero, as "f = 0, ...". */
std::string
zeroLookaheadFields(const MachineConfig &c)
{
    std::string out;
    auto zero = [&out](const char *field, Cycles v) {
        if (v != 0)
            return;
        out += out.empty() ? "" : ", ";
        out += field;
        out += " = 0";
    };
    zero("barrierCycles", c.barrierCycles);
    zero("lockAcquireCycles", c.lockAcquireCycles);
    zero("lockHandoffCycles", c.lockHandoffCycles);
    // The network term is netLatency plus the smallest occupancy.
    if (c.netLatency == 0 &&
        std::min({c.netCtrlOccupancy, c.netDataOccupancy,
                  c.netPageOccupancy}) == 0) {
        zero("netLatency", c.netLatency);
        zero("netCtrlOccupancy", c.netCtrlOccupancy);
        zero("netDataOccupancy", c.netDataOccupancy);
        zero("netPageOccupancy", c.netPageOccupancy);
    }
    return out;
}

} // namespace

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), locks_(cfg.lockAcquireCycles, cfg.lockHandoffCycles),
      barriers_(cfg.numProcs(), cfg.barrierCycles)
{
    validateConfig(cfg_);
    if (const char *env = resolveEnv("PRISM_ORACLE"))
        cfg_.oracleMode = parseKnobEnum<OracleMode>("PRISM_ORACLE", env);

    const Cycles min_occ =
        std::min({cfg_.netCtrlOccupancy, cfg_.netDataOccupancy,
                  cfg_.netPageOccupancy});
    lookahead_ = conservativeLookahead(cfg_.netLatency, min_occ,
                                       cfg_.lockAcquireCycles,
                                       cfg_.lockHandoffCycles,
                                       cfg_.barrierCycles);

    // Event-loop shard count (sim/shard.hh).  Features that observe or
    // perturb the global event interleaving — the protocol oracle's
    // continuous checks, delivery jitter, Chrome tracing — are defined
    // against the sequential schedule, so they force jobsIntra = 1.
    // So does a zero lookahead: the window loop would never advance.
    std::uint32_t jobs = cfg_.jobsIntra ? cfg_.jobsIntra : 1;
    if (jobs > cfg_.numNodes)
        jobs = cfg_.numNodes;
    if (jobs > 1) {
        std::string seq_only;
        if (cfg_.oracleMode != OracleMode::Off)
            seq_only = "the protocol oracle";
        else if (cfg_.netJitterMax > 0)
            seq_only = "network delivery jitter";
        else if (resolveEnv("PRISM_TRACE"))
            seq_only = "PRISM_TRACE";
        else if (lookahead_ == 0)
            seq_only = "a zero window lookahead (" +
                       zeroLookaheadFields(cfg_) + ")";
        if (!seq_only.empty()) {
            inform("jobsIntra=%u ignored: %s requires the sequential "
                   "scheduler", jobs, seq_only.c_str());
            jobs = 1;
        }
    }
    for (std::uint32_t s = 0; s < jobs; ++s)
        shards_.push_back(std::make_unique<MachineShard>());
    shardOfNode_.resize(cfg_.numNodes);
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        shardOfNode_[n] = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(n) * jobs / cfg_.numNodes);
    }
    EventQueue &eq0 = shards_[0]->eq;
    Network::Params np;
    np.oneWayLatency = cfg_.netLatency;
    np.controlOccupancy = cfg_.netCtrlOccupancy;
    np.dataOccupancy = cfg_.netDataOccupancy;
    np.pageOccupancy = cfg_.netPageOccupancy;
    np.jitterMax = cfg_.netJitterMax;
    np.jitterSeed = cfg_.jitterSeed;
    net_ = std::make_unique<Network>(eq0, cfg_.numNodes, np);

    // What every node's parts read in their constructors: the oracle,
    // the Chrome-trace sink (the first machine in the process claims
    // PRISM_TRACE; parallel sweep workers run untraced) and the
    // message-log filter.
    if (cfg_.oracleMode != OracleMode::Off) {
        oracle_ = std::make_unique<ProtocolOracle>(*this, cfg_.oracleMode,
                                                   cfg_.oracleFatal);
    }
    trace_ = TraceSink::claimFromEnv();
    msgLog_ = MsgLogFilter::fromEnv();

    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        nodes_.push_back(std::make_unique<Node>(
            n, *this, shards_[shardOfNode_[n]]->eq));
        if (trace_) {
            trace_->processName(static_cast<std::int32_t>(n),
                                "node" + std::to_string(n));
        }
    }

    if (jobs > 1) {
        std::vector<EventQueue *> queues;
        queues.reserve(jobs);
        for (auto &sh : shards_)
            queues.push_back(&sh->eq);
        net_->configureSharding(std::move(queues), shardOfNode_);
        for (std::uint32_t s = 0; s < jobs; ++s) {
            shards_[s]->eq.setSnapshotLog(&shards_[s]->snapLog);
#ifndef NDEBUG
            shards_[s]->eq.setOwnerShard(s);
#endif
        }
        workers_ = std::make_unique<ShardWorkers>(jobs);
    }
    // Each processor's sync rank starts at its id (programs start in
    // processor order); grants hand out fresh ranks from here up.
    nextSyncRank_ = numProcs();
}

Machine::~Machine()
{
    if (trace_) {
        trace_->write();
        inform("PRISM_TRACE: wrote %zu events to %s",
               trace_->eventCount(), trace_->path().c_str());
    }
}

void
Machine::route(Msg &&m)
{
    prism_assert(m.dst < nodes_.size(), "message to unknown node");
    // route() always runs on the *source* node's shard (Kernel::send
    // and CoherenceController::send stamp src = self), so the source
    // shard's pool, ring and clock are the right ones.  Boxes are
    // freed by the destination shard and so migrate between pools;
    // totals are conserved and each pool is only ever touched by its
    // owning shard's thread.
    MachineShard &ssh = *shards_[shardOfNode_[m.src]];
    Msg *boxed;
    if (ssh.msgPool.empty()) {
        boxed = new Msg(std::move(m));
    } else {
        boxed = ssh.msgPool.back().release();
        ssh.msgPool.pop_back();
        *boxed = std::move(m);
    }
    auto &dst_pool = shards_[shardOfNode_[boxed->dst]]->msgPool;
    // The box travels inside the callback as a unique_ptr so that a
    // queue destroyed with deliveries still pending frees it.
    auto deliver = [this, &dst_pool,
                    owned = std::unique_ptr<Msg>(boxed)]() mutable {
        Msg &msg = *owned;
        nodes_[msg.dst]->receive(msg);
        msg.payload.reset(); // drop bulk payloads promptly
        dst_pool.push_back(std::move(owned));
    };
    static_assert(sizeof(deliver) <= EventQueue::Callback::kCapacity,
                  "route() delivery capture outgrew the event-callback "
                  "inline buffer; bump kEventCallbackBytes");
    // Always-on last-N message history (a few plain stores per
    // message); the oracle's violation dump reads it too.
    ssh.msgRing.push(TraceEvent{ssh.eq.now(), boxed->gpage,
                                boxed->lineIdx,
                                static_cast<std::uint16_t>(boxed->type),
                                static_cast<std::uint16_t>(boxed->src),
                                static_cast<std::uint16_t>(boxed->dst)});
    if (trace_) {
        trace_->instant(enumName(boxed->type), "msg",
                        static_cast<std::int32_t>(boxed->dst),
                        static_cast<std::int32_t>(boxed->lineIdx),
                        ssh.eq.now());
    }
    net_->send(boxed->src, boxed->dst, boxed->sizeClass(),
               std::move(deliver));
}

std::uint64_t
Machine::shmget(std::uint64_t key, std::uint64_t bytes)
{
    const std::uint64_t gsid = ipc_.shmget(key, bytes);
    if (refSink_)
        refSink_->segGet(key, bytes, gsid);
    return gsid;
}

void
Machine::shmatAll(std::uint64_t vsid, std::uint64_t gsid)
{
    if (refSink_)
        refSink_->segAttach(vsid, gsid);
    for (auto &n : nodes_)
        n->kernel().bindSegment(vsid, gsid);
}

void
Machine::setRefSink(RefSink *s)
{
    refSink_ = s;
    for (ProcId p = 0; p < numProcs(); ++p)
        proc(p).setRefSink(s);
}

void
Machine::run(const std::function<CoTask(Proc &)> &make)
{
    const std::uint32_t n = numProcs();
    std::vector<CoTask> tasks;
    tasks.reserve(n);
    for (ProcId p = 0; p < n; ++p)
        tasks.push_back(make(proc(p)));

    // Each program starts as an event on its own shard (its first
    // steps touch node state, so they must run in shard context), in
    // global processor order, at the machine's clock: the latest
    // shard clock, which a previous run may have left apart.
    Tick start = 0;
    for (auto &sh : shards_) {
        sh->done = 0;
        sh->lastDone = 0;
        start = std::max(start, sh->eq.now());
    }
    for (ProcId p = 0; p < n; ++p) {
        MachineShard &sh =
            *shards_[shardOfNode_[p / cfg_.procsPerNode]];
        sh.eq.schedule(start, [&t = tasks[p], &sh] {
            t.start([&sh] {
                ++sh.done;
                sh.lastDone = sh.eq.now();
            });
        });
    }
    drain();
    std::uint32_t done = 0;
    for (const auto &sh : shards_)
        done += sh->done;
    prism_assert(done == n,
                 "event queues drained with %u of %u programs "
                 "unfinished", n - done, n);
    if (oracle_)
        oracle_->sweepQuiescent();
}

Tick
Machine::parallelEndTick() const
{
    if (end_.set)
        return end_.tick;
    Tick last = 0;
    for (const auto &sh : shards_)
        last = std::max(last, sh->lastDone);
    return last;
}

void
Machine::drain()
{
    if (shards_.size() > 1) {
        runShardedLoop();
        return;
    }
    shards_[0]->eq.runAll();
}

void
Machine::runShardWindow(std::uint32_t s)
{
#ifndef NDEBUG
    EventQueue::threadShard() = s;
#endif
    MachineShard &sh = *shards_[s];
    const Tick limit = windowLimit_;
    while (!sh.markHit && sh.eq.nextEventTick() < limit)
        sh.eq.runOne();
#ifndef NDEBUG
    EventQueue::threadShard() = kAnyShard;
#endif
}

std::uint32_t
Machine::shardOfQueue(const EventQueue *q) const
{
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        if (&shards_[s]->eq == q)
            return s;
    }
    panic("sync op from a queue owned by no shard");
}

bool
Machine::issueSync(const SyncOp &op)
{
    if (shards_.size() == 1)
        return applySync(op);
    MachineShard &sh = *shards_[shardOfQueue(op.q)];
    sh.syncOps.push_back(op);
    if (op.isMark())
        sh.markHit = true;
    return op.kind != SyncOp::LockRelease;
}

bool
Machine::applySync(const SyncOp &op)
{
    auto grant = [this](const SyncWaiter &w, Tick at) {
        w.actor->rank = nextSyncRank_++;
        w.q->resumeAt(at, w.h);
    };
    const SyncWaiter w{op.h, op.q, op.actor};
    switch (op.kind) {
      case SyncOp::LockAcquire:
        locks_.acquire(op.id, w, op.tick, grant);
        return true;
      case SyncOp::LockRelease:
        locks_.release(op.id, op.tick, grant);
        return false;
      case SyncOp::BarrierArrive:
        return barriers_.arrive(op.id, w, op.tick, grant);
      case SyncOp::MarkBegin:
      case SyncOp::MarkEnd:
        recordMark(op);
        return false;
    }
    panic("unhandled sync op kind %u", static_cast<unsigned>(op.kind));
}

void
Machine::runShardedLoop()
{
    const Cycles L = lookahead_;
    Tick W = 0;
    for (;;) {
        // Earliest pending event anywhere — including mark-frozen
        // shards, whose backlog must keep capping W so that every op
        // logged in a window has tick >= W (grants then land at
        // >= W + L, never in any queue's past).
        Tick min_next = kTickMax;
        for (auto &sh : shards_)
            min_next = std::min(min_next, sh->eq.nextEventTick());
        if (min_next == kTickMax) {
            if (pendingSync_.empty())
                break;
            // Runnable queues are dry but ops are still held behind an
            // unapplied mark: run an empty round to apply them.
        } else if (min_next > W) {
            W = min_next; // window advance doubles as the idle jump
        }
        windowLimit_ = W + L;

        // Serial stretches — one runnable shard (or none, while ops
        // wait behind an unapplied mark) — skip the worker round and
        // its two barrier crossings; the window runs inline on the
        // coordinator.  Which thread executes a window never affects
        // results, and the barrier crossings of neighbouring rounds
        // order the coordinator's writes against the workers'.
        std::uint32_t runnable = 0;
        std::uint32_t only = 0;
        for (std::uint32_t s = 0; s < shards_.size(); ++s) {
            if (!shards_[s]->markHit &&
                shards_[s]->eq.nextEventTick() < windowLimit_) {
                ++runnable;
                only = s;
            }
        }
        if (runnable > 1) {
            workers_->round(
                [this](std::uint32_t s) { runShardWindow(s); });
        } else if (runnable == 1) {
            runShardWindow(only);
        }

        // --- Coordinator: every shard is parked at the barrier. ------
        net_->drainShardChannel();
        net_->foldShardCounters();

        std::vector<SyncOp> ops = std::move(pendingSync_);
        pendingSync_.clear();
        for (auto &sh : shards_) {
            ops.insert(ops.end(), sh->syncOps.begin(),
                       sh->syncOps.end());
            sh->syncOps.clear();
        }
        std::sort(ops.begin(), ops.end(), SyncOp::before);

        std::size_t i = 0;
        while (i < ops.size()) {
            const SyncOp &op = ops[i++];
            applySync(op);
            if (op.isMark()) {
                // Un-truncate the marking shard and splice the
                // program's continuation back in ahead of the tick's
                // remaining events, where one shard resumes it at
                // once.  Hold every op ordered after the mark: its
                // snapshot must not see their effects, and held ops
                // re-merge (and re-sort) next round.
                shards_[shardOfQueue(op.q)]->markHit = false;
                op.q->resumeFront(op.tick, op.h);
                break;
            }
        }
        pendingSync_.assign(std::make_move_iterator(ops.begin() + i),
                            std::make_move_iterator(ops.end()));
        if (pendingSync_.empty()) {
            // No mark in flight: nothing can need a snapshot of a past
            // tick any more, so the logs can be recycled.
            for (auto &sh : shards_)
                sh->snapLog.clear();
        }
    }
    prism_assert(net_->shardTrafficQuiescent(),
                 "sharded run ended with traffic still staged");
    net_->foldShardHistograms();
}

Machine::PhaseCounts
Machine::phaseCounts() const
{
    PhaseCounts c{};
    auto add = [&c](SnapKind k, std::uint64_t v) {
        c[static_cast<std::size_t>(k)] += v;
    };
    for (const auto &node : nodes_) {
        const ControllerStats &cs = node->controller().stats();
        const KernelStats &ks = node->kernel().stats();
        add(SnapKind::RemoteMiss, cs.remoteMisses);
        add(SnapKind::Upgrade, cs.upgrades);
        add(SnapKind::InvalSent, cs.invalsSent);
        add(SnapKind::ClientPageOut, ks.clientPageOuts);
        add(SnapKind::Fault, ks.faults);
    }
    add(SnapKind::NetMsg, net_->stats().messages);
    return c;
}

void
Machine::recordMark(const SyncOp &op)
{
    const bool begin = op.kind == SyncOp::MarkBegin;
    PhaseMark &mark = begin ? begin_ : end_;
    prism_assert(!mark.set, "parallel phase %s twice",
                 begin ? "begun" : "ended");
    // The marking shard's own execution order already respects the
    // mark; every other shard may have run past its tick.
    std::uint64_t over[kSnapKinds] = {};
    const std::uint32_t ms = shardOfQueue(op.q);
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        if (s != ms)
            shards_[s]->snapLog.tallyAtOrAfter(op.tick, over);
    }
    mark.set = true;
    mark.tick = op.tick;
    mark.counts = phaseCounts();
    for (std::size_t k = 0; k < kSnapKinds; ++k) {
        prism_assert(mark.counts[k] >= over[k],
                     "snapshot adjustment underflow (%llu < %llu)",
                     static_cast<unsigned long long>(mark.counts[k]),
                     static_cast<unsigned long long>(over[k]));
        mark.counts[k] -= over[k];
    }
}

RunMetrics
Machine::metrics() const
{
    RunMetrics m;
    const Tick begin = begin_.tick;
    const Tick end = parallelEndTick();
    const PhaseCounts e = end_.set ? end_.counts : phaseCounts();
    auto phase = [&e, this](SnapKind k) {
        return e[std::size_t(k)] - begin_.counts[std::size_t(k)];
    };

    m.execCycles = end > begin ? end - begin : 0;
    Tick total = 0;
    for (const auto &sh : shards_)
        total = std::max(total, sh->eq.now());
    m.totalCycles = total;
    m.remoteMisses = phase(SnapKind::RemoteMiss);
    m.upgrades = phase(SnapKind::Upgrade);
    m.invalidations = phase(SnapKind::InvalSent);
    m.clientPageOuts = phase(SnapKind::ClientPageOut);
    m.pageFaults = phase(SnapKind::Fault);
    m.networkMessages = phase(SnapKind::NetMsg);

    // Whole-run totals, read from the same fields the report shows.
    std::uint64_t util_frames = 0;
    double util_weighted = 0.0;
    for (const auto &node : nodes_) {
        const ControllerStats &cs = node->controller().stats();
        m.migrations += cs.migrationsOut;
        m.forwards += cs.forwards;
        for (std::uint32_t p = 0; p < node->numProcs(); ++p) {
            const ProcStats &ps = node->proc(p).stats();
            m.references += ps.loads + ps.stores;
        }
        const Kernel &k = node->kernel();
        m.framesAllocated += k.realFramesPeak();
        m.clientScomaPeakPerNode.push_back(k.clientScomaPeak());
        util_frames += k.realFramesCumulative();
        util_weighted += k.averageUtilization() *
                         static_cast<double>(k.realFramesCumulative());
    }
    m.avgUtilization =
        util_frames ? util_weighted / static_cast<double>(util_frames)
                    : 0.0;
    return m;
}

void
Machine::visitMetrics(MetricVisitor &v) const
{
    for (NodeId n = 0; n < numNodes(); ++n) {
        Node &node = *nodes_[n];
        const auto id = static_cast<std::int32_t>(n);
        const CoherenceController &c = node.controller();
        visitTable(v, {"ctrl", id}, kControllerCounters, c.stats());
        visitTable(v, {"ctrl", id}, kControllerLatency, c.latency());
        visitTable(v, {"footprint", id}, kFootprintGauges, c);
        const Kernel &k = node.kernel();
        visitTable(v, {"kernel", id}, kKernelCounters, k.stats());
        visitTable(v, {"kernel", id}, kKernelLatency, k.latency());
        visitTable(v, {"kernel", id}, kKernelGauges, k);
        for (std::uint32_t p = 0; p < node.numProcs(); ++p) {
            visitTable(v, {"proc", id, static_cast<std::int32_t>(p)},
                       kProcCounters, node.proc(p).stats());
        }
    }
    visitTable(v, {"net"}, kNetCounters, net_->stats());
    visitTable(v, {"net"}, kNetLatency, net_->latency());
    if (kvLatency_)
        visitTable(v, {"workload"}, kKvLatency, *kvLatency_);
}

} // namespace prism
