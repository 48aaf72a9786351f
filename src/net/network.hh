/**
 * @file
 * Interconnection network and network-interface model.
 *
 * A point-to-point fabric with a fixed one-way end-to-end latency
 * (120 processor cycles in the paper) plus per-NIC serialization:
 * each node's egress and ingress ports are FCFS resources, so bursts
 * queue.  Delivery is FIFO per (source, destination) pair, a property
 * the coherence protocol relies on (e.g. a writeback racing a fetch
 * nack from the same node).
 */

#ifndef PRISM_NET_NETWORK_HH
#define PRISM_NET_NETWORK_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace prism {

/** Size class of a network message, for occupancy accounting. */
enum class MsgSize : std::uint8_t {
    Control, //!< header-only protocol message
    Data,    //!< carries one cache line
    Page,    //!< carries a migrating page (MigrateData)
};

/** Fabric-wide traffic counters (component "net", machine-wide). */
struct NetStats {
    std::uint64_t messages = 0;
    std::uint64_t trafficProxy = 0; //!< NIC occupancy booked
};

inline constexpr CounterRow<NetStats> kNetCounters[] = {
    {"messages", "count", "messages sent through the fabric",
     &NetStats::messages},
    {"trafficProxy", "cycles", "NIC occupancy booked; proxy for bytes moved",
     &NetStats::trafficProxy},
};

/** Send-to-delivery latency per message size class. */
struct NetLatency {
    Histogram control{latencyBounds()};
    Histogram data{latencyBounds()};
    Histogram page{latencyBounds()};
};

inline constexpr HistogramRow<NetLatency> kNetLatency[] = {
    {"latency.control", "cycles", "send-to-delivery, control messages",
     &NetLatency::control},
    {"latency.data", "cycles", "send-to-delivery, line-data messages",
     &NetLatency::data},
    {"latency.page", "cycles", "send-to-delivery, page-bulk messages",
     &NetLatency::page},
};

static_assert(distinctNames(kNetCounters, kNetLatency));

/** The interconnect shared by all nodes. */
class Network
{
  public:
    struct Params {
        Cycles oneWayLatency = 120; //!< end-to-end wire+switch latency
        Cycles controlOccupancy = 8;  //!< NIC occupancy, header message
        Cycles dataOccupancy = 16;    //!< NIC occupancy, line-carrying
        Cycles pageOccupancy = 128;   //!< NIC occupancy, page-carrying
        /**
         * Schedule fuzzing: maximum extra delivery delay per message,
         * drawn deterministically from jitterSeed.  Per-(src, dst)
         * FIFO order is preserved.  0 = bit-identical to the
         * unjittered network.
         */
        Cycles jitterMax = 0;
        std::uint64_t jitterSeed = 1;
    };

    Network(EventQueue &eq, std::uint32_t num_nodes, const Params &p)
        : eq_(eq), params_(p), egress_(num_nodes), ingress_(num_nodes),
          jitterRng_(p.jitterSeed), numNodes_(num_nodes),
          lastDeliver_(p.jitterMax ? num_nodes * num_nodes : 0)
    {
    }

    /**
     * Send a message; @p deliver runs at the destination's receive
     * time.  @p src == @p dst is legal (loopback, zero wire latency but
     * still NIC occupancy) and used by home nodes messaging themselves
     * through the uniform protocol path.
     */
    template <typename F>
    void
    send(NodeId src, NodeId dst, MsgSize size, F &&deliver)
    {
        if (sharded_) {
            sendSharded(src, dst, size,
                        EventQueue::Callback(std::forward<F>(deliver)));
            return;
        }
        const Cycles occ = occupancy(size);
        ++stats_.messages;
        stats_.trafficProxy += occ;
        Tick out_done = egress_[src].acquire(eq_.now(), occ) + occ;
        Tick wire = (src == dst) ? 0 : params_.oneWayLatency;
        Tick in_start = ingress_[dst].acquire(out_done + wire, occ);
        Tick at = in_start + occ;
        if (params_.jitterMax) {
            at += jitterRng_.below(params_.jitterMax + 1);
            // Clamp to strictly increasing per (src, dst): the event
            // queue does not promise stable ordering of equal ticks,
            // and the protocol relies on pairwise FIFO delivery.
            Tick &last = lastDeliver_[src * numNodes_ + dst];
            if (at <= last)
                at = last + 1;
            last = at;
        }
        delivery(size).sample(at - eq_.now());
        eq_.schedule(at, std::forward<F>(deliver));
    }

    /** Latency a message of @p size would see with no contention. */
    Cycles
    uncontendedLatency(MsgSize size, bool loopback = false) const
    {
        return 2 * occupancy(size) + (loopback ? 0 : params_.oneWayLatency);
    }

    const NetStats &stats() const { return stats_; }
    const NetLatency &latency() const { return latency_; }

    const Params &params() const { return params_; }

    // --- Sharded mode (sim/shard.hh) ----------------------------------
    //
    // With intra-run sharding every send is decomposed: the egress NIC
    // is booked synchronously on the source shard (it owns the source
    // node), and the ingress side becomes a time-stamped entry that a
    // per-destination "pump" books in (arrival, source, sequence)
    // order — same-shard entries are enqueued directly, cross-shard
    // entries travel through the staging channel and are enqueued by
    // the coordinator at the window barrier.  Booking in arrival order
    // (instead of global send order, which no shard can observe) is
    // the one modeling difference from the sequential path: it only
    // matters when ingress bookings overlap under congestion, where
    // the two orders are different valid serializations of the same
    // queueing model.  Sharded runs are therefore deterministic and
    // shard-count-invariant but not byte-identical to `--jobs-intra
    // 1`; the measured deltas are documented in docs/PERFORMANCE.md
    // ("Sharded scheduler").  Jitter requires the sequential scheduler
    // (Machine falls back and says so).

    /** One in-flight message on the sharded ingress path. */
    struct ShardEntry {
        Tick sendTick;
        Tick arrival; //!< egress done + wire; ingress booking key
        NodeId src;
        NodeId dst;
        std::uint8_t sizeIdx; //!< MsgSize as an index
        std::uint64_t srcSeq; //!< per-source send sequence (FIFO key)
        EventQueue::Callback deliver;
    };

    /**
     * Enable the sharded send path.  @p queues maps shard -> event
     * queue, @p shard_of maps node -> shard.  Must be called before
     * any traffic; the sequential path is bit-identical when this is
     * never called.
     */
    void
    configureSharding(std::vector<EventQueue *> queues,
                      std::vector<std::uint32_t> shard_of)
    {
        sharded_ = true;
        shardQueues_ = std::move(queues);
        shardOfNode_ = std::move(shard_of);
        channel_.reset(static_cast<unsigned>(shardQueues_.size()));
        sendSeq_.assign(numNodes_, 0);
        pumps_.resize(numNodes_);
        tallies_.clear();
        tallies_.reserve(shardQueues_.size());
        for (std::size_t s = 0; s < shardQueues_.size(); ++s)
            tallies_.emplace_back();
    }

    /** Coordinator: move staged cross-shard entries into their pumps. */
    void
    drainShardChannel()
    {
        channel_.drain([this](ShardEntry &&e) {
            EventQueue &dq = *shardQueues_[shardOfNode_[e.dst]];
            enqueuePump(std::move(e), dq);
        });
    }

    /**
     * Coordinator: fold per-shard message/traffic tallies into the
     * fabric's counters (kept exact at every window barrier so
     * parallel-phase snapshots see current totals).
     */
    void
    foldShardCounters()
    {
        for (ShardTally &t : tallies_) {
            stats_.messages += t.messages;
            stats_.trafficProxy += t.traffic;
            t.messages = 0;
            t.traffic = 0;
        }
    }

    /** Coordinator: fold per-shard latency histograms (run end). */
    void
    foldShardHistograms()
    {
        for (ShardTally &t : tallies_) {
            latency_.control.merge(t.hist[0]);
            latency_.data.merge(t.hist[1]);
            latency_.page.merge(t.hist[2]);
            for (Histogram &h : t.hist)
                h = Histogram(latencyBounds());
        }
    }

    /** True when no staged or pump-pending entries remain. */
    bool
    shardTrafficQuiescent() const
    {
        if (!channel_.empty())
            return false;
        for (const Pump &p : pumps_) {
            if (!p.heap.empty())
                return false;
        }
        return true;
    }

  private:
    void
    sendSharded(NodeId src, NodeId dst, MsgSize size,
                EventQueue::Callback deliver)
    {
        const Cycles occ = occupancy(size);
        const std::uint32_t ss = shardOfNode_[src];
        EventQueue &sq = *shardQueues_[ss];
        ShardTally &ty = tallies_[ss];
        ++ty.messages;
        ty.traffic += occ;
        sq.snapNote(SnapKind::NetMsg);
        const Tick out_done = egress_[src].acquire(sq.now(), occ) + occ;
        const Tick wire = (src == dst) ? 0 : params_.oneWayLatency;
        ShardEntry e{sq.now(),
                     out_done + wire,
                     src,
                     dst,
                     static_cast<std::uint8_t>(size),
                     sendSeq_[src]++,
                     std::move(deliver)};
        const std::uint32_t ds = shardOfNode_[dst];
        if (ds == ss)
            enqueuePump(std::move(e), sq);
        else
            channel_.lane(ss, ds).push_back(std::move(e));
    }

    /** Later-than order for the pump min-heap (std::push_heap). */
    static bool
    pumpAfter(const ShardEntry &a, const ShardEntry &b)
    {
        if (a.arrival != b.arrival)
            return a.arrival > b.arrival;
        if (a.src != b.src)
            return a.src > b.src;
        return a.srcSeq > b.srcSeq;
    }

    /**
     * Queue @p e on its destination pump and schedule a pump event at
     * its arrival tick.  Called from the destination's own shard for
     * same-shard traffic, and from the coordinator (between windows)
     * for cross-shard traffic — by then the arrival is at or beyond
     * the next window start, so the booking order below is complete.
     */
    void
    enqueuePump(ShardEntry &&e, EventQueue &dq)
    {
        const Tick arrival = e.arrival;
        const NodeId dst = e.dst;
        auto &h = pumps_[dst].heap;
        h.push_back(std::move(e));
        std::push_heap(h.begin(), h.end(), pumpAfter);
        dq.schedule(arrival, [this, dst] { pumpNode(dst); });
    }

    /**
     * Book every entry that has arrived at @p dst's NIC, in (arrival,
     * source, sequence) order — deterministic for any shard count, and
     * FIFO per (src, dst) because egress serialization makes arrivals
     * strictly increasing per source.  Runs on @p dst's shard.
     */
    void
    pumpNode(NodeId dst)
    {
        auto &h = pumps_[dst].heap;
        EventQueue &dq = *shardQueues_[shardOfNode_[dst]];
        const Tick now = dq.now();
        while (!h.empty() && h.front().arrival <= now) {
            std::pop_heap(h.begin(), h.end(), pumpAfter);
            ShardEntry e = std::move(h.back());
            h.pop_back();
            const Cycles occ =
                occupancy(static_cast<MsgSize>(e.sizeIdx));
            const Tick at = ingress_[dst].acquire(e.arrival, occ) + occ;
            tallies_[shardOfNode_[dst]].hist[e.sizeIdx].sample(
                at - e.sendTick);
            dq.schedule(at, std::move(e.deliver));
        }
    }

    /** Per-shard counter/histogram staging (folded at barriers). */
    struct ShardTally {
        std::uint64_t messages = 0;
        std::uint64_t traffic = 0;
        std::vector<Histogram> hist{Histogram(latencyBounds()),
                                    Histogram(latencyBounds()),
                                    Histogram(latencyBounds())};
    };

    /** Arrival-ordered pending entries for one destination NIC. */
    struct Pump {
        std::vector<ShardEntry> heap;
    };

    Cycles
    occupancy(MsgSize size) const
    {
        switch (size) {
          case MsgSize::Control: return params_.controlOccupancy;
          case MsgSize::Data: return params_.dataOccupancy;
          case MsgSize::Page: return params_.pageOccupancy;
        }
        return params_.controlOccupancy;
    }

    Histogram &
    delivery(MsgSize size)
    {
        switch (size) {
          case MsgSize::Control: return latency_.control;
          case MsgSize::Data: return latency_.data;
          case MsgSize::Page: return latency_.page;
        }
        return latency_.control;
    }

    EventQueue &eq_;
    Params params_;
    std::vector<FcfsResource> egress_;
    std::vector<FcfsResource> ingress_;
    Rng jitterRng_;
    std::uint32_t numNodes_;
    /** Last delivery tick per (src, dst); empty when jitter is off. */
    std::vector<Tick> lastDeliver_;

    // Sharded-mode state (unused, empty, in sequential mode).
    bool sharded_ = false;
    std::vector<EventQueue *> shardQueues_;
    std::vector<std::uint32_t> shardOfNode_;
    ShardChannel<ShardEntry> channel_;
    std::vector<std::uint64_t> sendSeq_;
    std::vector<Pump> pumps_;
    std::vector<ShardTally> tallies_;

    NetStats stats_;
    NetLatency latency_;
};

} // namespace prism

#endif // PRISM_NET_NETWORK_HH
