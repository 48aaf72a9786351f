/**
 * @file
 * One PRISM compute node: four processors, a split-transaction memory
 * bus, local memory, an independent OS kernel, and the coherence
 * controller sitting between the bus and the network interface.
 *
 * Node implements the intra-node snooping protocol (peer caches
 * supply and downgrade/invalidate each other over the bus): every
 * peer transition and store completion reads the configured
 * line-protocol table (coherence/line_protocol: MSI/MESI/MOESI/MESIF).
 *
 * Each part holds its Node and reaches the others directly: the
 * controller intervenes in the processor caches through the node and
 * hands page frames to and from the kernel for migration, the kernel
 * programs the controller's PIT and shoots down the node's TLBs and
 * cache lines, and every processor misses into memAccess.  Parts are
 * built in that order (controller, kernel, processors), each reading
 * what it uses of the machine's oracle, trace sink and message-log
 * filter once, in its constructor.
 */

#ifndef PRISM_CORE_NODE_HH
#define PRISM_CORE_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/controller.hh"
#include "coherence/line_protocol.hh"
#include "core/config.hh"
#include "core/proc.hh"
#include "mem/bus.hh"
#include "mem/dram.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/task.hh"

namespace prism {

class Machine;

/** One compute node. */
class Node
{
  public:
    /** A node of @p machine whose events run on @p eq (its shard's). */
    Node(NodeId id, Machine &machine, EventQueue &eq);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    NodeId id() const { return id_; }
    Machine &machine() { return machine_; }
    const MachineConfig &config() const { return cfg_; }
    EventQueue &eventQueue() { return eq_; }
    Kernel &kernel() { return kernel_; }
    CoherenceController &controller() { return ctrl_; }
    MemoryBus &bus() { return bus_; }
    Dram &dram() { return dram_; }
    Proc &proc(std::uint32_t i) { return *procs_[i]; }
    std::uint32_t numProcs() const
    {
        return static_cast<std::uint32_t>(procs_.size());
    }

    /** Deliver a network message to this node. */
    void receive(Msg m);

    /**
     * Service an access that missed in @p requester's caches (or
     * needs an upgrade).  Arbitrates the bus, snoops peer caches,
     * consults the coherence controller as needed, and fills the
     * requester's caches before returning.
     *
     * @param requester_state  merged L1/L2 state the requester held
     *        going in (Shared/Owned/Forward on write upgrades,
     *        Invalid on misses)
     */
    CoTask memAccess(Proc &requester, FrameNum frame,
                     std::uint32_t line_idx, bool write,
                     Mesi requester_state);

    // --- Controller side ------------------------------------------------

    /**
     * Raise @p ev (RemoteRead, Inval or Evict) on every local
     * processor copy of a line of @p frame; each copy moves as the
     * line table says.  Dirty data, if any, crosses the bus.
     */
    InterventionResult intervene(FrameNum frame, std::uint32_t line_idx,
                                 LineEvent ev, Tick at);

    /**
     * True while any node-level bus transaction (miss, upgrade or
     * cache-to-cache fill) is outstanding on a line of @p frame.
     * Page flushes must wait for these to drain.
     */
    bool anyBusPending(FrameNum frame) const;

    /** True if any local processor cache holds a line of @p frame. */
    bool anyCachedCopy(FrameNum frame) const;

    /**
     * The strongest state any local processor cache holds this line
     * in (Invalid: none), without touching the caches.  It is the
     * LA-NUMA client view (client_protocol.hh), and it decides whether
     * a dirty eviction's writeback keeps the node registered as a
     * sharer (MOESI: peer Shared copies can outlive the Owned copy).
     */
    Mesi heldCopy(FrameNum frame, std::uint32_t line_idx) const;

    // --- Kernel side ----------------------------------------------------

    /** Invalidate @p vp in every local processor TLB. */
    void shootdown(VPage vp);

    /** Invalidate every local processor-cache line of @p frame. */
    void invalidateFrame(FrameNum frame);

  private:
    DelayAwaiter delay(Cycles c) { return DelayAwaiter(eq_, c); }
    DelayAwaiter until(Tick t);

    NodeId id_;
    Machine &machine_;
    const MachineConfig &cfg_;
    EventQueue &eq_;
    LineGeometry geo_;
    const LineProtocol &proto_;
    MemoryBus bus_;
    Dram dram_;
    CoherenceController ctrl_;
    Kernel kernel_;
    std::vector<std::unique_ptr<Proc>> procs_;

    /**
     * Bus-level MSHR: lines with an outstanding node transaction,
     * from address phase through fill.  A second miss to the same
     * line is retried (split-transaction bus retry semantics), which
     * keeps miss handling atomic with respect to local snoops.
     * busPendingByFrame_ mirrors it at frame granularity (the count
     * of the frame's lines in flight) so the kernel/controller flush
     * loops' anyBusPending() probe is O(1) instead of a scan over
     * every in-flight line.  busPending_ is a set: its values are
     * unused.
     */
    FlatMap<bool> busPending_{"bus MSHR lines"};
    FlatMap<std::uint32_t> busPendingByFrame_{"bus MSHR frames"};
};

} // namespace prism

#endif // PRISM_CORE_NODE_HH
