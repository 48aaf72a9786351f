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
 * It is also the
 * ControllerHost through which the coherence controller intervenes in
 * processor caches and cooperates with the kernel for migration.
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
class Node : public ControllerHost
{
  public:
    Node(NodeId id, const MachineConfig &cfg, EventQueue &eq,
         Machine &machine, IpcServer &ipc,
         std::function<NodeId(GPage)> static_home_of,
         std::function<void(Msg &&)> send);

    NodeId id() const { return id_; }
    Kernel &kernel() { return *kernel_; }
    CoherenceController &controller() { return *ctrl_; }
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

    // --- ControllerHost ---------------------------------------------------

    InterventionResult intervene(FrameNum frame, std::uint32_t line_idx,
                                 LineEvent ev, Tick at) override;
    bool anyBusPending(FrameNum frame) const override;
    bool anyCachedCopy(FrameNum frame) const override;
    Mesi heldCopy(FrameNum frame, std::uint32_t line_idx) const override;
    FrameNum migrationAllocFrame(GPage gp) override;
    void migrationFreeFrame(FrameNum frame, GPage gp) override;
    void homeKernelAdopt(GPage gp) override;

  private:
    DelayAwaiter delay(Cycles c) { return DelayAwaiter(eq_, c); }
    DelayAwaiter until(Tick t);

    NodeId id_;
    const MachineConfig &cfg_;
    EventQueue &eq_;
    LineGeometry geo_;
    const LineProtocol &proto_;
    MemoryBus bus_;
    Dram dram_;
    std::unique_ptr<Kernel> kernel_;
    std::unique_ptr<CoherenceController> ctrl_;
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
