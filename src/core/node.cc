#include "core/node.hh"

#include "core/machine.hh"

namespace prism {

Node::Node(NodeId id, Machine &machine, EventQueue &eq)
    : id_(id), machine_(machine), cfg_(machine.config()), eq_(eq),
      geo_(cfg_.lineBytes), proto_(lineProtocol(cfg_.protocol)),
      bus_(cfg_.busAddrCycles, cfg_.busDataCycles),
      dram_(cfg_.memAccessCycles), ctrl_(*this), kernel_(*this)
{
    for (std::uint32_t i = 0; i < cfg_.procsPerNode; ++i)
        procs_.push_back(
            std::make_unique<Proc>(id * cfg_.procsPerNode + i, *this));
}

DelayAwaiter
Node::until(Tick t)
{
    return DelayAwaiter(eq_, t > eq_.now() ? t - eq_.now() : 0);
}

void
Node::receive(Msg m)
{
    if (msgRule(m.type).kernel)
        kernel_.receive(std::move(m));
    else
        ctrl_.onMessage(std::move(m));
}

CoTask
Node::memAccess(Proc &requester, FrameNum frame, std::uint32_t line_idx,
                bool write, Mesi requester_state)
{
    const std::uint64_t line_paddr =
        (frame << kPageShift) |
        (static_cast<std::uint64_t>(line_idx) << geo_.lineShift());

    // One node-level transaction per line at a time (bus retry).
    while (busPending_.count(line_paddr))
        co_await delay(cfg_.retryDelay);
    busPending_.insert(line_paddr);
    ++busPendingByFrame_[frame];
    struct PendingGuard {
        Node &node;
        std::uint64_t key;
        FrameNum frame;
        ~PendingGuard()
        {
            node.busPending_.erase(key);
            if (--*node.busPendingByFrame_.find(frame) == 0)
                node.busPendingByFrame_.erase(frame);
        }
    } guard{*this, line_paddr, frame};

    // A store completes in the state its LocalStore cell names (an
    // upgrade) or in the write fill (a miss).
    const LineEvent snoop =
        write ? LineEvent::SnoopWrite : LineEvent::SnoopRead;
    const Mesi store_fill =
        requester_state == Mesi::Invalid
            ? proto_.writeFill()
            : proto_.on(requester_state, LineEvent::LocalStore).next;
    // A store's bus transaction invalidates the other copies here.
    auto snoopWritePeers = [&](const Proc *skip) {
        for (auto &pp : procs_) {
            if (pp.get() != &requester && pp.get() != skip)
                pp->snoopLine(line_paddr, LineEvent::SnoopWrite);
        }
    };

    for (;;) {
        // Address tenure on the split-transaction bus.
        co_await until(bus_.addressPhase(eq_.now()));

        // Peek at peer caches; their transitions apply once the data
        // phase is won.
        Proc *peer_owner = nullptr; // peer holding an owner-class state
        bool peer_dirty = false;
        bool peer_supplies = false; // a non-owner peer copy supplies
        for (auto &pp : procs_) {
            if (pp.get() == &requester)
                continue;
            const Mesi s = pp->lineState(line_paddr);
            if (ownerClass(s)) {
                peer_owner = pp.get();
                peer_dirty = dirtyLine(s);
                break;
            }
            // MESIF: plain Shared copies stay silent on a read; only
            // the Forward designee supplies cache-to-cache.
            if (s != Mesi::Invalid &&
                (proto_.on(s, snoop).actions & kActSupplyData))
                peer_supplies = true;
        }

        // NOTE on ordering: every fill below charges the bus data
        // phase FIRST and then revalidates (fine-grain tag, fill
        // token, or peer re-snoop) immediately before fillLine with
        // no suspension in between, so a racing invalidation or
        // intervention can never slip between validation and fill.
        if (write) {
            // A store from an owner-class state that still needs the
            // bus (MOESI Owned) completes with the local address
            // tenure alone: Owned arises only from an intra-node snoop
            // read of Modified, so every other copy is on this bus and
            // no directory round trip is needed.  The state is
            // re-checked here (atomically with the upgrade: no
            // suspension below) in case a remote intervention
            // downgraded it while we waited for the bus.
            if (ownerClass(requester_state) &&
                requester.lineState(line_paddr) == requester_state) {
                snoopWritePeers(nullptr);
                requester.fillLine(line_paddr, store_fill);
                co_return;
            }
            if (peer_owner) {
                // Cache-to-cache transfer with invalidation; the node
                // already has exclusivity at the inter-node level.
                co_await delay(cfg_.cacheToCache);
                co_await until(bus_.dataPhase(eq_.now()));
                const Proc::Snoop cur =
                    peer_owner->snoopLine(line_paddr, LineEvent::SnoopWrite);
                if (!ownerClass(cur.prior)) {
                    // The copy vanished or was downgraded by a racing
                    // remote intervention: node exclusivity is gone.
                    co_await delay(cfg_.retryDelay);
                    continue;
                }
                // An Owned peer coexists with Shared copies: sweep
                // the remaining peers too (no-op under MESI, where an
                // owner excludes every other copy).
                snoopWritePeers(peer_owner);
                requester.fillLine(line_paddr, store_fill);
                co_return;
            }
            // A supplying copy here means the controller only has to
            // obtain permission (an Upgrade), not data.
            const bool local_copy =
                requester_state != Mesi::Invalid || peer_supplies;
            MissResult res;
            co_await ctrl_.serviceMiss(frame, line_idx, true, local_copy,
                                       &res);
            if (res.source == MissSource::BadFrame)
                co_return; // caller re-translates and re-faults
            if (res.source == MissSource::Retry) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            co_await until(bus_.dataPhase(eq_.now()));
            if (!ctrl_.finishFill(frame, line_idx, store_fill)) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            snoopWritePeers(nullptr);
            requester.fillLine(line_paddr, store_fill);
            co_return;
        }

        // Read path.
        if (peer_owner) {
            co_await delay(cfg_.cacheToCache);
            co_await until(bus_.dataPhase(eq_.now()));
            const Proc::Snoop cur =
                peer_owner->snoopLine(line_paddr, LineEvent::SnoopRead);
            if (cur.prior == Mesi::Invalid) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            if (ownerClass(cur.prior)) {
                // Relinquish node ownership / reflect dirty data as
                // the supplier's transition demands.  MOESI's M->O
                // retains both the dirty data and node ownership, so
                // nothing reaches the controller.
                ctrl_.lineActions(frame, line_idx, cur.actions);
            } else {
                // A racing remote intervention already downgraded the
                // copy; reflect any dirty data it held at snoop time.
                ctrl_.lineActions(frame, line_idx,
                                  kActRelinquish |
                                      (peer_dirty ? kActWritebackData : 0));
            }
            requester.fillLine(line_paddr, proto_.peerReadFill());
            co_return;
        }
        if (peer_supplies) {
            // A supply-capable node-level copy exists; supply locally,
            // unless a racing invalidation removed it meanwhile.
            co_await delay(cfg_.cacheToCache);
            co_await until(bus_.dataPhase(eq_.now()));
            bool still_valid = false;
            for (auto &pp : procs_) {
                if (pp.get() == &requester)
                    continue;
                if (pp->snoopLine(line_paddr, LineEvent::SnoopRead).actions &
                    kActSupplyData) {
                    still_valid = true;
                    break;
                }
            }
            if (!still_valid) {
                co_await delay(cfg_.retryDelay);
                continue;
            }
            requester.fillLine(line_paddr, proto_.peerReadFill());
            co_return;
        }
        MissResult res;
        co_await ctrl_.serviceMiss(frame, line_idx, false, false, &res);
        if (res.source == MissSource::BadFrame)
            co_return; // caller re-translates and re-faults
        if (res.source == MissSource::Retry) {
            co_await delay(cfg_.retryDelay);
            continue;
        }
        const Mesi grant = proto_.readFill(res.exclusive);
        co_await until(bus_.dataPhase(eq_.now()));
        if (!ctrl_.finishFill(frame, line_idx, grant)) {
            co_await delay(cfg_.retryDelay);
            continue;
        }
        requester.fillLine(line_paddr, grant);
        // MSI has no clean-exclusive state: give an exclusive grant's
        // node-level ownership straight back to the home, else the
        // directory would hold this node as Owner of a line every
        // local cache thinks is merely Shared (and could drop
        // silently).
        if (res.exclusive && proto_.demoteExclusiveReadGrant())
            ctrl_.lineActions(frame, line_idx, kActRelinquish);
        co_return;
    }
}

InterventionResult
Node::intervene(FrameNum frame, std::uint32_t line_idx, LineEvent ev,
                Tick at)
{
    const std::uint64_t line_paddr =
        (frame << kPageShift) |
        (static_cast<std::uint64_t>(line_idx) << geo_.lineShift());
    std::uint8_t actions = 0;
    for (auto &p : procs_)
        actions |= p->snoopLine(line_paddr, ev).actions;
    Tick done = bus_.addressPhase(at);
    if (actions & kActWritebackData)
        done = bus_.dataPhase(done); // dirty data crosses the bus
    return InterventionResult{done, actions};
}

bool
Node::anyBusPending(FrameNum frame) const
{
    return busPendingByFrame_.count(frame) != 0;
}

bool
Node::anyCachedCopy(FrameNum frame) const
{
    for (const auto &p : procs_) {
        Proc &proc = *p; // cache accessors are non-const
        if (proc.l2().anyInFrame(frame) || proc.l1().anyInFrame(frame))
            return true;
    }
    return false;
}

Mesi
Node::heldCopy(FrameNum frame, std::uint32_t line_idx) const
{
    const std::uint64_t line_paddr =
        (frame << kPageShift) |
        (static_cast<std::uint64_t>(line_idx) << geo_.lineShift());
    Mesi held = Mesi::Invalid;
    for (const auto &p : procs_)
        held = strongerLine(held, p->lineState(line_paddr));
    return held;
}

void
Node::shootdown(VPage vp)
{
    for (auto &p : procs_)
        p->shootdown(vp);
}

void
Node::invalidateFrame(FrameNum frame)
{
    for (auto &p : procs_)
        p->invalidateFrame(frame);
}

} // namespace prism
