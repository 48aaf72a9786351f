#include "core/proc.hh"

#include "check/oracle.hh"
#include "core/machine.hh"
#include "core/node.hh"

namespace prism {

Proc::Proc(ProcId id, Node &node)
    : id_(id), node_(node), machine_(node.machine()),
      oracle_(machine_.oracle()), cfg_(node.config()),
      eq_(node.eventQueue()), geo_(cfg_.lineBytes),
      proto_(lineProtocol(cfg_.protocol)),
      l1_(cfg_.l1Bytes, cfg_.l1Assoc, cfg_.lineBytes),
      l2_(cfg_.l2Bytes, cfg_.l2Assoc, cfg_.lineBytes),
      tlb_(cfg_.tlbEntries)
{
    actor_.rank = id;
}

Tick
Proc::localNow() const
{
    return eq_.now() + pendingCycles_;
}

bool
Proc::tryFastAccess(VAddr va, bool write)
{
    if (write)
        ++stats_.stores;
    else
        ++stats_.loads;
    pendingCycles_ += 1; // issue
    if (pendingCycles_ >= cfg_.runAheadQuantum)
        return false; // bound local-clock skew; yield via the slow path
    return fastCore(va, write);
}

bool
Proc::fastCore(VAddr va, bool write)
{
    // Translate.
    const VPage vp = va.page();
    FrameNum frame;
    if (vp == lastVPage_) {
        frame = lastFrame_;
    } else {
        frame = tlb_.lookup(vp);
        if (frame == kInvalidFrame) {
            const Pte *pte = node_.kernel().pageTable().lookup(vp);
            if (!pte)
                return false; // page fault
            pendingCycles_ += cfg_.tlbRefill;
            ++stats_.tlbRefills;
            tlb_.insert(vp, pte->frame);
            frame = pte->frame;
        }
        lastVPage_ = vp;
        lastFrame_ = frame;
    }
    const std::uint64_t paddr = (frame << kPageShift) | va.offset();
    const std::uint64_t la =
        paddr & ~static_cast<std::uint64_t>(cfg_.lineBytes - 1);

    // Batched commit: a repeat hit on the last-committed L1 line needs
    // no tag probe and no LRU update (the line is already MRU), only
    // stats and the oracle hook.
    if (la == fastLineAddr_ && (!write || fastLineWritable_)) {
        ++stats_.l1Hits;
        if (oracle_)
            oracle_->onAccessCommit(node_.id(), id_, frame, paddr,
                                    write);
        return true;
    }

    // L1.  A load hit never changes a valid line; a store follows the
    // line's LocalStore cell.
    const Mesi s1 = l1_.lookup(paddr);
    if (s1 != Mesi::Invalid) {
        const Transition &t = proto_.on(s1, LineEvent::LocalStore);
        if (write && (t.actions & kActNeedsBus))
            return false; // upgrade on the node bus
        if (write && t.next != s1) {
            // Silent upgrade.  No touch here (matching the original
            // model), so the line may not be MRU: leave the commit
            // cache alone.
            l1_.setState(paddr, t.next);
        } else {
            l1_.touch(paddr);
            fastLineAddr_ = la;
            fastLineWritable_ = proto_.storeInPlace(s1);
        }
        ++stats_.l1Hits;
        if (oracle_)
            oracle_->onAccessCommit(node_.id(), id_, frame, paddr, write);
        return true;
    }

    // L2.  A store hit updates the L2 state without a touch.
    const Mesi s2 = l2_.lookup(paddr);
    if (s2 == Mesi::Invalid)
        return false;
    const Transition &t = proto_.on(s2, LineEvent::LocalStore);
    if (write && (t.actions & kActNeedsBus))
        return false; // upgrade on the node bus
    const Mesi fill = write ? t.next : s2;
    if (write)
        l2_.setState(paddr, fill);
    else
        l2_.touch(paddr);
    pendingCycles_ += cfg_.l2HitLatency - 1;
    ++stats_.l2Hits;
    insertL1(paddr, fill);
    fastLineAddr_ = la;
    fastLineWritable_ = proto_.storeInPlace(fill);
    if (oracle_)
        oracle_->onAccessCommit(node_.id(), id_, frame, paddr, write);
    return true;
}

void
Proc::insertL1(std::uint64_t line_paddr, Mesi state)
{
    // The insert reorders the set's LRU stack; callers that want the
    // commit cache re-arm it for the inserted line themselves.
    clearFastLine();
    auto victim = l1_.insert(line_paddr, state);
    if (victim && dirtyLine(victim->state)) {
        // Fold the dirty L1 victim into the (inclusive) L2 copy.
        if (l2_.contains(victim->lineAddr)) {
            l2_.setState(victim->lineAddr,
                         strongerLine(victim->state,
                                      l2_.lookup(victim->lineAddr)));
        } else {
            evict(victim->lineAddr, victim->state);
        }
    }
}

void
Proc::fillLine(std::uint64_t line_paddr, Mesi state)
{
    auto victim = l2_.insert(line_paddr, state);
    if (victim) {
        // Inclusion: the L1 copy of the victim must go too.
        clearFastLine();
        Mesi s1 = l1_.invalidate(victim->lineAddr);
        evict(victim->lineAddr, strongerLine(s1, victim->state));
    }
    insertL1(line_paddr, state);
}

void
Proc::evict(std::uint64_t line_paddr, Mesi state)
{
    node_.controller().lineActions(
        line_paddr >> kPageShift, geo_.lineIndex(line_paddr),
        proto_.on(state, LineEvent::Evict).actions);
}

FireAndForget
Proc::slowAccess(VAddr va, bool write, std::coroutine_handle<> caller)
{
    co_await flushTime();
    for (;;) {
        if (fastCore(va, write))
            break;
        co_await flushTime();

        // Translation present?
        const VPage vp = va.page();
        FrameNum frame = tlb_.lookup(vp);
        if (frame == kInvalidFrame) {
            const Pte *pte = node_.kernel().pageTable().lookup(vp);
            if (!pte) {
                ++stats_.pageFaults;
                FrameNum f = kInvalidFrame;
                co_await node_.kernel().handleFault(vp, &f);
                // A page-out can slip in between the fault completing
                // and this coroutine resuming: its TLB shootdown has
                // already run, so installing the returned frame now
                // would revive a dead translation.  Only install what
                // the page table still holds.
                const Pte *now = node_.kernel().pageTable().lookup(vp);
                if (now && now->frame == f) {
                    tlb_.insert(vp, f);
                    lastVPage_ = vp;
                    lastFrame_ = f;
                }
                continue;
            }
            pendingCycles_ += cfg_.tlbRefill;
            ++stats_.tlbRefills;
            tlb_.insert(vp, pte->frame);
            frame = pte->frame;
            lastVPage_ = vp;
            lastFrame_ = frame;
            co_await flushTime();
        }

        const std::uint64_t paddr = (frame << kPageShift) | va.offset();
        const std::uint32_t line_idx = geo_.lineIndex(paddr);
        // The merged state we hold going in: under MESI this can only
        // be Shared (owner-state hits commit in fastCore), but Owned
        // and Forward writes also reach here needing an upgrade.
        const Mesi held = lineState(paddr);
        if (held != Mesi::Invalid && write)
            ++stats_.upgradesLocal;
        else
            ++stats_.l2Misses;
        co_await node_.memAccess(*this, frame, line_idx, write, held);
        // Loop: the fill (or a racing invalidation) is re-checked.
    }
    caller.resume();
}

Proc::Snoop
Proc::snoopLine(std::uint64_t line_paddr, LineEvent ev)
{
    const Mesi s1 = l1_.lookup(line_paddr);
    const Mesi s2 = l2_.lookup(line_paddr);
    const Mesi merged = strongerLine(s1, s2);
    if (merged == Mesi::Invalid)
        return Snoop{};
    if (line_paddr == fastLineAddr_)
        clearFastLine();
    const Transition &t = proto_.on(merged, ev);
    if (t.next == Mesi::Invalid) {
        l1_.invalidate(line_paddr);
        l2_.invalidate(line_paddr);
    } else if (t.next != merged) {
        if (s1 != Mesi::Invalid)
            l1_.setState(line_paddr, t.next);
        if (s2 != Mesi::Invalid)
            l2_.setState(line_paddr, t.next);
    }
    return Snoop{merged, t.actions};
}

void
Proc::invalidateFrame(FrameNum frame)
{
    l1_.invalidateFrame(frame);
    l2_.invalidateFrame(frame);
    if (lastFrame_ == frame) {
        lastVPage_ = ~0ULL;
        lastFrame_ = kInvalidFrame;
    }
    if ((fastLineAddr_ >> kPageShift) == frame)
        clearFastLine();
}

void
Proc::shootdown(VPage vp)
{
    tlb_.invalidate(vp);
    if (lastVPage_ == vp) {
        lastVPage_ = ~0ULL;
        lastFrame_ = kInvalidFrame;
    }
}

bool
Proc::SyncAwaiter::await_suspend(std::coroutine_handle<> h)
{
    return p.machine_.issueSync(SyncOp{p.eq_.now(), p.actor_.rank,
                                       p.actor_.nextSeq++, kind, id, h,
                                       &p.eq_, &p.actor_});
}

CoTask
Proc::syncOp(RefOp rop, SyncOp::Kind kind, std::uint64_t id)
{
    if (refSink_)
        refSink_->sync(id_, rop, id);
    co_await flushTime();
    co_await SyncAwaiter{*this, kind, id};
}

DelayAwaiter
Proc::fence()
{
    if (refSink_)
        refSink_->sync(id_, RefOp::Fence, 0);
    return flushTime();
}

} // namespace prism
