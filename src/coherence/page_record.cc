#include "coherence/page_record.hh"

#include <utility>

#include "sim/logging.hh"

namespace prism {

bool
PageRecord::live() const
{
    if (frame != kInvalidFrame || pendingLines != 0 ||
        registry != kInvalidNode || movedTo != kInvalidNode || home ||
        pageLock.held() || cachedHome.dynHome != kInvalidNode ||
        modeOverride != PageMode::Scoma || onDisk || dying || pageIn ||
        noticeAck || homePageOut || !deferredPageIn.empty()) {
        return true;
    }
    // A mutex with queued waiters is held, so held() covers both.
    for (const CoMutex &l : lineLocks) {
        if (l.held())
            return true;
    }
    return false;
}

PageRecords::PageRecords(EventQueue &eq, std::uint32_t lines_per_page,
                         std::uint32_t num_nodes)
    : eq_(eq), linesPerPage_(lines_per_page),
      wordsPerLine_((num_nodes + 63) / 64),
      arena_([&eq] { return PageRecord(eq); })
{
}

PageRecords::Ref
PageRecords::find(GPage gp) const
{
    const std::uint32_t *slot = slots_.find(gp);
    return slot ? arena_.ref(*slot) : Ref();
}

PageRecords::Ref
PageRecords::get(GPage gp)
{
    if (const std::uint32_t *slot = slots_.find(gp))
        return arena_.ref(*slot);
    if (free_.empty()) {
        const auto base = static_cast<std::uint32_t>(arena_.capacity());
        arena_.cover(base);
        // LIFO freelist: hand out low slots first.
        for (std::uint32_t i = SlotArena<PageRecord>::kChunk; i-- > 0;)
            free_.push_back(base + i);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_.insert(gp, slot);
    arena_[slot].gpage = gp;
    return arena_.ref(slot);
}

std::vector<CoMutex> &
PageRecords::lineLocks(Ref r)
{
    std::vector<CoMutex> &v = r->lineLocks;
    if (v.empty()) {
        v.reserve(linesPerPage_);
        for (std::uint32_t i = 0; i < linesPerPage_; ++i)
            v.emplace_back(eq_);
    }
    return v;
}

std::unique_ptr<HomeBlock>
PageRecords::setHome(Ref r, std::unique_ptr<HomeBlock> b)
{
    homePages_ += (b != nullptr);
    std::swap(r->home, b);
    if (b) {
        --homePages_;
        ++r->homeGen;
    }
    return b;
}

void
PageRecords::release(Ref r)
{
    PageRecord &p = *r;
    const auto gp = static_cast<unsigned long long>(p.gpage);
    for (const CoMutex &l : p.lineLocks) {
        prism_assert(!l.held(),
                     "page record of gpage %#llx released while one of "
                     "its line locks is held or queued", gp);
    }
    prism_assert(!p.pageLock.held(),
                 "page record of gpage %#llx released while its page "
                 "lock is held or queued", gp);
    prism_assert(!p.live(),
                 "page record of gpage %#llx released while in use", gp);
    slots_.erase(p.gpage);
    p.gpage = kInvalidGPage;
    arena_.retire(r.index());
    free_.push_back(r.index());
}

} // namespace prism
