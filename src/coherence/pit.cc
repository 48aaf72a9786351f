#include "coherence/pit.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace prism {

PitEntry *
Pit::slot(FrameNum frame) const
{
    const SlotArena<PitEntry> &a = arenaOf(frame);
    const std::size_t i = indexOf(frame);
    if (i >= a.capacity())
        return nullptr;
    PitEntry &e = a[i];
    return e.live ? &e : nullptr;
}

Pit::Ref
Pit::entry(FrameNum frame) const
{
    return slot(frame) ? arenaOf(frame).ref(indexOf(frame)) : Ref();
}

Pit::Ref
Pit::install(FrameNum frame, GPage gpage, NodeId static_home,
             NodeId dyn_home, FrameNum home_frame_hint, PageMode mode,
             std::uint32_t lines_per_page, FgTag init_tag)
{
    SlotArena<PitEntry> &a = arenaOf(frame);
    const std::size_t i = indexOf(frame);
    a.cover(i);
    PitEntry &e = a[i];
    prism_assert(!e.live, "PIT entry already present for frame %llu",
                 static_cast<unsigned long long>(frame));
    e.live = true;
    e.frame = frame;
    e.gpage = gpage;
    e.staticHome = static_home;
    e.dynHome = dyn_home;
    e.homeFrameHint = home_frame_hint;
    e.mode = mode;
    e.accessed.reset(lines_per_page);
    e.tags.reset(mode == PageMode::Scoma ? lines_per_page : 0, init_tag);
    if (gpage != kInvalidGPage) {
        e.page = pages_.get(gpage);
        prism_assert(e.page->frame == kInvalidFrame,
                     "gpage %#llx already mapped by frame %llu",
                     static_cast<unsigned long long>(gpage),
                     static_cast<unsigned long long>(e.page->frame));
        e.page->frame = frame;
    }
    ++live_;
    return a.ref(i);
}

Pit::Ref
Pit::installLocal(FrameNum frame, std::uint32_t lines_per_page)
{
    return install(frame, kInvalidGPage, kInvalidNode, kInvalidNode,
                   kInvalidFrame, PageMode::Local, lines_per_page,
                   FgTag::Invalid);
}

void
Pit::remove(FrameNum frame)
{
    PitEntry *e = slot(frame);
    prism_assert(e, "removing absent PIT entry");
    if (e->lruList != kOffLru)
        lruUnlink(*e);
    if (e->page) {
        e->page->frame = kInvalidFrame;
        pages_.settle(e->page);
    }
    arenaOf(frame).retire(indexOf(frame));
    // Reset the entry but keep its per-line arrays' storage for the
    // slot's next install.
    PitEntry cleared;
    cleared.tags = std::move(e->tags);
    cleared.accessed = std::move(e->accessed);
    *e = std::move(cleared);
    --live_;
}

FrameNum
Pit::reverse(GPage gpage, FrameNum hint, bool &hash_used) const
{
    hash_used = false;
    if (hint != kInvalidFrame) {
        const PitEntry *e = slot(hint);
        if (e && e->gpage == gpage)
            return hint;
    }
    hash_used = true;
    return frameOf(gpage);
}

bool
Pit::writeAllowed(FrameNum frame, NodeId node) const
{
    const PitEntry *e = slot(frame);
    if (!e || e->capabilities.empty())
        return true;
    return e->capabilities.test(node);
}

template <typename F>
void
Pit::forEachLive(F f) const
{
    for (const SlotArena<PitEntry> *a : {&real_, &imag_}) {
        for (std::size_t i = 0; i < a->capacity(); ++i) {
            const PitEntry &e = (*a)[i];
            if (e.live)
                f(e);
        }
    }
}

std::vector<FrameNum>
Pit::allFrames() const
{
    std::vector<FrameNum> out;
    out.reserve(live_);
    forEachLive([&](const PitEntry &e) { out.push_back(e.frame); });
    return out;
}

std::vector<FrameNum>
Pit::globalFrames() const
{
    std::vector<FrameNum> out;
    out.reserve(live_);
    forEachLive([&](const PitEntry &e) {
        if (e.gpage != kInvalidGPage)
            out.push_back(e.frame);
    });
    return out;
}

// ---------------------------------------------------------------------
// Client page LRU
// ---------------------------------------------------------------------

void
Pit::lruLink(PitEntry &e, std::uint8_t which)
{
    LruList &l = listOf(which);
    e.lruList = which;
    e.lruPrev = l.tail;
    e.lruNext = kInvalidFrame;
    if (l.tail != kInvalidFrame)
        slot(l.tail)->lruNext = e.frame;
    else
        l.head = e.frame;
    l.tail = e.frame;
}

void
Pit::lruUnlink(PitEntry &e)
{
    LruList &l = listOf(e.lruList);
    if (e.lruPrev != kInvalidFrame)
        slot(e.lruPrev)->lruNext = e.lruNext;
    else
        l.head = e.lruNext;
    if (e.lruNext != kInvalidFrame)
        slot(e.lruNext)->lruPrev = e.lruPrev;
    else
        l.tail = e.lruPrev;
    e.lruList = kOffLru;
    e.lruPrev = kInvalidFrame;
    e.lruNext = kInvalidFrame;
}

void
Pit::lruInsert(FrameNum frame)
{
    PitEntry *e = slot(frame);
    prism_assert(e && e->mode == PageMode::Scoma && e->page,
                 "LRU insert of frame %llu, which maps no S-COMA page",
                 static_cast<unsigned long long>(frame));
    prism_assert(e->lruList == kOffLru, "frame %llu already on the LRU",
                 static_cast<unsigned long long>(frame));
    lruLink(*e, kFresh);
}

bool
Pit::lruErase(FrameNum frame)
{
    PitEntry *e = slot(frame);
    if (!e || e->lruList == kOffLru)
        return false;
    lruUnlink(*e);
    return true;
}

void
Pit::touch(const Ref &e, Tick now)
{
    PitEntry &p = *e;
    p.lastAccess = now;
    if (p.lruList == kOffLru ||
        (p.lruList == kTouched && touched_.tail == p.frame)) {
        return;
    }
    lruUnlink(p);
    lruLink(p, kTouched);
}

Pit::Ref
Pit::lruVictim() const
{
    for (const LruList *l : {&fresh_, &touched_}) {
        for (FrameNum f = l->head; f != kInvalidFrame;) {
            const PitEntry &e = *slot(f);
            if (!e.page->pageLock.held() && !e.tags.anyTransit()) {
                return arenaOf(f).ref(indexOf(f));
            }
            f = e.lruNext;
        }
    }
    return Ref();
}

Pit::Ref
Pit::mostInvalidVictim() const
{
    const PitEntry *best = nullptr;
    for (const LruList *l : {&fresh_, &touched_}) {
        for (FrameNum f = l->head; f != kInvalidFrame;) {
            const PitEntry &e = *slot(f);
            if (!e.tags.anyTransit()) {
                const std::uint32_t inv = e.tags.count(FgTag::Invalid);
                const std::uint32_t top =
                    best ? best->tags.count(FgTag::Invalid) : 0;
                if (!best || inv > top || (inv == top && f < best->frame))
                    best = &e;
            }
            f = e.lruNext;
        }
    }
    return best ? arenaOf(best->frame).ref(indexOf(best->frame)) : Ref();
}

std::vector<FrameNum>
Pit::lruFrames() const
{
    std::vector<FrameNum> out;
    for (const LruList *l : {&fresh_, &touched_}) {
        for (FrameNum f = l->head; f != kInvalidFrame; f = slot(f)->lruNext)
            out.push_back(f);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace prism
