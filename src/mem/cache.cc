#include "mem/cache.hh"

#include <cstring>

namespace prism {

SetAssocCache::SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc,
                             std::uint32_t line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes),
      lineShift_(LineGeometry::log2i(line_bytes)),
      numSets_(size_bytes / (assoc * line_bytes)),
      tags_(static_cast<std::size_t>(numSets_) * assoc, 0),
      states_(static_cast<std::size_t>(numSets_) * assoc,
              static_cast<std::uint8_t>(Mesi::Invalid)),
      order_(static_cast<std::size_t>(numSets_) * assoc, 0)
{
    prism_assert(numSets_ > 0, "cache with zero sets");
    prism_assert((numSets_ & (numSets_ - 1)) == 0,
                 "cache set count must be a power of two");
    prism_assert(assoc_ >= 1 && assoc_ <= 255,
                 "associativity must fit the recency byte array");
    for (std::size_t s = 0; s < numSets_; ++s) {
        for (std::uint32_t w = 0; w < assoc_; ++w)
            order_[s * assoc_ + w] = static_cast<std::uint8_t>(w);
    }
}

void
SetAssocCache::makeMru(std::size_t base, std::uint8_t way)
{
    std::uint8_t *ord = &order_[base];
    if (ord[0] == way)
        return;
    std::uint32_t pos = 1;
    while (ord[pos] != way)
        ++pos;
    std::memmove(ord + 1, ord, pos);
    ord[0] = way;
}

void
SetAssocCache::touch(std::uint64_t paddr)
{
    const std::uint64_t la = lineAlign(paddr);
    const std::size_t base = rowBase(la);
    // One scan in recency order doubles as the tag probe and the
    // order-position search; a touch of the MRU line writes nothing.
    std::uint8_t *ord = &order_[base];
    for (std::uint32_t pos = 0; pos < assoc_; ++pos) {
        const std::uint8_t w = ord[pos];
        if (tags_[base + w] == la &&
            states_[base + w] !=
                static_cast<std::uint8_t>(Mesi::Invalid)) {
            if (pos) {
                std::memmove(ord + 1, ord, pos);
                ord[0] = w;
            }
            return;
        }
    }
}

void
SetAssocCache::setState(std::uint64_t paddr, Mesi s)
{
    const std::uint64_t la = lineAlign(paddr);
    const std::size_t base = rowBase(la);
    const std::uint32_t w = findWay(base, la);
    prism_assert(w != assoc_, "setState on absent line");
    if (s == Mesi::Invalid)
        clearSlot(base, w);
    else
        states_[base + w] = static_cast<std::uint8_t>(s);
}

std::optional<Victim>
SetAssocCache::insert(std::uint64_t paddr, Mesi s)
{
    prism_assert(s != Mesi::Invalid, "inserting an Invalid line");
    const std::uint64_t la = lineAlign(paddr);
    const std::size_t base = rowBase(la);

    // Overwrite an existing copy of the same line.
    const std::uint32_t hit = findWay(base, la);
    if (hit != assoc_) {
        states_[base + hit] = static_cast<std::uint8_t>(s);
        makeMru(base, static_cast<std::uint8_t>(hit));
        return std::nullopt;
    }

    // Prefer an invalid way (lowest way index, as before).
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (states_[base + w] ==
            static_cast<std::uint8_t>(Mesi::Invalid)) {
            tags_[base + w] = la;
            states_[base + w] = static_cast<std::uint8_t>(s);
            makeMru(base, static_cast<std::uint8_t>(w));
            ++validCount_;
            ++resid_[la >> kPageShift];
            return std::nullopt;
        }
    }

    // Evict the LRU way.
    const std::uint8_t v = order_[base + assoc_ - 1];
    Victim out{tags_[base + v], static_cast<Mesi>(states_[base + v])};
    const FrameNum oldFrame = tags_[base + v] >> kPageShift;
    const FrameNum newFrame = la >> kPageShift;
    if (oldFrame != newFrame) {
        leaveFrame(oldFrame);
        ++resid_[newFrame];
    }
    tags_[base + v] = la;
    states_[base + v] = static_cast<std::uint8_t>(s);
    // The victim sits at the order tail; MRU promotion is a rotation.
    if (assoc_ > 1) {
        std::uint8_t *ord = &order_[base];
        std::memmove(ord + 1, ord, assoc_ - 1);
        ord[0] = v;
    }
    return out;
}

std::optional<Victim>
SetAssocCache::peekVictim(std::uint64_t paddr) const
{
    const std::uint64_t la = lineAlign(paddr);
    const std::size_t base = rowBase(la);
    if (findWay(base, la) != assoc_)
        return std::nullopt;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (states_[base + w] ==
            static_cast<std::uint8_t>(Mesi::Invalid))
            return std::nullopt;
    }
    const std::uint8_t v = order_[base + assoc_ - 1];
    return Victim{tags_[base + v],
                  static_cast<Mesi>(states_[base + v])};
}

Mesi
SetAssocCache::invalidate(std::uint64_t paddr)
{
    const std::uint64_t la = lineAlign(paddr);
    const std::size_t base = rowBase(la);
    const std::uint32_t w = findWay(base, la);
    if (w == assoc_)
        return Mesi::Invalid;
    Mesi s = static_cast<Mesi>(states_[base + w]);
    clearSlot(base, w);
    return s;
}

std::vector<Victim>
SetAssocCache::invalidateFrame(FrameNum frame)
{
    std::vector<Victim> out;
    const std::uint32_t *resident = resid_.find(frame);
    if (!resident)
        return out;
    std::uint32_t remaining = *resident;

    // The frame's lines map to at most linesPerPage consecutive set
    // indices (mod numSets_); sweep only those, in ascending set order
    // so victims come out in the same order the full scan produced.
    const std::uint32_t lpp =
        static_cast<std::uint32_t>(kPageBytes) >> lineShift_;
    auto sweepSet = [&](std::uint32_t set) {
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        for (std::uint32_t w = 0; w < assoc_ && remaining; ++w) {
            if (states_[base + w] ==
                    static_cast<std::uint8_t>(Mesi::Invalid) ||
                (tags_[base + w] >> kPageShift) != frame)
                continue;
            out.push_back(Victim{tags_[base + w],
                                 static_cast<Mesi>(states_[base + w])});
            clearSlot(base, w);
            --remaining;
        }
    };

    if (lpp >= numSets_) {
        for (std::uint32_t s = 0; s < numSets_ && remaining; ++s)
            sweepSet(s);
        return out;
    }
    const std::uint32_t first =
        setIndex(frame << kPageShift); // set of the frame's first line
    if (first + lpp <= numSets_) {
        for (std::uint32_t s = first; s < first + lpp && remaining; ++s)
            sweepSet(s);
    } else {
        // The range wraps: ascending set order visits the wrapped
        // low-index sets first, then the tail.
        const std::uint32_t wrap = first + lpp - numSets_;
        for (std::uint32_t s = 0; s < wrap && remaining; ++s)
            sweepSet(s);
        for (std::uint32_t s = first; s < numSets_ && remaining; ++s)
            sweepSet(s);
    }
    return out;
}

std::vector<std::pair<std::uint64_t, Mesi>>
SetAssocCache::snapshot() const
{
    std::vector<std::pair<std::uint64_t, Mesi>> out;
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (states_[i] != static_cast<std::uint8_t>(Mesi::Invalid))
            out.emplace_back(tags_[i], static_cast<Mesi>(states_[i]));
    }
    return out;
}

} // namespace prism
