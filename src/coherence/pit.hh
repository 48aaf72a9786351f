/**
 * @file
 * Page Information Table (paper Section 3.2, Figure 5).
 *
 * The PIT translates between node-private physical frames and global
 * pages.  Forward translation (frame -> global page) is a direct
 * indexed lookup: real frames count up from 0 and imaginary (LA-NUMA)
 * frames from kImaginaryFrameBase, and each range indexes its own
 * chunked SlotArena.  Reverse translation (global page -> frame) first
 * tries the frame-number hint piggybacked on coherence messages and
 * falls back to a hash search, which is the node's one GPage lookup:
 * the page's record (page_record.hh) holds the frame.  Each entry
 * also records the page's static and (cached) dynamic home, the
 * cached home frame number, the frame's mode, the fine-grain tags for
 * S-COMA frames, and an optional capability list implementing the
 * inter-node memory firewall.
 *
 * Client S-COMA entries also form the page cache's LRU list (paper
 * Sections 3.3-3.4), threaded through the entries as two intrusive
 * lists: frames never touched since install, in install order, then
 * touched frames in order of their last touch.  Victim rule: the
 * page-out victim is the eligible frame (its page not locked by the
 * kernel, none of its lines in Transit) with the least lastAccess,
 * where a never-touched frame counts as older than any touched one,
 * and a tie goes to the frame that was installed or touched first.
 * Walking the two lists in order finds it, visiting only the frames
 * it skips.
 *
 * Entries are reached through Pit::Ref, a generation-checked handle:
 * one held across a co_await after Pit::remove (or after its frame
 * was reused) panics instead of reading the reset slot.  An entry's
 * per-line arrays (tags, accessed lines) stay with its arena slot
 * across remove and reinstall, so paging a frame out and in again
 * allocates nothing.
 */

#ifndef PRISM_COHERENCE_PIT_HH
#define PRISM_COHERENCE_PIT_HH

#include <cstdint>
#include <vector>

#include "coherence/fine_grain_tags.hh"
#include "coherence/page_mode.hh"
#include "coherence/page_record.hh"
#include "coherence/sharer_set.hh"
#include "mem/addr.hh"
#include "sim/slot_arena.hh"
#include "sim/types.hh"

namespace prism {

/** Bitmask over lines of a page, for utilization accounting. */
class LineMask
{
  public:
    LineMask() = default;

    explicit LineMask(std::uint32_t lines) { reset(lines); }

    /**
     * Clear to @p lines lines, none set; the storage is reused, so
     * this allocates only when it grows.
     */
    void
    reset(std::uint32_t lines)
    {
        words_.assign((lines + 63) / 64, 0);
        lines_ = lines;
    }

    void set(std::uint32_t i) { words_[i >> 6] |= 1ULL << (i & 63); }

    bool
    test(std::uint32_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Number of set bits. */
    std::uint32_t
    popcount() const
    {
        std::uint32_t n = 0;
        for (auto w : words_)
            n += static_cast<std::uint32_t>(__builtin_popcountll(w));
        return n;
    }

    std::uint32_t lines() const { return lines_; }

  private:
    std::vector<std::uint64_t> words_;
    std::uint32_t lines_ = 0;
};

/** One PIT entry: the translation state of one local page frame. */
struct PitEntry {
    static constexpr const char *kHandleKind = "PIT entry";

    GPage gpage = kInvalidGPage;    //!< global page backed by this frame
    NodeId staticHome = kInvalidNode;
    NodeId dynHome = kInvalidNode;  //!< cached dynamic home (may be stale)
    FrameNum homeFrameHint = kInvalidFrame; //!< cached home frame number
    PageMode mode = PageMode::Local; //!< written only at install

    /**
     * Fine-grain tags.  Only an S-COMA frame (mode == Scoma) has them;
     * every other frame's array is empty.
     */
    FrameTags tags;

    /**
     * Capability list: set of nodes allowed to act on this frame
     * remotely.  Empty means "no firewall" (all nodes allowed).
     */
    SharerSet capabilities;

    /** Lines of this frame ever accessed (Table 3 utilization). */
    LineMask accessed;

    /** Last tick the controller touched this frame (page LRU). */
    Tick lastAccess = 0;

    /** Remote fetches for this page since mapping (policy input). */
    std::uint64_t remoteFetches = 0;

    // --- PIT bookkeeping -------------------------------------------------
    FrameNum frame = kInvalidFrame; //!< this entry's frame
    /** The page's record (global pages only); live while mapped. */
    PageRecords::Ref page;
    /** Which LRU list holds the entry, and its neighbours there. */
    std::uint8_t lruList = 0;
    FrameNum lruPrev = kInvalidFrame;
    FrameNum lruNext = kInvalidFrame;
    bool live = false;
};

/** The Page Information Table of one node's coherence controller. */
class Pit
{
  public:
    using Ref = SlotArena<PitEntry>::Ref;

    /**
     * @param pages           the node's page records (reverse map)
     * @param pit_cycles      SRAM lookup time (2) or DRAM (10)
     * @param hash_extra      additional cycles for a hash reverse search
     */
    Pit(PageRecords &pages, Cycles pit_cycles, Cycles hash_extra)
        : pages_(pages), pitCycles_(pit_cycles), hashExtra_(hash_extra)
    {
    }

    /** Install a translation for @p frame. @return the new entry. */
    Ref install(FrameNum frame, GPage gpage, NodeId static_home,
                NodeId dyn_home, FrameNum home_frame_hint, PageMode mode,
                std::uint32_t lines_per_page, FgTag init_tag);

    /** Install a Local-mode entry (private memory, no global page). */
    Ref installLocal(FrameNum frame, std::uint32_t lines_per_page);

    /** Remove the entry for @p frame (page-out); leaves the LRU too. */
    void remove(FrameNum frame);

    /** Entry for @p frame, or an empty handle. */
    Ref entry(FrameNum frame) const;

    /**
     * Zero-cost structural query: frame currently mapping @p gpage,
     * or kInvalidFrame.  (Timing-free; used by kernel bookkeeping.)
     */
    FrameNum
    frameOf(GPage gpage) const
    {
        auto r = pages_.find(gpage);
        return r ? r->frame : kInvalidFrame;
    }

    /**
     * Reverse-translate @p gpage using @p hint first.
     * @param[out] hash_used true if the hash fallback was needed
     * @return the frame, or kInvalidFrame if the page is not mapped.
     */
    FrameNum reverse(GPage gpage, FrameNum hint, bool &hash_used) const;

    /** Timing of a forward lookup. */
    Cycles forwardCycles() const { return pitCycles_; }

    /** Timing of a reverse lookup. */
    Cycles
    reverseCycles(bool hash_used) const
    {
        return hash_used ? pitCycles_ + hashExtra_ : pitCycles_;
    }

    /**
     * Memory-firewall check: may @p node perform a remote write-class
     * action on @p frame?  Entries with an empty capability list admit
     * everyone (firewall disabled for that page).
     */
    bool writeAllowed(FrameNum frame, NodeId node) const;

    /** Number of live entries. */
    std::size_t size() const { return live_; }

    /** All live frames mapping global pages, ascending (policy scans). */
    std::vector<FrameNum> globalFrames() const;

    /** All live frames, local-mode included, ascending. */
    std::vector<FrameNum> allFrames() const;

    // --- Client page LRU (paper Sections 3.3-3.4) ------------------------

    /** Link client S-COMA frame @p frame as never touched. */
    void lruInsert(FrameNum frame);

    /** Unlink @p frame from the LRU. @return whether it was linked. */
    bool lruErase(FrameNum frame);

    /**
     * The controller touched @p e at @p now: set its lastAccess and,
     * for a frame on the LRU, make it the warmest.
     */
    void touch(const Ref &e, Tick now);

    /**
     * The coldest client S-COMA entry whose page is neither locked by
     * the kernel nor has a line in Transit (the victim rule above);
     * empty if every frame is busy.  Walks only the frames it skips.
     */
    Ref lruVictim() const;

    /**
     * Dyn-Util's victim: among client S-COMA entries with no line in
     * Transit, the one with the most Invalid tags, ties to the lowest
     * frame number; empty if every frame has a Transit line.  One walk
     * of the LRU lists.
     */
    Ref mostInvalidVictim() const;

    /** Client S-COMA frames on the LRU, ascending. */
    std::vector<FrameNum> lruFrames() const;

  private:
    enum : std::uint8_t { kOffLru = 0, kFresh = 1, kTouched = 2 };

    struct LruList {
        FrameNum head = kInvalidFrame;
        FrameNum tail = kInvalidFrame;
    };

    /** Arena and index holding @p frame's slot. */
    SlotArena<PitEntry> &
    arenaOf(FrameNum frame)
    {
        return frame >= kImaginaryFrameBase ? imag_ : real_;
    }

    const SlotArena<PitEntry> &
    arenaOf(FrameNum frame) const
    {
        return frame >= kImaginaryFrameBase ? imag_ : real_;
    }

    static std::size_t
    indexOf(FrameNum frame)
    {
        return frame >= kImaginaryFrameBase ? frame - kImaginaryFrameBase
                                            : frame;
    }

    /** Live entry of @p frame, or nullptr (no generation check). */
    PitEntry *slot(FrameNum frame) const;

    LruList &
    listOf(std::uint8_t which)
    {
        return which == kFresh ? fresh_ : touched_;
    }

    void lruLink(PitEntry &e, std::uint8_t which);
    void lruUnlink(PitEntry &e);

    template <typename F> void forEachLive(F f) const;

    PageRecords &pages_;
    Cycles pitCycles_;
    Cycles hashExtra_;
    SlotArena<PitEntry> real_;
    SlotArena<PitEntry> imag_;
    std::size_t live_ = 0;
    LruList fresh_;
    LruList touched_;
};

} // namespace prism

#endif // PRISM_COHERENCE_PIT_HH
