/**
 * @file
 * Per-node page records: everything one node keeps about one global
 * page, behind a single GPage lookup.
 *
 * A record gathers the PIT's reverse translation (the frame mapping
 * the page), the coherence controller's per-page state (home line
 * locks, pending-line count, static-home registry, migration
 * tombstone) and the kernel's (fault/page-out lock, home-page-status
 * flag, mode override, disk and dying flags, and the waiters of
 * in-flight page-ins, page-out notices and home page-outs).  Records
 * live in a generation-checked SlotArena (sim/slot_arena.hh): a Ref
 * held across a co_await after its record was freed panics by name.
 *
 * While this node is the page's dynamic home the record also holds a
 * HomeBlock: the page's full-map directory, its migration metadata
 * and the kernel's client set.  The block's presence is the one
 * statement of "homed here"; a home page-out drops it and a migration
 * moves it whole to the new home.
 *
 * Lifetime: get() creates a record on first use; settle() frees it
 * once no field holds state and none of its locks is held or queued.
 * The owner of a field calls settle() after clearing it where the
 * record could otherwise become empty.  A record is never freed under
 * a coroutine that still waits on one of its locks: release() panics.
 */

#ifndef PRISM_COHERENCE_PAGE_RECORD_HH
#define PRISM_COHERENCE_PAGE_RECORD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/msg.hh"
#include "coherence/page_mode.hh"
#include "coherence/sharer_set.hh"
#include "mem/addr.hh"
#include "sim/coro_sync.hh"
#include "sim/flat_map.hh"
#include "sim/slot_arena.hh"

namespace prism {

/** Migration and traffic metadata of a page homed at this node. */
struct HomeMeta {
    std::vector<std::uint32_t> accessesByNode;
    std::uint64_t totalAccesses = 0;
    bool migrating = false;
    /** Cached client frame numbers (dirClientFrameHints option). */
    std::vector<FrameNum> clientFrames;
};

/**
 * A page's state at its dynamic home.  The directory is
 * struct-of-arrays with one entry per line of the page: a DirState
 * byte (0 is Uncached), the owner id and ceil(numNodes/64) sharer
 * words, read and written in place through Directory::LineRef
 * (directory.hh).
 */
struct HomeBlock {
    HomeBlock(std::uint32_t lines, std::uint32_t words_per_line)
        : state(lines, 0), owner(lines, kInvalidNode),
          sharers(static_cast<std::size_t>(lines) * words_per_line, 0),
          wordsPerLine(words_per_line)
    {
    }

    std::vector<std::uint8_t> state;
    std::vector<NodeId> owner;
    std::vector<std::uint64_t> sharers; //!< wordsPerLine words per line
    std::uint32_t wordsPerLine;
    HomeMeta meta;
    /** Client nodes whose kernel mapped the page. */
    SharerSet clients;
};

/** Home-page-status flag: where a client last found the page's home. */
struct CachedHome {
    NodeId dynHome = kInvalidNode; //!< kInvalidNode: flag clear
    FrameNum homeFrame = kInvalidFrame;
};

/** A client fault waiting for the home's page-in reply. */
struct PageInWait {
    explicit PageInWait(EventQueue &eq) : ev(eq) {}
    CoEvent ev;
    NodeId dynHome = kInvalidNode;
    FrameNum homeFrame = kInvalidFrame;
};

/** All the state one node keeps about one global page. */
struct PageRecord {
    static constexpr const char *kHandleKind = "page record";

    explicit PageRecord(EventQueue &eq) : pageLock(eq) {}

    GPage gpage = kInvalidGPage;

    // --- PIT reverse translation ---------------------------------------
    FrameNum frame = kInvalidFrame; //!< local frame mapping the page

    // --- Coherence controller ----------------------------------------
    /** Home line locks; built on first use, kept across slot reuse. */
    std::vector<CoMutex> lineLocks;
    /** Lines with an outstanding client transaction or fill token. */
    std::uint32_t pendingLines = 0;
    /** Static home only: the page's current dynamic home. */
    NodeId registry = kInvalidNode;
    /** Tombstone: where the page migrated to from this node. */
    NodeId movedTo = kInvalidNode;
    /** Present exactly while this node is the page's dynamic home. */
    std::unique_ptr<HomeBlock> home;
    /**
     * Bumped whenever the home block leaves, so a Directory::LineRef
     * issued before then panics.  Never reset, not even when the slot
     * takes another page: a record is freed only after its block left.
     */
    std::uint32_t homeGen = 0;

    // --- Kernel ----------------------------------------------------------
    /** Serializes faults and page-outs of the page at this node. */
    CoMutex pageLock;
    CachedHome cachedHome;
    /** Page-mode override set by adaptive policies. */
    PageMode modeOverride = PageMode::Scoma;
    bool onDisk = false; //!< paged out at home; the next map-in reads disk
    bool dying = false;  //!< home page-out in progress
    PageInWait *pageIn = nullptr;      //!< client fault awaiting PageInRep
    CoEvent *noticeAck = nullptr;      //!< page-out awaiting its ack
    CoLatch *homePageOut = nullptr;    //!< home page-out awaiting clients
    /** Page-in requests deferred while a home page-out runs. */
    std::vector<Msg> deferredPageIn;

    /** True while any field holds state or any lock is held. */
    bool live() const;
};

/** The page records of one node. */
class PageRecords
{
  public:
    using Ref = SlotArena<PageRecord>::Ref;

    /** @param num_nodes sizes each home line's sharer words. */
    PageRecords(EventQueue &eq, std::uint32_t lines_per_page,
                std::uint32_t num_nodes);

    /** The record of @p gp, or an empty handle. */
    Ref find(GPage gp) const;

    /** The record of @p gp, created empty if absent. */
    Ref get(GPage gp);

    /** @p r's page's line locks, built on first use. */
    std::vector<CoMutex> &lineLocks(Ref r);

    /** A fresh home block: every line Uncached, no clients. */
    std::unique_ptr<HomeBlock>
    newHome() const
    {
        return std::make_unique<HomeBlock>(linesPerPage_, wordsPerLine_);
    }

    /**
     * Make @p b (null: none) @p r's home block and return the block
     * it replaces.  A leaving block bumps the record's homeGen.
     */
    std::unique_ptr<HomeBlock> setHome(Ref r, std::unique_ptr<HomeBlock> b);

    /** Pages homed at this node. */
    std::size_t homePages() const { return homePages_; }

    /** Directory bytes of the pages homed here (state, owner, sharers). */
    std::size_t
    homeBytes() const
    {
        return homePages_ * linesPerPage_ *
               (1 + sizeof(NodeId) + wordsPerLine_ * sizeof(std::uint64_t));
    }

    /** Free @p r's record if nothing in it is live any more. */
    void
    settle(Ref r)
    {
        if (!r->live())
            release(r);
    }

    /** Free @p r's record; panics while any field or lock is live. */
    void release(Ref r);

  private:
    EventQueue &eq_;
    std::uint32_t linesPerPage_;
    std::uint32_t wordsPerLine_;
    std::size_t homePages_ = 0;
    SlotArena<PageRecord> arena_;
    std::vector<std::uint32_t> free_;
    /** Arena slot of each page's record. */
    FlatMap<std::uint32_t> slots_{"page records"};
};

} // namespace prism

#endif // PRISM_COHERENCE_PAGE_RECORD_HH
