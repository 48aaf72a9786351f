/**
 * @file
 * Full-map cache-line directory kept at each page's (dynamic) home.
 *
 * One entry per cache line of every page this node is home for.  The
 * entries live in the page's record, in the home block that exists
 * exactly while the page is homed here (page_record.hh): a DirState
 * byte, the owner id and ceil(numNodes/64) sharer words per line,
 * struct-of-arrays.  A migration moves the block whole to the new
 * home; a home page-out drops it.
 *
 * Directory::LineRef is the view every reader and writer of a line
 * goes through.  It checks the record's home generation on each
 * access, so a view held across the block's departure panics by name
 * instead of reading a block that moved away or was freed, even when
 * the record lives on as a migration tombstone or registry entry.
 *
 * The Directory object itself models only timing: the backing store
 * is DRAM fronted by an 8K-entry directory cache (paper Section 4.1:
 * 2-cycle hit, 22-cycle miss), modeled as a direct-mapped tag filter.
 */

#ifndef PRISM_COHERENCE_DIRECTORY_HH
#define PRISM_COHERENCE_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "coherence/page_record.hh"
#include "coherence/sharer_set.hh"
#include "core/table.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace prism {

/** Stable state of one line in the directory. */
enum class DirState : std::uint8_t {
    /** Only home memory holds the line; no node-level copies. */
    Uncached,
    /** Home memory valid; `sharers` nodes hold read copies. */
    Shared,
    /** `owner` holds the line exclusively; home memory may be stale. */
    Owned,
};

template <>
inline constexpr std::array kNames<DirState> = {"U", "S", "O"};
static_assert(namedThrough(DirState::Owned));

static_assert(static_cast<int>(DirState::Uncached) == 0,
              "a new HomeBlock's zeroed state bytes read as Uncached");

/** The directory-cache timing model of one home node. */
class Directory
{
  public:
    Directory(std::uint32_t cache_entries, Cycles hit_cycles,
              Cycles miss_cycles);

    /**
     * Borrowed view of one line's entry in a homed page's record.
     * Valid until the record's home block leaves; an empty view is
     * falsy.
     */
    class LineRef
    {
      public:
        LineRef() = default;

        /** Line @p li of @p rec's page, which must be homed here. */
        LineRef(PageRecord &rec, std::uint32_t li)
        {
            HomeBlock *b = rec.home.get();
            prism_assert(b != nullptr,
                         "directory line of gpage %#llx, which is not "
                         "homed here",
                         static_cast<unsigned long long>(rec.gpage));
            prism_assert(li < b->state.size(),
                         "directory line index OOB");
            state_ = &b->state[li];
            owner_ = &b->owner[li];
            words_ = &b->sharers[static_cast<std::size_t>(li) *
                                 b->wordsPerLine];
            numWords_ = b->wordsPerLine;
            gen_ = &rec.homeGen;
            genAtIssue_ = rec.homeGen;
        }

        explicit operator bool() const { return state_ != nullptr; }

        DirState
        state() const
        {
            check();
            return static_cast<DirState>(*state_);
        }

        void
        setState(DirState s)
        {
            check();
            *state_ = static_cast<std::uint8_t>(s);
        }

        NodeId
        owner() const
        {
            check();
            return *owner_;
        }

        void
        setOwner(NodeId n)
        {
            check();
            *owner_ = n;
        }

        /** Mutable view of this line's sharer words. */
        SharerRef
        sharers() const
        {
            check();
            return SharerRef(words_, numWords_);
        }

        bool isSharer(NodeId n) const { return sharers().test(n); }
        void addSharer(NodeId n) { sharers().add(n); }
        void removeSharer(NodeId n) { sharers().remove(n); }
        void clearSharers() { sharers().clear(); }
        bool noSharers() const { return sharers().empty(); }
        std::uint32_t sharerCount() const { return sharers().count(); }

      private:
        void
        check() const
        {
            prism_assert(state_ != nullptr, "use of an empty LineRef");
            prism_assert(*gen_ == genAtIssue_,
                         "directory LineRef outlived its page's home "
                         "block (held across a page-out or migration)");
        }

        // Pointers into the home block, plus the record's home
        // generation: the record slot never moves, so gen_ stays
        // readable after the block is gone.
        std::uint8_t *state_ = nullptr;
        NodeId *owner_ = nullptr;
        std::uint64_t *words_ = nullptr;
        std::uint32_t numWords_ = 0;
        const std::uint32_t *gen_ = nullptr;
        std::uint32_t genAtIssue_ = 0;
    };

    /**
     * Timing of one directory access to global line @p gl, exercising
     * the directory-cache model.
     */
    Cycles access(GLine gl);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t cacheHits() const { return cacheHits_; }

  private:
    Cycles hitCycles_;
    Cycles missCycles_;
    std::vector<GLine> cacheTags_; //!< direct-mapped timing filter
    std::uint64_t lookups_ = 0;
    std::uint64_t cacheHits_ = 0;
};

} // namespace prism

#endif // PRISM_COHERENCE_DIRECTORY_HH
