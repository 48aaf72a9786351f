/**
 * @file
 * Set-associative write-back cache model with MESI line states.
 *
 * Used for both the per-processor L1 and L2.  The model tracks tags and
 * states only (no data contents are simulated); timing is charged by
 * the callers.  Addresses are physical: PRISM nodes are physically
 * indexed and tagged, and each node has its own private physical
 * address space.
 *
 * The tag store is a structure of arrays: per-set packed tag and state
 * arrays (way scans touch two small contiguous runs instead of
 * striding over 24-byte line structs), and per-set recency byte arrays
 * replacing the old global 64-bit LRU stamps.  A frame-residency index
 * (per-frame resident-line counts) makes anyInFrame() and validLines()
 * O(1) and invalidateFrame() proportional to the frame's resident
 * lines, not the cache size.  All replacement decisions are
 * bit-identical to the previous array-of-structs implementation.
 */

#ifndef PRISM_MEM_CACHE_HH
#define PRISM_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/table.hh"
#include "mem/addr.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace prism {

/**
 * Processor-cache line states, the union over all supported line
 * protocols (coherence/line_protocol).  The first four are classic
 * MESI and keep their historical numeric values; Owned (MOESI) and
 * Forward (MESIF) are appended so stored state bytes stay valid.
 *
 * Numeric order is NOT permission order once the appended states are
 * in play — compare with lineStrength() / strongerLine(), never with
 * raw `<`/`>`.
 */
enum class LineState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
    Owned,   //!< dirty, this cache supplies; other Shared copies exist
    Forward, //!< clean Shared copy designated to supply (newest sharer)
};

/** Historical alias: most of the simulator predates the widening. */
using Mesi = LineState;

template <>
inline constexpr std::array kNames<LineState> = {"I", "S", "E",
                                                 "M", "O", "F"};
static_assert(namedThrough(LineState::Forward));

/**
 * Access-permission strength, for merging the L1/L2 views of a line:
 * I < S < F < E < O < M.  For the four MESI states this coincides
 * with the numeric enum order the pre-widening code compared with.
 */
constexpr int
lineStrength(LineState s)
{
    switch (s) {
      case LineState::Invalid: return 0;
      case LineState::Shared: return 1;
      case LineState::Forward: return 2;
      case LineState::Exclusive: return 3;
      case LineState::Owned: return 4;
      case LineState::Modified: return 5;
    }
    return 0;
}

/** The stronger of two views of one line (ties keep @p a). */
constexpr LineState
strongerLine(LineState a, LineState b)
{
    return lineStrength(a) >= lineStrength(b) ? a : b;
}

/**
 * Owner-class states: the holder is responsible for the line's data
 * (supplies interventions, must not be dropped silently).  At the
 * inter-node level an owner-class processor copy implies the node
 * holds the line exclusively in the full-map directory.
 */
constexpr bool
ownerClass(LineState s)
{
    return s == LineState::Modified || s == LineState::Exclusive ||
           s == LineState::Owned;
}

/** States whose data is dirty with respect to memory. */
constexpr bool
dirtyLine(LineState s)
{
    return s == LineState::Modified || s == LineState::Owned;
}

/** Result of a cache insertion: the victim line, if one was evicted. */
struct Victim {
    std::uint64_t lineAddr; //!< physical address of the victim line
    Mesi state;             //!< state the victim held
};

/**
 * A set-associative cache of MESI tags with true-LRU replacement.
 *
 * Line addresses are physical byte addresses truncated to line
 * granularity by the cache itself.
 */
class SetAssocCache
{
  public:
    /**
     * @param size_bytes  total capacity
     * @param assoc       associativity (1 = direct mapped)
     * @param line_bytes  line size
     */
    SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc,
                  std::uint32_t line_bytes);

    /** State of the line containing @p paddr (Invalid if absent). */
    Mesi
    lookup(std::uint64_t paddr) const
    {
        const std::uint64_t la = lineAlign(paddr);
        const std::size_t base = rowBase(la);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == la &&
                states_[base + w] != static_cast<std::uint8_t>(
                                         Mesi::Invalid))
                return static_cast<Mesi>(states_[base + w]);
        }
        return Mesi::Invalid;
    }

    /** True if the line is present in any valid state. */
    bool contains(std::uint64_t paddr) const { return lookup(paddr) != Mesi::Invalid; }

    /** Update LRU on an access to a present line. */
    void touch(std::uint64_t paddr);

    /**
     * Set the state of a present line.
     * panics if the line is absent (callers must check first).
     */
    void setState(std::uint64_t paddr, Mesi s);

    /**
     * Insert (or overwrite) the line containing @p paddr with state
     * @p s, evicting the LRU way of the set if needed.
     * @return the evicted victim, if any valid line was displaced.
     */
    std::optional<Victim> insert(std::uint64_t paddr, Mesi s);

    /**
     * Remove the line containing @p paddr.
     * @return the state it held (Invalid if it was absent).
     */
    Mesi invalidate(std::uint64_t paddr);

    /** Invalidate every line belonging to physical frame @p frame. */
    std::vector<Victim> invalidateFrame(FrameNum frame);

    /** Number of valid lines currently held (O(1)). */
    std::uint32_t validLines() const { return validCount_; }

    /** Snapshot of all valid (lineAddr, state) pairs (test support). */
    std::vector<std::pair<std::uint64_t, Mesi>> snapshot() const;

    /** True if any valid line belongs to physical frame @p frame (O(1)). */
    bool
    anyInFrame(FrameNum frame) const
    {
        return resid_.count(frame) != 0;
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t lineBytes() const { return lineBytes_; }

    /** Victim that insert() of @p paddr would evict, without evicting. */
    std::optional<Victim> peekVictim(std::uint64_t paddr) const;

  private:
    std::uint64_t
    lineAlign(std::uint64_t paddr) const
    {
        return paddr & ~static_cast<std::uint64_t>(lineBytes_ - 1);
    }

    std::uint32_t
    setIndex(std::uint64_t line_addr) const
    {
        return static_cast<std::uint32_t>((line_addr >> lineShift_) &
                                          (numSets_ - 1));
    }

    /** Index of a set's first way slot in the packed arrays. */
    std::size_t
    rowBase(std::uint64_t line_addr) const
    {
        return static_cast<std::size_t>(setIndex(line_addr)) * assoc_;
    }

    /** Way holding @p la in the set at @p base, or assoc_ if absent. */
    std::uint32_t
    findWay(std::size_t base, std::uint64_t la) const
    {
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == la &&
                states_[base + w] != static_cast<std::uint8_t>(
                                         Mesi::Invalid))
                return w;
        }
        return assoc_;
    }

    /** Move @p way to the MRU position of the set at @p base. */
    void makeMru(std::size_t base, std::uint8_t way);

    /** Invalidate the slot at @p base + @p way (bookkeeping). */
    void
    clearSlot(std::size_t base, std::uint32_t way)
    {
        states_[base + way] =
            static_cast<std::uint8_t>(Mesi::Invalid);
        --validCount_;
        leaveFrame(tags_[base + way] >> kPageShift);
    }

    /** A valid line of @p frame was dropped or replaced. */
    void
    leaveFrame(FrameNum frame)
    {
        std::uint32_t *n = resid_.find(frame);
        prism_assert(n && *n > 0, "frame-residency underflow");
        if (--*n == 0)
            resid_.erase(frame);
    }

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    std::uint32_t numSets_;
    std::vector<std::uint64_t> tags_;  //!< numSets_ x assoc_, row-major
    std::vector<std::uint8_t> states_; //!< Mesi, same layout
    /** Per-set recency order: way ids, MRU first (same row layout). */
    std::vector<std::uint8_t> order_;
    std::uint32_t validCount_ = 0;
    /**
     * Valid lines per physical frame (frames are sparse: imaginary
     * LA-NUMA frames start at 2^24); a frame leaves when its count
     * drops to zero, so the table tracks the frames with resident
     * lines.
     */
    FlatMap<std::uint32_t> resid_{"cache frame residency"};
};

} // namespace prism

#endif // PRISM_MEM_CACHE_HH
