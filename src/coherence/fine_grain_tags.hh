/**
 * @file
 * Fine-grain access tags for S-COMA page frames (paper Section 3.2).
 *
 * The controller maintains a two-bit tag per cache line of every
 * S-COMA frame:
 *   T (Transit)   — a coherence operation is outstanding; local bus
 *                   transactions for the line are retried,
 *   E (Exclusive) — the node holds the only copy; all local accesses
 *                   proceed under the local bus protocol,
 *   S (Shared)    — other nodes may hold copies; writes must upgrade,
 *   I (Invalid)   — the node holds no valid copy.
 */

#ifndef PRISM_COHERENCE_FINE_GRAIN_TAGS_HH
#define PRISM_COHERENCE_FINE_GRAIN_TAGS_HH

#include <cstdint>
#include <vector>

#include "core/table.hh"
#include "sim/logging.hh"

namespace prism {

/** The two-bit line state. */
enum class FgTag : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Transit,
};

template <>
inline constexpr std::array kNames<FgTag> = {"I", "S", "E", "T"};
static_assert(namedThrough(FgTag::Transit));

/**
 * The tag array of one S-COMA page frame.  It keeps a count per tag
 * value, so count() and anyTransit() answer in O(1) (the Dyn-Util
 * victim scan and the LRU victim rule ask them of every frame).
 */
class FrameTags
{
  public:
    FrameTags() = default;

    explicit FrameTags(std::uint32_t lines_per_page, FgTag init)
    {
        reset(lines_per_page, init);
    }

    /**
     * Resize to @p lines_per_page lines, each @p init (frame install);
     * the storage is reused, so this allocates only when it grows.
     */
    void
    reset(std::uint32_t lines_per_page, FgTag init)
    {
        tags_.assign(lines_per_page, init);
        counts_[0] = counts_[1] = counts_[2] = counts_[3] = 0;
        counts_[idx(init)] = lines_per_page;
    }

    FgTag get(std::uint32_t line_idx) const { return tags_[line_idx]; }

    void
    set(std::uint32_t line_idx, FgTag t)
    {
        --counts_[idx(tags_[line_idx])];
        ++counts_[idx(t)];
        tags_[line_idx] = t;
    }

    std::uint32_t lines() const
    {
        return static_cast<std::uint32_t>(tags_.size());
    }

    /** Number of lines whose tag is @p t. */
    std::uint32_t count(FgTag t) const { return counts_[idx(t)]; }

    /** True if any line is in Transit. */
    bool anyTransit() const { return count(FgTag::Transit) != 0; }

    /** Set every line to @p t (page-in / flush). */
    void fill(FgTag t) { reset(lines(), t); }

  private:
    static unsigned idx(FgTag t) { return static_cast<unsigned>(t); }

    std::vector<FgTag> tags_;
    std::uint32_t counts_[4] = {};
};

} // namespace prism

#endif // PRISM_COHERENCE_FINE_GRAIN_TAGS_HH
