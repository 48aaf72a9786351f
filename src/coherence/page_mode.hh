/**
 * @file
 * Page frame modes (paper Section 3.2).
 *
 * A mode is associated with every page frame and dictates how the
 * coherence controller handles bus transactions on that frame, as well
 * as which coherence protocol runs.
 */

#ifndef PRISM_COHERENCE_PAGE_MODE_HH
#define PRISM_COHERENCE_PAGE_MODE_HH

#include <cstdint>

#include "core/table.hh"

namespace prism {

/** The behaviour the controller applies to a page frame. */
enum class PageMode : std::uint8_t {
    /** Private local memory; the controller takes no action. */
    Local,
    /**
     * Real frame used as a page cache for a globally shared page;
     * the controller consults per-line fine-grain tags.
     */
    Scoma,
    /**
     * Imaginary frame backing no memory; the controller acts as the
     * memory and fetches every line from the page's home node
     * (Locally-Addressable NUMA — CC-NUMA behaviour without global
     * physical addresses).
     */
    LaNuma,
    /**
     * Extension (Section 3.2): true CC-NUMA frame whose accesses
     * bypass the PIT; physical addresses directly identify home
     * memory.  Modeled as LA-NUMA with zero translation overhead and
     * no fault-containment firewall.
     */
    CcNuma,
};

template <>
inline constexpr std::array kNames<PageMode> = {"local", "s-coma",
                                                "la-numa", "cc-numa"};
static_assert(namedThrough(PageMode::CcNuma));

/** True for modes that back a globally shared page at a client/home. */
inline bool
isGlobalMode(PageMode m)
{
    return m == PageMode::Scoma || m == PageMode::LaNuma ||
           m == PageMode::CcNuma;
}

} // namespace prism

#endif // PRISM_COHERENCE_PAGE_MODE_HH
