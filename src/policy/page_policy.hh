/**
 * @file
 * Page-mode selection policies (paper Section 4.2) as one table.
 *
 * At each client page fault the kernel decides whether to back the
 * faulting global page with a real S-COMA frame or an imaginary
 * LA-NUMA frame, and which page a full page cache gives up.  The
 * paper's configurations differ only in these columns, so each is a
 * row of kPolicyRules and Kernel::chooseClientMode is the one
 * interpreter:
 *
 *   laNuma    map every client page LA-NUMA (CC-NUMA under
 *             ccNumaBypass); no other column applies
 *   capped    the page cache is capped: sweeps size the cap from a
 *             calibration SCOMA run (Section 4.2)
 *   victim    the client page a full cache pages out: none, the least
 *             recently used, or the one with the most Invalid tags
 *   adaptive  a page-out converts the victim to LA-NUMA at this node,
 *             and when there is no victim to take (or it is busy) the
 *             faulting page is mapped LA-NUMA; either stays LA-NUMA
 *             on later faults.  A row that is not adaptive admits the
 *             page over the cap instead
 *   revert    before each fault, scan a few mapped LA-NUMA pages and
 *             page out any with many remote refetches, so they refault
 *             S-COMA (Dyn-Both, Section 4.3's future-work remark)
 *
 * Converting a page between modes is a purely node-local decision,
 * exercised only at page-fault time: the run-time policies add no
 * overhead to normal operation.  The rows are PolicyKind's name table
 * (kNames, core/table.hh): enumName and enumFromString read their
 * names.
 */

#ifndef PRISM_POLICY_PAGE_POLICY_HH
#define PRISM_POLICY_PAGE_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "core/config.hh"

namespace prism {

/** The client page a full page cache gives up. */
enum class PageVictim : std::uint8_t {
    None,        //!< none: the page cache never shrinks
    Lru,         //!< least recently used, not busy (Pit::lruVictim)
    MostInvalid, //!< most Invalid tags (Pit::mostInvalidVictim)
};

/** One page-mode policy: the columns the file comment describes. */
struct PolicyRule {
    PolicyKind kind;
    const char *name; //!< as the paper writes it
    bool laNuma = false;
    bool capped = false;
    PageVictim victim = PageVictim::None;
    bool adaptive = false;
    bool revert = false;
};

/** Every policy, indexed by PolicyKind. */
inline constexpr PolicyRule kPolicyRules[] = {
    {.kind = PolicyKind::Scoma, .name = "SCOMA"},
    {.kind = PolicyKind::LaNuma, .name = "LANUMA", .laNuma = true},
    {.kind = PolicyKind::Scoma70, .name = "SCOMA-70", .capped = true,
     .victim = PageVictim::Lru},
    {.kind = PolicyKind::DynFcfs, .name = "Dyn-FCFS", .capped = true,
     .adaptive = true},
    {.kind = PolicyKind::DynUtil, .name = "Dyn-Util", .capped = true,
     .victim = PageVictim::MostInvalid, .adaptive = true},
    {.kind = PolicyKind::DynLru, .name = "Dyn-LRU", .capped = true,
     .victim = PageVictim::Lru, .adaptive = true},
    {.kind = PolicyKind::DynBoth, .name = "Dyn-Both", .capped = true,
     .victim = PageVictim::Lru, .adaptive = true, .revert = true},
};

static_assert(rowsInOrder(kPolicyRules, &PolicyRule::kind),
              "kPolicyRules must list the policies in PolicyKind order");

template <>
inline constexpr const auto &kNames<PolicyKind> = kPolicyRules;
static_assert(namedThrough(PolicyKind::DynBoth));

/** True if @p k has a row (validateConfig refuses a config without). */
constexpr bool
policyKnown(PolicyKind k)
{
    return static_cast<std::size_t>(k) < std::size(kPolicyRules);
}

/** The row of @p k, which must have one (policyKnown). */
constexpr const PolicyRule &
policyRule(PolicyKind k)
{
    return kPolicyRules[static_cast<std::size_t>(k)];
}

} // namespace prism

#endif // PRISM_POLICY_PAGE_POLICY_HH
