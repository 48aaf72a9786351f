/**
 * @file
 * Table-driven intra-node line protocol.
 *
 * A scheme is a 6x6 CellTable (core/table.hh) mapping (LineState,
 * LineEvent) to a Transition {next state, action flags}, built at
 * compile time by LineProtocol's constexpr constructor; illegal pairs
 * are explicit (tryOn() returns nullptr, on() panics) so conformance
 * tests can prove there are no silent holes.
 *
 * Division of labour: the table is the engine.  Every state change of
 * a valid processor-cache line, and every side effect one demands,
 * comes from on(): store hits (core/proc), the node bus's peer snoops
 * and store completions (core/node), inter-node interventions and
 * evictions (the coherence controller).  Misses (Invalid rows) are
 * resolved by the bus/controller fill path, which asks the
 * fill-policy queries (readFill(), peerReadFill(), writeFill(), ...)
 * what state to install; the Invalid row is therefore entirely
 * illegal by design.  Tearing down a whole frame (page-out, page
 * migration) discards its lines without the table: the kernel owns
 * the frame's data by then.
 *
 * The inter-node directory protocol is the other table-driven level:
 * the home table of coherence/home_protocol.hh.  It is the same under
 * every scheme here: it tracks node-level Owned/Shared, and every
 * scheme maps owner-class processor states onto node-level ownership
 * the same way (see ownerClass() in mem/cache).
 */

#ifndef PRISM_COHERENCE_LINE_PROTOCOL_HH
#define PRISM_COHERENCE_LINE_PROTOCOL_HH

#include <cstdint>

#include "core/config.hh"
#include "core/table.hh"
#include "mem/cache.hh"

namespace prism {

/**
 * Events a valid processor-cache line can observe.  A load hit is not
 * one: it never changes a valid line's state.
 */
enum class LineEvent : std::uint8_t {
    LocalStore, //!< own processor stores (hit or upgrade decision)
    SnoopRead,  //!< another processor's read appears on the node bus
    SnoopWrite, //!< another processor's write/upgrade on the node bus
    /**
     * Another node reads the line: the home recalls this node's copy
     * shared (a Fetch for read at the owner, or the home recalling
     * its own copy).
     */
    RemoteRead,
    /**
     * The home takes the line away: an invalidation, a Fetch for
     * write at the owner, or the home recalling its own copy
     * exclusive.
     */
    Inval,
    Evict, //!< replacement or page-out drops this copy
};

constexpr std::uint32_t kNumLineStates = 6;
constexpr std::uint32_t kNumLineEvents = 6;

template <>
inline constexpr std::array kNames<LineEvent> = {
    "LocalStore", "SnoopRead", "SnoopWrite", "RemoteRead", "Inval", "Evict"};
static_assert(kNames<LineEvent>.size() == kNumLineEvents &&
              kNames<LineState>.size() == kNumLineStates);

/** Side effects a transition demands of the bus/controller engine. */
enum LineAction : std::uint8_t {
    /**
     * The copy's data serves the requester: cache-to-cache on the bus
     * (a peer's store then needs only permission from the home), or
     * through the home's fetch for a remote read.
     */
    kActSupplyData = 1u << 0,
    /** Write the (dirty) data back toward home/memory. */
    kActWritebackData = 1u << 1,
    /**
     * Node-level ownership is given up: tell the coherence controller
     * so the home directory can downgrade this node to Shared.
     */
    kActRelinquish = 1u << 2,
    /**
     * The store cannot complete in this cache alone: it takes a bus
     * transaction, after which the line is in the cell's next state.
     */
    kActNeedsBus = 1u << 3,
    /** Clean-exclusive eviction: send the home a replacement hint. */
    kActReplaceHint = 1u << 4,
};

/** One table cell: where the line goes and what the engine must do. */
struct Transition {
    LineState next = LineState::Invalid;
    std::uint8_t actions = 0;
    bool legal = false;
};

/**
 * A line-protocol scheme: the transition table (named after the
 * scheme) plus the fill-policy queries the miss path needs.  There is
 * one constexpr instance per scheme: lineProtocol().
 */
class LineProtocol : public CellTable<LineState, LineEvent, Transition>
{
  public:
    explicit constexpr LineProtocol(ProtocolScheme scheme);

    /** True if @p s is a reachable state under this scheme. */
    bool
    stateValid(LineState s) const
    {
        return (validStates_ >> static_cast<unsigned>(s)) & 1u;
    }

    /**
     * True if a store to a line held @p s commits in place: no state
     * change and no bus transaction (the line is already writable).
     */
    bool
    storeInPlace(LineState s) const
    {
        const Transition *t = tryOn(s, LineEvent::LocalStore);
        return t && t->next == s && t->actions == 0;
    }

    /**
     * State a read miss fills to: @p exclusive when no other cached
     * copy exists anywhere (directory granted exclusivity), shared
     * otherwise.
     */
    LineState
    readFill(bool exclusive) const
    {
        return exclusive ? readFillExclusive_ : readFillShared_;
    }

    /**
     * State the *requester* fills to when a peer supplied the line
     * shared on the node bus (MESIF grants the newest sharer Forward).
     */
    LineState peerReadFill() const { return peerReadFill_; }

    /**
     * True if an exclusive read grant from the directory must be
     * demoted immediately: the scheme has no clean-exclusive state,
     * so the node relinquishes ownership right after the fill (MSI).
     */
    bool
    demoteExclusiveReadGrant() const
    {
        return demoteExclusiveReadGrant_;
    }

    /** State a store miss fills to (the requester gains ownership). */
    LineState writeFill() const { return LineState::Modified; }

  private:
    std::uint8_t validStates_ = 0;
    LineState readFillExclusive_ = LineState::Exclusive;
    LineState readFillShared_ = LineState::Shared;
    LineState peerReadFill_ = LineState::Shared;
    bool demoteExclusiveReadGrant_ = false;
};

constexpr LineProtocol::LineProtocol(ProtocolScheme scheme)
    : CellTable{enumName(scheme)}
{
    const LineState I = LineState::Invalid;
    const LineState S = LineState::Shared;
    const LineState E = LineState::Exclusive;
    const LineState M = LineState::Modified;
    const LineState O = LineState::Owned;
    const LineState F = LineState::Forward;

    // Invalid is reachable under every scheme (lines start out and
    // are invalidated to it) but its row stays entirely illegal:
    // misses never consult the table, they go through the fill path.

    // Every store that needs the bus names the state it completes in
    // (always M).  Every snoop write supplies: a peer's copy is the
    // data a store miss needs, so the controller only has to obtain
    // permission (an Upgrade, not a data fetch).  A remote read
    // leaves owner-class copies Shared, since the node stops owning the
    // line and a surviving owner-class copy would desynchronise the
    // directory; every other copy stays as it was.

    // --- Shared row: identical across all four schemes ---------------
    // A plain Shared copy supplies snoop reads cache-to-cache, except
    // under MESIF where only the Forward designee answers.
    const bool mesif = scheme == ProtocolScheme::Mesif;
    set(S, LineEvent::LocalStore, {M, kActNeedsBus});
    set(S, LineEvent::SnoopRead,
        {S, std::uint8_t(mesif ? 0 : kActSupplyData)});
    set(S, LineEvent::SnoopWrite, {I, kActSupplyData});
    set(S, LineEvent::RemoteRead, {S, 0});
    set(S, LineEvent::Inval, {I, 0});
    set(S, LineEvent::Evict, {I, 0});

    // --- Modified row ------------------------------------------------
    // MOESI keeps the dirty data in place as Owned on a snoop read
    // (no writeback, node ownership retained); the others flush it
    // home and relinquish.
    const bool moesi = scheme == ProtocolScheme::Moesi;
    set(M, LineEvent::LocalStore, {M, 0});
    if (moesi) {
        set(M, LineEvent::SnoopRead, {O, kActSupplyData});
    } else {
        set(M, LineEvent::SnoopRead,
            {S, kActSupplyData | kActWritebackData | kActRelinquish});
    }
    set(M, LineEvent::SnoopWrite, {I, kActSupplyData});
    set(M, LineEvent::RemoteRead, {S, kActSupplyData | kActWritebackData});
    set(M, LineEvent::Inval, {I, kActWritebackData});
    set(M, LineEvent::Evict, {I, kActWritebackData});

    // --- Exclusive row (all schemes but MSI) --------------------------
    if (scheme != ProtocolScheme::Msi) {
        set(E, LineEvent::LocalStore, {M, 0}); // silent upgrade
        set(E, LineEvent::SnoopRead, {S, kActSupplyData | kActRelinquish});
        set(E, LineEvent::SnoopWrite, {I, kActSupplyData});
        set(E, LineEvent::RemoteRead, {S, kActSupplyData});
        set(E, LineEvent::Inval, {I, 0});
        set(E, LineEvent::Evict, {I, kActReplaceHint});
    }

    // --- Owned row (MOESI) --------------------------------------------
    // Owned arises only from an intra-node snoop read of Modified, so
    // every sharer of an Owned line is on the same bus: a store to
    // Owned upgrades with a local bus transaction alone (no
    // directory round trip — the node still owns the line).
    if (moesi) {
        set(O, LineEvent::LocalStore, {M, kActNeedsBus});
        set(O, LineEvent::SnoopRead, {O, kActSupplyData});
        set(O, LineEvent::SnoopWrite, {I, kActSupplyData});
        set(O, LineEvent::RemoteRead,
            {S, kActSupplyData | kActWritebackData});
        set(O, LineEvent::Inval, {I, kActWritebackData});
        set(O, LineEvent::Evict, {I, kActWritebackData});
    }

    // --- Forward row (MESIF) ------------------------------------------
    // Forward is a clean copy; on a snoop read it supplies and hands
    // the designation to the requester, demoting itself to plain S.
    if (mesif) {
        set(F, LineEvent::LocalStore, {M, kActNeedsBus});
        set(F, LineEvent::SnoopRead, {S, kActSupplyData});
        set(F, LineEvent::SnoopWrite, {I, kActSupplyData});
        set(F, LineEvent::RemoteRead, {F, 0});
        set(F, LineEvent::Inval, {I, 0});
        set(F, LineEvent::Evict, {I, 0});
    }

    // --- Fill policy ---------------------------------------------------
    switch (scheme) {
      case ProtocolScheme::Msi:
        // No clean-exclusive state: every read fills Shared, and an
        // exclusive directory grant is relinquished immediately.
        readFillExclusive_ = S;
        readFillShared_ = S;
        peerReadFill_ = S;
        demoteExclusiveReadGrant_ = true;
        break;
      case ProtocolScheme::Mesi:
      case ProtocolScheme::Moesi:
        readFillExclusive_ = E;
        readFillShared_ = S;
        peerReadFill_ = S;
        break;
      case ProtocolScheme::Mesif:
        // The newest sharer is the Forward designee.
        readFillExclusive_ = E;
        readFillShared_ = F;
        peerReadFill_ = F;
        break;
    }

    // The reachable states: Invalid, every legal cell's state and
    // next state, and every fill state.
    auto reach = [&](LineState st) {
        validStates_ |= 1u << static_cast<unsigned>(st);
    };
    for (LineState st : {I, readFillExclusive_, readFillShared_,
                         peerReadFill_})
        reach(st);
    for (std::size_t st = 0; st < kViews; ++st) {
        for (const Transition &t : cells[st]) {
            if (t.legal) {
                reach(static_cast<LineState>(st));
                reach(t.next);
            }
        }
    }
}

/** Every scheme's line protocol, indexed by ProtocolScheme. */
inline constexpr LineProtocol kLineProtocols[] = {
    LineProtocol(ProtocolScheme::Msi), LineProtocol(ProtocolScheme::Mesi),
    LineProtocol(ProtocolScheme::Moesi),
    LineProtocol(ProtocolScheme::Mesif)};
static_assert(std::size(kLineProtocols) == kNames<ProtocolScheme>.size());

/** The line protocol of @p scheme. */
constexpr const LineProtocol &
lineProtocol(ProtocolScheme scheme)
{
    return kLineProtocols[static_cast<std::size_t>(scheme)];
}

} // namespace prism

#endif // PRISM_COHERENCE_LINE_PROTOCOL_HH
