/**
 * @file
 * Table-driven intra-node line protocol.
 *
 * A scheme is a 6x6 table mapping (LineState, LineEvent) to a
 * Transition {next state, action flags}; illegal pairs are explicit
 * (tryOn() returns nullptr, on() panics) so conformance tests can
 * prove there are no silent holes.
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

/** Human-readable event name. */
const char *lineEventName(LineEvent e);

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
 * A line-protocol scheme: the transition table plus the fill-policy
 * queries the miss path needs.  Instances are immutable singletons —
 * get() hands out one per ProtocolScheme.
 */
class LineProtocol
{
  public:
    /** The singleton protocol for @p scheme. */
    static const LineProtocol &get(ProtocolScheme scheme);

    ProtocolScheme scheme() const { return scheme_; }
    const char *name() const { return protocolName(scheme_); }

    /** True if @p s is a reachable state under this scheme. */
    bool
    stateValid(LineState s) const
    {
        return (validStates_ >> static_cast<unsigned>(s)) & 1u;
    }

    /**
     * The transition for (s, e), or nullptr if the pair is illegal
     * under this scheme (never happens in a correct engine).
     */
    const Transition *
    tryOn(LineState s, LineEvent e) const
    {
        const Transition &t =
            table_[static_cast<unsigned>(s)][static_cast<unsigned>(e)];
        return t.legal ? &t : nullptr;
    }

    /** The transition for (s, e); panics if the pair is illegal. */
    const Transition &
    on(LineState s, LineEvent e) const
    {
        const Transition &t =
            table_[static_cast<unsigned>(s)][static_cast<unsigned>(e)];
        if (!t.legal) [[unlikely]]
            illegal(s, e);
        return t;
    }

    /**
     * True if a store to a line held @p s commits in place: no state
     * change and no bus transaction (the line is already writable).
     */
    bool
    storeInPlace(LineState s) const
    {
        const Transition &t =
            table_[static_cast<unsigned>(s)]
                  [static_cast<unsigned>(LineEvent::LocalStore)];
        return t.legal && t.next == s && t.actions == 0;
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
    explicit LineProtocol(ProtocolScheme scheme);

    void set(LineState s, LineEvent e, LineState next,
             std::uint8_t actions);
    [[noreturn]] void illegal(LineState s, LineEvent e) const;

    ProtocolScheme scheme_;
    Transition table_[kNumLineStates][kNumLineEvents];
    std::uint8_t validStates_ = 0;
    LineState readFillExclusive_ = LineState::Exclusive;
    LineState readFillShared_ = LineState::Shared;
    LineState peerReadFill_ = LineState::Shared;
    bool demoteExclusiveReadGrant_ = false;
};

} // namespace prism

#endif // PRISM_COHERENCE_LINE_PROTOCOL_HH
