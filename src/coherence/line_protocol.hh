/**
 * @file
 * Table-driven intra-node line protocol.
 *
 * The node bus (core/node) and processor caches (core/proc) used to
 * hard-code MESI; this module factors the per-line state machine out
 * into a data table per scheme so drop-in variants share one engine.
 * A protocol is a 6x6 table mapping (LineState, LineEvent) to a
 * Transition {next state, action flags}; illegal pairs are explicit
 * (tryOn() returns nullptr, on() panics) so conformance tests can
 * prove there are no silent holes.
 *
 * Division of labour: the table covers transitions of *valid* lines.
 * Misses (Invalid rows) are resolved by the bus/controller fill path,
 * which asks the protocol fill-policy queries (readFill(),
 * peerReadFill(), ...) what state to install — the Invalid row is
 * therefore entirely illegal by design.
 *
 * The inter-node directory protocol is the other table-driven level:
 * the home table of coherence/home_protocol.hh.  It is the same under
 * every scheme here — it tracks node-level Owned/Shared, and every
 * scheme maps owner-class processor states onto node-level ownership
 * the same way (see ownerClass() in mem/cache).
 */

#ifndef PRISM_COHERENCE_LINE_PROTOCOL_HH
#define PRISM_COHERENCE_LINE_PROTOCOL_HH

#include <cstdint>

#include "core/config.hh"
#include "mem/cache.hh"

namespace prism {

/** Events a valid processor-cache line can observe. */
enum class LineEvent : std::uint8_t {
    LocalLoad,  //!< own processor loads (cache hit path)
    LocalStore, //!< own processor stores (hit or upgrade decision)
    SnoopRead,  //!< another processor's read appears on the node bus
    SnoopWrite, //!< another processor's write/upgrade on the node bus
    Inval,      //!< inter-node invalidation from the home directory
    Evict,      //!< replacement selects this line as victim
};

constexpr std::uint32_t kNumLineStates = 6;
constexpr std::uint32_t kNumLineEvents = 6;

/** Human-readable event name. */
const char *lineEventName(LineEvent e);

/** Side effects a transition demands of the bus/controller engine. */
enum LineAction : std::uint8_t {
    /** Supply the line's data to the requester (cache-to-cache). */
    kActSupplyData = 1u << 0,
    /** Write the (dirty) data back toward home/memory. */
    kActWritebackData = 1u << 1,
    /**
     * Node-level ownership is given up: tell the coherence controller
     * so the home directory can downgrade this node to Shared.
     */
    kActRelinquish = 1u << 2,
    /** The access cannot complete locally; start a bus transaction. */
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
    const Transition &on(LineState s, LineEvent e) const;

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

    /**
     * True if only a designated copy supplies shared lines
     * cache-to-cache: plain Shared copies stay silent on snoop reads
     * and a miss with only plain-S peers falls through to the
     * controller fill path (MESIF).
     */
    bool
    sharedSupplyNeedsDesignee() const
    {
        return sharedSupplyNeedsDesignee_;
    }

  private:
    explicit LineProtocol(ProtocolScheme scheme);

    void set(LineState s, LineEvent e, LineState next,
             std::uint8_t actions);

    ProtocolScheme scheme_;
    Transition table_[kNumLineStates][kNumLineEvents];
    std::uint8_t validStates_ = 0;
    LineState readFillExclusive_ = LineState::Exclusive;
    LineState readFillShared_ = LineState::Shared;
    LineState peerReadFill_ = LineState::Shared;
    bool demoteExclusiveReadGrant_ = false;
    bool sharedSupplyNeedsDesignee_ = false;
};

} // namespace prism

#endif // PRISM_COHERENCE_LINE_PROTOCOL_HH
