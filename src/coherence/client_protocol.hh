/**
 * @file
 * Table-driven client (requester) side of the inter-node protocol.
 *
 * PRISM's controller decides every client-side action from the
 * frame's page mode and, on S-COMA frames, from the line's fine-grain
 * tag (paper Section 3.2, Figure 4).  This module states that decision
 * once, in the mold of the home table (home_protocol.hh): an immutable
 * table maps (ClientView, ClientEvent) to a ClientTransition {actions,
 * intervention event, next view}.  Illegal cells are explicit —
 * tryOn() returns nullptr and on() panics naming the cell — e.g. a
 * grant landing on a line that was never in Transit.
 *
 * The view is what the node knows of the line.  On an S-COMA frame it
 * is the line's tag.  On an LA-NUMA or CC-NUMA frame it is Transit
 * while a client transaction or fill token is outstanding, and
 * otherwise the strongest local processor copy.  A Local frame is
 * private memory.
 *
 * CoherenceController interprets a cell with one line step: intervene
 * on the local copies with the cell's LineEvent, write the next view
 * as the line's tag (S-COMA), wait for the bus, then collect or
 * release the copies' dirty data.  Apart from page install, every
 * fine-grain tag write is the next view of a cell written by that
 * step.
 */

#ifndef PRISM_COHERENCE_CLIENT_PROTOCOL_HH
#define PRISM_COHERENCE_CLIENT_PROTOCOL_HH

#include <cstdint>

#include "coherence/fine_grain_tags.hh"
#include "coherence/line_protocol.hh"

namespace prism {

/** What the node knows of one line. */
enum class ClientView : std::uint8_t {
    // S-COMA frame: the line's fine-grain tag (FgTag order).
    Invalid,
    Shared,
    Exclusive,
    Transit,
    // LA-NUMA or CC-NUMA frame.
    NumaNone,    //!< no local copy
    NumaShared,  //!< only non-owner copies (S, F)
    NumaOwned,   //!< an owner-class copy (M, E, O)
    NumaTransit, //!< a client transaction or fill token outstanding
    Local,       //!< Local-mode frame: private memory
};

/** What happened to the line at the client. */
enum class ClientEvent : std::uint8_t {
    BusRead,    //!< a processor read missed on the node bus
    BusWrite,   //!< a write missed, no local copy has the data
    BusUpgrade, //!< a write missed, a local copy has the data
    GrantShared,    //!< the home's (or owner's) shared grant landed
    GrantExclusive, //!< an exclusive grant landed
    GrantVoid,      //!< a shared grant landed after a racing Inv
    FillShared, //!< fill check before an S/F processor fill
    FillOwned,  //!< fill check before an M/E fill
    FillVoid,   //!< fill check whose fill token a racing Inv marked
    Inv,        //!< the home invalidates this node's copy
    FetchRead,  //!< 3-party: the home fetches the line for a reader
    FetchWrite, //!< 3-party: the home fetches the line for a writer
    RecallRead, //!< the home recalls its own copy for a reader
    RecallWrite, //!< the home recalls its own copy for a writer
    Flush,      //!< page-out flush of the client page
    Collect,    //!< migration collects the copies into memory
};

constexpr std::uint32_t kNumClientViews = 9;
constexpr std::uint32_t kNumClientEvents = 16;

const char *clientViewName(ClientView v);
const char *clientEventName(ClientEvent e);

/** True for the four S-COMA views (a tag); their next is written. */
constexpr bool
isTagView(ClientView v)
{
    return v <= ClientView::Transit;
}

/** The view of an S-COMA line tagged @p t. */
constexpr ClientView
tagView(FgTag t)
{
    return static_cast<ClientView>(t);
}

/** The tag an S-COMA view names. */
constexpr FgTag
viewTag(ClientView v)
{
    return static_cast<FgTag>(v);
}

/**
 * Work a cell asks of the controller.  A miss cell does one of
 * kCliLocalMem, kCliRetry or a request; a Fetch cell without kCliServe
 * answers FetchNack.  The line step performs the snoop flags in
 * declaration order.
 */
enum ClientAction : std::uint32_t {
    /** Local memory (or the page cache) supplies the line. */
    kCliLocalMem = 1u << 0,
    /** The bus retries the access. */
    kCliRetry = 1u << 1,
    /** Request a shared copy (ReqS). */
    kCliReqShared = 1u << 2,
    /** Request data and ownership (ReqX). */
    kCliReqExclusive = 1u << 3,
    /** Request ownership for data held locally (Upgrade). */
    kCliReqUpgrade = 1u << 4,
    /** Hold a fill token until the processor fill (LA-/CC-NUMA). */
    kCliHoldFill = 1u << 5,
    /** Consume the fill token. */
    kCliEndFill = 1u << 6,
    /** The processor fill may go ahead. */
    kCliFill = 1u << 7,
    /** Intervene with the cell's LineEvent and wait for the bus. */
    kCliSnoop = 1u << 8,
    /** Intervene without waiting: the answer goes out at once. */
    kCliProbe = 1u << 9,
    /** Tell the protocol oracle the node's copy is gone. */
    kCliNoteInval = 1u << 10,
    /** Write the snoop's dirty data into this node's memory. */
    kCliCollect = 1u << 11,
    /**
     * The snoop's line actions go out as evictions do: S-COMA dirty
     * data into the page cache, LA-NUMA writebacks and hints home.
     */
    kCliRelease = 1u << 12,
    /** Read the line from this node's memory. */
    kCliReadLine = 1u << 13,
    /** Write the line back to the home (it was owned here). */
    kCliWriteback = 1u << 14,
    /** Serve a Fetch: DataFwd to the requester, XferNotice home. */
    kCliServe = 1u << 15,
};

/** One table cell. */
struct ClientTransition {
    std::uint32_t actions = 0;
    /** The intervention's event (kCliSnoop or kCliProbe only). */
    LineEvent snoop = LineEvent::Evict;
    ClientView next = ClientView::Invalid;
    bool legal = false;
};

/** The client protocol: one immutable table (get()). */
class ClientProtocol
{
  public:
    static const ClientProtocol &get();

    /** The cell for (v, e), or nullptr if it is illegal. */
    const ClientTransition *
    tryOn(ClientView v, ClientEvent e) const
    {
        const ClientTransition &t =
            table_[static_cast<unsigned>(v)][static_cast<unsigned>(e)];
        return t.legal ? &t : nullptr;
    }

    /** The cell for (v, e); panics naming it if it is illegal. */
    const ClientTransition &
    on(ClientView v, ClientEvent e) const
    {
        const ClientTransition &t =
            table_[static_cast<unsigned>(v)][static_cast<unsigned>(e)];
        if (!t.legal) [[unlikely]]
            illegal(v, e);
        return t;
    }

  private:
    ClientProtocol();

    [[noreturn]] static void illegal(ClientView v, ClientEvent e);

    void set(ClientView v, ClientEvent e, std::uint32_t actions,
             ClientView next, LineEvent snoop = LineEvent::Evict);

    ClientTransition table_[kNumClientViews][kNumClientEvents];
};

} // namespace prism

#endif // PRISM_COHERENCE_CLIENT_PROTOCOL_HH
