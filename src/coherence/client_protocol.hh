/**
 * @file
 * Table-driven client (requester) side of the inter-node protocol.
 *
 * PRISM's controller decides every client-side action from the
 * frame's page mode and, on S-COMA frames, from the line's fine-grain
 * tag (paper Section 3.2, Figure 4).  This module states that decision
 * once, in the mold of the home table (home_protocol.hh): kClientTable,
 * a CellTable (core/table.hh) built at compile time, maps (ClientView,
 * ClientEvent) to a ClientTransition {actions, next view, intervention
 * event}.  Illegal cells are explicit — tryOn() returns nullptr and
 * on() panics naming the cell — e.g. a grant landing on a line that
 * was never in Transit.
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
#include "core/table.hh"

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

template <>
inline constexpr std::array kNames<ClientView> = {
    "Invalid",    "Shared",    "Exclusive",   "Transit", "NumaNone",
    "NumaShared", "NumaOwned", "NumaTransit", "Local"};
template <>
inline constexpr std::array kNames<ClientEvent> = {
    "BusRead",    "BusWrite",    "BusUpgrade", "GrantShared",
    "GrantExclusive", "GrantVoid", "FillShared", "FillOwned",
    "FillVoid",   "Inv",         "FetchRead",  "FetchWrite",
    "RecallRead", "RecallWrite", "Flush",      "Collect"};
static_assert(kNames<ClientView>.size() == kNumClientViews &&
              kNames<ClientEvent>.size() == kNumClientEvents);

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
    ClientView next = ClientView::Invalid;
    /** The intervention's event (kCliSnoop or kCliProbe only). */
    LineEvent snoop = LineEvent::Evict;
    bool legal = false;
};

using ClientTable = CellTable<ClientView, ClientEvent, ClientTransition>;

/** The client protocol's table. */
constexpr ClientTable
clientTable()
{
    using V = ClientView;
    using E = ClientEvent;
    constexpr LineEvent kRead = LineEvent::RemoteRead;
    constexpr LineEvent kInval = LineEvent::Inval;
    constexpr LineEvent kEvict = LineEvent::Evict;
    constexpr V kNumaIdle[] = {V::NumaNone, V::NumaShared, V::NumaOwned};
    ClientTable t{"client"};

    // --- Bus misses ----------------------------------------------------
    // Local memory supplies a Local frame, and an S-COMA line whose tag
    // grants the access; a Transit line retries; otherwise the node
    // asks the home, and the line is Transit until the grant lands.
    // S-COMA picks the request from its tag (a Shared line has the
    // data), LA-NUMA from the bus (a local copy has the data).  An
    // LA-NUMA owner never misses to the controller (its copy supplies
    // the bus), so NumaOwned has no miss cells.
    for (E e : {E::BusRead, E::BusWrite, E::BusUpgrade}) {
        const bool read = e == E::BusRead;
        const std::uint32_t req = read                ? kCliReqShared
                                  : e == E::BusWrite ? kCliReqExclusive
                                                     : kCliReqUpgrade;
        t.set(V::Local, e, {kCliLocalMem, V::Local});
        t.set(V::Invalid, e,
              {read ? kCliReqShared : kCliReqExclusive, V::Transit});
        t.set(V::Shared, e, {read ? kCliLocalMem : kCliReqUpgrade,
                             read ? V::Shared : V::Transit});
        t.set(V::Exclusive, e, {kCliLocalMem, V::Exclusive});
        t.set(V::Transit, e, {kCliRetry, V::Transit});
        t.set(V::NumaNone, e, {req, V::NumaTransit});
        t.set(V::NumaShared, e, {req, V::NumaTransit});
        t.set(V::NumaTransit, e, {kCliRetry, V::NumaTransit});
    }

    // --- Grants --------------------------------------------------------
    // A grant lands on the line its request put in Transit; a page
    // flush may have dropped that tag to Invalid meanwhile, and the
    // grant writes the tag all the same (the kernel's quiescence check
    // then flushes the line again).  A shared grant raced by an Inv is
    // void: the line is Invalid and the access retries.  An LA-NUMA
    // grant holds a fill token until the processor fill.
    for (V v : {V::Invalid, V::Transit}) {
        t.set(v, E::GrantShared, {0, V::Shared});
        t.set(v, E::GrantExclusive, {0, V::Exclusive});
        t.set(v, E::GrantVoid, {kCliRetry, V::Invalid});
    }
    t.set(V::NumaTransit, E::GrantShared, {kCliHoldFill, V::NumaTransit});
    t.set(V::NumaTransit, E::GrantExclusive, {kCliHoldFill, V::NumaTransit});
    t.set(V::NumaTransit, E::GrantVoid, {kCliRetry, V::NumaNone});

    // --- Fill checks -----------------------------------------------------
    // An M/E fill needs the Exclusive tag, an S/F fill any valid tag.
    // An LA-NUMA fill consumes its token and goes ahead unless a racing
    // Inv marked it; with no token outstanding it goes ahead.  A Local
    // frame always fills.
    for (E e : {E::FillShared, E::FillOwned}) {
        const bool owned = e == E::FillOwned;
        const std::uint32_t any_valid = owned ? 0u : kCliFill;
        t.set(V::Local, e, {kCliFill, V::Local});
        t.set(V::Invalid, e, {0, V::Invalid});
        t.set(V::Shared, e, {any_valid, V::Shared});
        t.set(V::Exclusive, e, {kCliFill, V::Exclusive});
        t.set(V::Transit, e, {any_valid, V::Transit});
        t.set(V::NumaTransit, e, {kCliEndFill | kCliFill,
                                  owned ? V::NumaOwned : V::NumaShared});
        for (V v : kNumaIdle) {
            t.set(v, e, {kCliFill, owned || v == V::NumaOwned
                                       ? V::NumaOwned
                                       : V::NumaShared});
        }
    }
    t.set(V::NumaTransit, E::FillVoid, {kCliEndFill, V::NumaNone});

    // --- Invalidation ----------------------------------------------------
    // An Inv takes every local copy and drops a valid tag to Invalid.
    // A Transit line stays Transit: the Inv has already voided the
    // grant or fill in flight.
    constexpr std::uint32_t kInvAct = kCliSnoop | kCliNoteInval;
    for (V v : {V::Invalid, V::Shared, V::Exclusive})
        t.set(v, E::Inv, {kInvAct, V::Invalid, kInval});
    t.set(V::Transit, E::Inv, {kInvAct, V::Transit, kInval});
    for (V v : kNumaIdle)
        t.set(v, E::Inv, {kInvAct, V::NumaNone, kInval});
    t.set(V::NumaTransit, E::Inv, {kInvAct, V::NumaTransit, kInval});

    // --- 3-party fetch at the owner ----------------------------------------
    // An S-COMA owner (tag Exclusive) intervenes, collects any dirty copy
    // into its page cache, reads the line there and serves it; a read
    // leaves it Shared.  Any other tag nacks at once.  An LA-NUMA node
    // intervenes before it knows whether it owns the line: only an
    // owner-class copy serves, and otherwise the intervention is a
    // probe and the nack goes out without waiting for the bus.
    for (E e : {E::FetchRead, E::FetchWrite}) {
        const bool read = e == E::FetchRead;
        const LineEvent snoop = read ? kRead : kInval;
        t.set(V::Exclusive, e,
              {kCliSnoop | kCliCollect | kCliReadLine | kCliServe,
               read ? V::Shared : V::Invalid, snoop});
        for (V v : {V::Invalid, V::Shared, V::Transit})
            t.set(v, e, {0, v});
        t.set(V::NumaOwned, e, {kCliSnoop | kCliServe,
                                read ? V::NumaShared : V::NumaNone, snoop});
        t.set(V::NumaNone, e, {kCliProbe, V::NumaNone, snoop});
        t.set(V::NumaShared, e, {kCliProbe,
                                 read ? V::NumaShared : V::NumaNone, snoop});
        t.set(V::NumaTransit, e, {kCliProbe, V::NumaTransit, snoop});
    }

    // --- The home recalls its own copy --------------------------------------
    // The home's frame is S-COMA and owns the line (tag Exclusive): a
    // read leaves it Shared, a write Invalid, and a dirty copy goes into
    // home memory.  A Transit line stays Transit.
    for (E e : {E::RecallRead, E::RecallWrite}) {
        const bool read = e == E::RecallRead;
        const LineEvent snoop = read ? kRead : kInval;
        t.set(V::Exclusive, e, {kCliSnoop | kCliCollect,
                                read ? V::Shared : V::Invalid, snoop});
        t.set(V::Transit, e, {kCliSnoop | kCliCollect, V::Transit, snoop});
    }

    // --- Page flush and migration collect -----------------------------------
    // A flush evicts every local copy and drops the tag: S-COMA dirty
    // data lands in the page cache, which then writes an owned line
    // home; LA-NUMA copies leave as evictions do.  A line the page
    // cache lacks has no copies.  A collect folds the copies into this
    // node's memory and leaves the tags alone.
    constexpr std::uint32_t kFlushAct = kCliSnoop | kCliRelease;
    t.set(V::Invalid, E::Flush, {0, V::Invalid});
    for (V v : {V::Shared, V::Transit})
        t.set(v, E::Flush, {kFlushAct, V::Invalid, kEvict});
    t.set(V::Exclusive, E::Flush,
          {kFlushAct | kCliReadLine | kCliWriteback, V::Invalid, kEvict});
    for (V v : kNumaIdle)
        t.set(v, E::Flush, {kFlushAct, V::NumaNone, kEvict});
    t.set(V::NumaTransit, E::Flush, {kFlushAct, V::NumaTransit, kEvict});
    constexpr std::uint32_t kCollectAct = kCliSnoop | kCliCollect;
    for (V v : {V::Invalid, V::Shared, V::Exclusive, V::Transit})
        t.set(v, E::Collect, {kCollectAct, v, kEvict});
    for (V v : kNumaIdle)
        t.set(v, E::Collect, {kCollectAct, V::NumaNone, kEvict});
    t.set(V::NumaTransit, E::Collect, {kCollectAct, V::NumaTransit, kEvict});
    return t;
}

inline constexpr ClientTable kClientTable = clientTable();

} // namespace prism

#endif // PRISM_COHERENCE_CLIENT_PROTOCOL_HH
