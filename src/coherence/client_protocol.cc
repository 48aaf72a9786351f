#include "coherence/client_protocol.hh"

#include "sim/logging.hh"

namespace prism {

const char *
clientViewName(ClientView v)
{
    static const char *const names[kNumClientViews] = {
        "Invalid",  "Shared",     "Exclusive", "Transit",    "NumaNone",
        "NumaShared", "NumaOwned", "NumaTransit", "Local"};
    return names[static_cast<unsigned>(v)];
}

const char *
clientEventName(ClientEvent e)
{
    static const char *const names[kNumClientEvents] = {
        "BusRead",    "BusWrite",   "BusUpgrade", "GrantShared",
        "GrantExclusive", "GrantVoid", "FillShared", "FillOwned",
        "FillVoid",   "Inv",        "FetchRead",  "FetchWrite",
        "RecallRead", "RecallWrite", "Flush",     "Collect"};
    return names[static_cast<unsigned>(e)];
}

void
ClientProtocol::set(ClientView v, ClientEvent e, std::uint32_t actions,
                    ClientView next, LineEvent snoop)
{
    table_[static_cast<unsigned>(v)][static_cast<unsigned>(e)] =
        ClientTransition{actions, snoop, next, true};
}

void
ClientProtocol::illegal(ClientView v, ClientEvent e)
{
    panic("illegal client transition: %s on %s", clientEventName(e),
          clientViewName(v));
}

ClientProtocol::ClientProtocol()
{
    using V = ClientView;
    using E = ClientEvent;
    constexpr LineEvent kRead = LineEvent::RemoteRead;
    constexpr LineEvent kInval = LineEvent::Inval;
    constexpr LineEvent kEvict = LineEvent::Evict;
    constexpr V kNumaIdle[] = {V::NumaNone, V::NumaShared, V::NumaOwned};

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
        set(V::Local, e, kCliLocalMem, V::Local);
        set(V::Invalid, e, read ? kCliReqShared : kCliReqExclusive,
            V::Transit);
        set(V::Shared, e, read ? kCliLocalMem : kCliReqUpgrade,
            read ? V::Shared : V::Transit);
        set(V::Exclusive, e, kCliLocalMem, V::Exclusive);
        set(V::Transit, e, kCliRetry, V::Transit);
        set(V::NumaNone, e, req, V::NumaTransit);
        set(V::NumaShared, e, req, V::NumaTransit);
        set(V::NumaTransit, e, kCliRetry, V::NumaTransit);
    }

    // --- Grants --------------------------------------------------------
    // A grant lands on the line its request put in Transit; a page
    // flush may have dropped that tag to Invalid meanwhile, and the
    // grant writes the tag all the same (the kernel's quiescence check
    // then flushes the line again).  A shared grant raced by an Inv is
    // void: the line is Invalid and the access retries.  An LA-NUMA
    // grant holds a fill token until the processor fill.
    for (V v : {V::Invalid, V::Transit}) {
        set(v, E::GrantShared, 0, V::Shared);
        set(v, E::GrantExclusive, 0, V::Exclusive);
        set(v, E::GrantVoid, kCliRetry, V::Invalid);
    }
    set(V::NumaTransit, E::GrantShared, kCliHoldFill, V::NumaTransit);
    set(V::NumaTransit, E::GrantExclusive, kCliHoldFill, V::NumaTransit);
    set(V::NumaTransit, E::GrantVoid, kCliRetry, V::NumaNone);

    // --- Fill checks -----------------------------------------------------
    // An M/E fill needs the Exclusive tag, an S/F fill any valid tag.
    // An LA-NUMA fill consumes its token and goes ahead unless a racing
    // Inv marked it; with no token outstanding it goes ahead.  A Local
    // frame always fills.
    for (E e : {E::FillShared, E::FillOwned}) {
        const bool owned = e == E::FillOwned;
        const std::uint32_t any_valid = owned ? 0u : kCliFill;
        set(V::Local, e, kCliFill, V::Local);
        set(V::Invalid, e, 0, V::Invalid);
        set(V::Shared, e, any_valid, V::Shared);
        set(V::Exclusive, e, kCliFill, V::Exclusive);
        set(V::Transit, e, any_valid, V::Transit);
        set(V::NumaTransit, e, kCliEndFill | kCliFill,
            owned ? V::NumaOwned : V::NumaShared);
        for (V v : kNumaIdle) {
            set(v, e, kCliFill,
                owned || v == V::NumaOwned ? V::NumaOwned : V::NumaShared);
        }
    }
    set(V::NumaTransit, E::FillVoid, kCliEndFill, V::NumaNone);

    // --- Invalidation ----------------------------------------------------
    // An Inv takes every local copy and drops a valid tag to Invalid.
    // A Transit line stays Transit: the Inv has already voided the
    // grant or fill in flight.
    for (V v : {V::Invalid, V::Shared, V::Exclusive})
        set(v, E::Inv, kCliSnoop | kCliNoteInval, V::Invalid, kInval);
    set(V::Transit, E::Inv, kCliSnoop | kCliNoteInval, V::Transit, kInval);
    for (V v : kNumaIdle)
        set(v, E::Inv, kCliSnoop | kCliNoteInval, V::NumaNone, kInval);
    set(V::NumaTransit, E::Inv, kCliSnoop | kCliNoteInval, V::NumaTransit,
        kInval);

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
        set(V::Exclusive, e,
            kCliSnoop | kCliCollect | kCliReadLine | kCliServe,
            read ? V::Shared : V::Invalid, snoop);
        for (V v : {V::Invalid, V::Shared, V::Transit})
            set(v, e, 0, v);
        set(V::NumaOwned, e, kCliSnoop | kCliServe,
            read ? V::NumaShared : V::NumaNone, snoop);
        set(V::NumaNone, e, kCliProbe, V::NumaNone, snoop);
        set(V::NumaShared, e, kCliProbe, read ? V::NumaShared : V::NumaNone,
            snoop);
        set(V::NumaTransit, e, kCliProbe, V::NumaTransit, snoop);
    }

    // --- The home recalls its own copy --------------------------------------
    // The home's frame is S-COMA and owns the line (tag Exclusive): a
    // read leaves it Shared, a write Invalid, and a dirty copy goes into
    // home memory.  A Transit line stays Transit.
    for (E e : {E::RecallRead, E::RecallWrite}) {
        const bool read = e == E::RecallRead;
        const LineEvent snoop = read ? kRead : kInval;
        set(V::Exclusive, e, kCliSnoop | kCliCollect,
            read ? V::Shared : V::Invalid, snoop);
        set(V::Transit, e, kCliSnoop | kCliCollect, V::Transit, snoop);
    }

    // --- Page flush and migration collect -------------------------------------
    // A flush evicts every local copy and drops the tag: S-COMA dirty
    // data lands in the page cache, which then writes an owned line
    // home; LA-NUMA copies leave as evictions do.  A line the page
    // cache lacks has no copies.  A collect folds the copies into this
    // node's memory and leaves the tags alone.
    set(V::Invalid, E::Flush, 0, V::Invalid);
    for (V v : {V::Shared, V::Transit})
        set(v, E::Flush, kCliSnoop | kCliRelease, V::Invalid, kEvict);
    set(V::Exclusive, E::Flush,
        kCliSnoop | kCliRelease | kCliReadLine | kCliWriteback, V::Invalid,
        kEvict);
    for (V v : kNumaIdle)
        set(v, E::Flush, kCliSnoop | kCliRelease, V::NumaNone, kEvict);
    set(V::NumaTransit, E::Flush, kCliSnoop | kCliRelease, V::NumaTransit,
        kEvict);
    for (V v : {V::Invalid, V::Shared, V::Exclusive, V::Transit})
        set(v, E::Collect, kCliSnoop | kCliCollect, v, kEvict);
    for (V v : kNumaIdle)
        set(v, E::Collect, kCliSnoop | kCliCollect, V::NumaNone, kEvict);
    set(V::NumaTransit, E::Collect, kCliSnoop | kCliCollect, V::NumaTransit,
        kEvict);
}

const ClientProtocol &
ClientProtocol::get()
{
    static const ClientProtocol proto;
    return proto;
}

} // namespace prism
