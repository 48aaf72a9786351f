#include "coherence/line_protocol.hh"

#include "sim/logging.hh"

namespace prism {

const char *
lineEventName(LineEvent e)
{
    switch (e) {
      case LineEvent::LocalStore: return "LocalStore";
      case LineEvent::SnoopRead: return "SnoopRead";
      case LineEvent::SnoopWrite: return "SnoopWrite";
      case LineEvent::RemoteRead: return "RemoteRead";
      case LineEvent::Inval: return "Inval";
      case LineEvent::Evict: return "Evict";
    }
    return "?";
}

void
LineProtocol::set(LineState s, LineEvent e, LineState next,
                  std::uint8_t actions)
{
    Transition &t =
        table_[static_cast<unsigned>(s)][static_cast<unsigned>(e)];
    t.next = next;
    t.actions = actions;
    t.legal = true;
    validStates_ |= 1u << static_cast<unsigned>(s);
    validStates_ |= 1u << static_cast<unsigned>(next);
}

void
LineProtocol::illegal(LineState s, LineEvent e) const
{
    panic("illegal %s transition: %s on %s", name(), lineEventName(e),
          mesiName(s));
}

LineProtocol::LineProtocol(ProtocolScheme scheme) : scheme_(scheme)
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
    validStates_ |= 1u << static_cast<unsigned>(LineState::Invalid);

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
    set(S, LineEvent::LocalStore, M, kActNeedsBus);
    set(S, LineEvent::SnoopRead, S, mesif ? 0 : kActSupplyData);
    set(S, LineEvent::SnoopWrite, I, kActSupplyData);
    set(S, LineEvent::RemoteRead, S, 0);
    set(S, LineEvent::Inval, I, 0);
    set(S, LineEvent::Evict, I, 0);

    // --- Modified row ------------------------------------------------
    // MOESI keeps the dirty data in place as Owned on a snoop read
    // (no writeback, node ownership retained); the others flush it
    // home and relinquish.
    const bool moesi = scheme == ProtocolScheme::Moesi;
    set(M, LineEvent::LocalStore, M, 0);
    if (moesi) {
        set(M, LineEvent::SnoopRead, O, kActSupplyData);
    } else {
        set(M, LineEvent::SnoopRead, S,
            kActSupplyData | kActWritebackData | kActRelinquish);
    }
    set(M, LineEvent::SnoopWrite, I, kActSupplyData);
    set(M, LineEvent::RemoteRead, S, kActSupplyData | kActWritebackData);
    set(M, LineEvent::Inval, I, kActWritebackData);
    set(M, LineEvent::Evict, I, kActWritebackData);

    // --- Exclusive row (all schemes but MSI) --------------------------
    if (scheme != ProtocolScheme::Msi) {
        set(E, LineEvent::LocalStore, M, 0); // silent upgrade
        set(E, LineEvent::SnoopRead, S,
            kActSupplyData | kActRelinquish);
        set(E, LineEvent::SnoopWrite, I, kActSupplyData);
        set(E, LineEvent::RemoteRead, S, kActSupplyData);
        set(E, LineEvent::Inval, I, 0);
        set(E, LineEvent::Evict, I, kActReplaceHint);
    }

    // --- Owned row (MOESI) --------------------------------------------
    // Owned arises only from an intra-node snoop read of Modified, so
    // every sharer of an Owned line is on the same bus: a store to
    // Owned upgrades with a local bus transaction alone (no
    // directory round trip — the node still owns the line).
    if (moesi) {
        set(O, LineEvent::LocalStore, M, kActNeedsBus);
        set(O, LineEvent::SnoopRead, O, kActSupplyData);
        set(O, LineEvent::SnoopWrite, I, kActSupplyData);
        set(O, LineEvent::RemoteRead, S,
            kActSupplyData | kActWritebackData);
        set(O, LineEvent::Inval, I, kActWritebackData);
        set(O, LineEvent::Evict, I, kActWritebackData);
    }

    // --- Forward row (MESIF) ------------------------------------------
    // Forward is a clean copy; on a snoop read it supplies and hands
    // the designation to the requester, demoting itself to plain S.
    if (mesif) {
        set(F, LineEvent::LocalStore, M, kActNeedsBus);
        set(F, LineEvent::SnoopRead, S, kActSupplyData);
        set(F, LineEvent::SnoopWrite, I, kActSupplyData);
        set(F, LineEvent::RemoteRead, F, 0);
        set(F, LineEvent::Inval, I, 0);
        set(F, LineEvent::Evict, I, 0);
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
    validStates_ |= 1u << static_cast<unsigned>(readFillExclusive_);
    validStates_ |= 1u << static_cast<unsigned>(readFillShared_);
    validStates_ |= 1u << static_cast<unsigned>(peerReadFill_);
}

const LineProtocol &
LineProtocol::get(ProtocolScheme scheme)
{
    static const LineProtocol msi{ProtocolScheme::Msi};
    static const LineProtocol mesi{ProtocolScheme::Mesi};
    static const LineProtocol moesi{ProtocolScheme::Moesi};
    static const LineProtocol mesif{ProtocolScheme::Mesif};
    switch (scheme) {
      case ProtocolScheme::Msi: return msi;
      case ProtocolScheme::Mesi: return mesi;
      case ProtocolScheme::Moesi: return moesi;
      case ProtocolScheme::Mesif: return mesif;
    }
    return mesi;
}

} // namespace prism
