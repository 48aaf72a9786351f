/**
 * @file
 * Table-driven home side of the inter-node directory protocol.
 *
 * PRISM serializes every 2- and 3-party transaction at the page's
 * dynamic home, whose full-map directory decides what a request, a
 * writeback, a client page-out or a migration does to a line (paper
 * Section 3).  This module states that decision once, in the mold of
 * the intra-node line protocol (line_protocol.hh): kHomeTable, a
 * CellTable (core/table.hh) built at compile time, maps (HomeView,
 * HomeEvent) to a HomeTransition {actions, next directory state,
 * oracle hook}.  Illegal cells are explicit — tryOn() returns nullptr
 * and on() panics naming the cell — e.g. a request from the line's
 * current owner.
 *
 * The view is the directory line as seen from the event's sender:
 * Shared splits on whether the sender is in the sharer set, Owned on
 * whether the owner is the home, the sender or a third node (a
 * sender that is also the owner classifies as OwnedSender).
 *
 * CoherenceController interprets a cell: it performs the actions'
 * waits in a fixed order (inline self-invalidation, serialized Inv
 * fan-out, recall of the home's own copy, 3-party Fetch with nack
 * re-dispatch, memory read for a Data reply), then in one synchronous
 * step writes the next state with applyHomeNext(), calls the oracle
 * hook and sends the grant.  applyHomeNext() is the only code outside
 * Directory that writes directory lines.
 */

#ifndef PRISM_COHERENCE_HOME_PROTOCOL_HH
#define PRISM_COHERENCE_HOME_PROTOCOL_HH

#include <cstdint>

#include "coherence/directory.hh"
#include "core/table.hh"

namespace prism {

/** A directory line as seen from the event's sender. */
enum class HomeView : std::uint8_t {
    Uncached,     //!< no node holds a copy
    SharedSender, //!< Shared, the sender is in the sharer set
    SharedOther,  //!< Shared, the sender is not
    OwnedHome,    //!< Owned by the home node itself
    OwnedSender,  //!< Owned by the sender
    OwnedOther,   //!< Owned by a third node
};

/** What happened to the line at the home. */
enum class HomeEvent : std::uint8_t {
    ReqS,         //!< read request
    ReqX,         //!< write request (data and ownership)
    Upgrade,      //!< write request from a node holding the data
    WbKeepShared, //!< Writeback; the sender keeps a Shared copy
    WbRelease,    //!< Writeback or ReplaceHint giving the line up
    ClientGone,   //!< the sender paged its client copy out
    /**
     * The sender — the old home of a departing page, the new home of an
     * arriving one, or a home paging its page out — folded its own
     * copies into memory.
     */
    MigrateFlush,
};

constexpr std::uint32_t kNumHomeViews = 6;
constexpr std::uint32_t kNumHomeEvents = 7;

template <>
inline constexpr std::array kNames<HomeView> = {
    "Uncached",  "SharedSender", "SharedOther",
    "OwnedHome", "OwnedSender",  "OwnedOther"};
template <>
inline constexpr std::array kNames<HomeEvent> = {
    "ReqS",      "ReqX",       "Upgrade",     "WbKeepShared",
    "WbRelease", "ClientGone", "MigrateFlush"};
static_assert(kNames<HomeView>.size() == kNumHomeViews &&
              kNames<HomeEvent>.size() == kNumHomeEvents);

/**
 * Work a cell asks of the interpreter, performed in declaration order.
 * A grant makes the sender owner exactly when the next state is
 * HomeNext::SenderOwns.
 */
enum HomeAction : std::uint8_t {
    /**
     * Invalidate every sharer but the sender: the home's own copy
     * inline, the others by serialized Inv messages whose acks the
     * sender collects.
     */
    kHomeInvalSharers = 1u << 0,
    /** Recall the home's own owner copy by a local intervention. */
    kHomeRecallSelf = 1u << 1,
    /** 3-party: Fetch from the owner; a FetchNack re-dispatches. */
    kHomeFetchOwner = 1u << 2,
    /** Read the line from home memory and reply Data to the sender. */
    kHomeReplyData = 1u << 3,
    /** Reply UpgAck: the sender keeps its own data. */
    kHomeReplyUpgAck = 1u << 4,
    /** Write the message's dirty data, if any, into home memory. */
    kHomeCollectDirty = 1u << 5,
};

/** How a transition rewrites the directory line. */
enum class HomeNext : std::uint8_t {
    Same,           //!< left as it is
    Uncached,       //!< no copies anywhere
    SenderOwns,     //!< Owned by the sender
    AddSender,      //!< Shared; the sender joins the set
    SenderShares,   //!< Shared by the sender alone
    OwnerAndSender, //!< Shared by the previous owner and the sender
    DropSender,     //!< the sender leaves; Uncached once the set empties
    /**
     * The sender leaves the set and the state is left alone: the
     * first step of kHomeInvalSharers, when the home drops its own
     * copy before the cell's final write.  Never a cell's next state.
     */
    RemoveSender,
};

template <>
inline constexpr std::array kNames<HomeNext> = {
    "Same",         "Uncached",       "SenderOwns", "AddSender",
    "SenderShares", "OwnerAndSender", "DropSender", "RemoveSender"};
static_assert(namedThrough(HomeNext::RemoveSender));

/**
 * The shadow-value rule a transition reports to the protocol oracle
 * (ProtocolOracle::onHomeTransition).
 */
enum class HomeHook : std::uint8_t {
    None,
    GrantFromMemory,   //!< memory must hold the latest value
    UpgradeGrant,      //!< the upgrading sender's copy must be latest
    ServeSelfOwned,    //!< the home's own copy must be latest
    WritebackAccepted, //!< the owner's value becomes memory
    LateWriteback,     //!< as WritebackAccepted, only for dirty data
    MigrateFlush,      //!< the flushing home's value becomes memory
};

/** One table cell. */
struct HomeTransition {
    std::uint8_t actions = 0;
    HomeNext next = HomeNext::Same;
    HomeHook hook = HomeHook::None;
    bool legal = false;
};

using HomeTable = CellTable<HomeView, HomeEvent, HomeTransition>;

/** The home protocol's table. */
constexpr HomeTable
homeTable()
{
    using V = HomeView;
    using E = HomeEvent;
    using N = HomeNext;
    using H = HomeHook;
    HomeTable t{"home"};

    // --- Requests ------------------------------------------------------
    // An uncached line is granted with ownership even to a read (the
    // requester may fill it exclusive).  A write to a shared line
    // invalidates the other sharers and grants ownership; an owned
    // line is recalled from the home's own copy (2-party) or fetched
    // from the remote owner (3-party), and a read leaves the old owner
    // sharing with the requester.  OwnedSender stays illegal: a node
    // never re-requests a line it owns.
    for (E e : {E::ReqS, E::ReqX, E::Upgrade}) {
        const bool write = e != E::ReqS;
        const N granted = write ? N::SenderOwns : N::OwnerAndSender;
        t.set(V::Uncached, e,
              {kHomeReplyData, N::SenderOwns, H::GrantFromMemory});
        for (V v : {V::SharedSender, V::SharedOther}) {
            t.set(v, e,
                  {std::uint8_t(kHomeReplyData |
                                (write ? kHomeInvalSharers : 0)),
                   write ? N::SenderOwns : N::AddSender,
                   H::GrantFromMemory});
        }
        t.set(V::OwnedHome, e,
              {kHomeRecallSelf | kHomeReplyData, granted, H::ServeSelfOwned});
        t.set(V::OwnedOther, e, {kHomeFetchOwner, granted, H::None});
    }
    // An upgrading sharer still holds the data: permission only.
    t.set(V::SharedSender, E::Upgrade,
          {kHomeInvalSharers | kHomeReplyUpgAck, N::SenderOwns,
           H::UpgradeGrant});

    // --- Writebacks ----------------------------------------------------
    // Only the owner's own writeback moves the line.  One arriving at
    // an Uncached line lost a race with nothing newer (ownership moves
    // only through this serialized home), so its dirty data is still
    // the latest and is collected.  Anywhere else it is stale: dropped.
    for (E e : {E::WbKeepShared, E::WbRelease}) {
        t.set(V::OwnedSender, e,
              {kHomeCollectDirty,
               e == E::WbKeepShared ? N::SenderShares : N::Uncached,
               H::WritebackAccepted});
        t.set(V::Uncached, e, {kHomeCollectDirty, N::Same, H::LateWriteback});
        for (V v : {V::SharedSender, V::SharedOther, V::OwnedHome,
                    V::OwnedOther})
            t.set(v, e, {0, N::Same, H::None});
    }

    // --- Client page-out and migration flush ----------------------------
    // A departing client leaves every sharer set.  An Owned(client) line
    // is left alone: the client's page-out flush put its Writeback (or
    // ReplaceHint) in flight before the PageOutNotice, so under
    // pairwise-FIFO delivery it is already in the home's pipeline and
    // performs the release carrying the data.  Resetting the line here
    // would let a racing request read stale memory while that writeback
    // still pays its occupancy delays; until it lands, requests take the
    // 3-party path and retry on FetchNack.  A migration flush (the
    // sender is the home itself) also folds the sender's owned lines
    // into memory, so a home-owned line shows as OwnedSender there.
    for (V v : {V::Uncached, V::OwnedHome, V::OwnedSender, V::OwnedOther})
        t.set(v, E::ClientGone, {0, N::Same, H::None});
    for (V v : {V::SharedSender, V::SharedOther}) {
        t.set(v, E::ClientGone, {0, N::DropSender, H::None});
        t.set(v, E::MigrateFlush, {0, N::DropSender, H::None});
    }
    t.set(V::Uncached, E::MigrateFlush, {0, N::Same, H::None});
    t.set(V::OwnedSender, E::MigrateFlush,
          {0, N::Uncached, H::MigrateFlush});
    t.set(V::OwnedOther, E::MigrateFlush, {0, N::Same, H::None});
    return t;
}

inline constexpr HomeTable kHomeTable = homeTable();

/** Classify line @p d as seen from @p sender at home node @p home. */
HomeView homeView(const Directory::LineRef &d, NodeId sender, NodeId home);

/**
 * Write @p next into line @p d.  @p prev_owner is the owner the
 * transaction found (OwnerAndSender only).
 */
void applyHomeNext(Directory::LineRef d, HomeNext next, NodeId sender,
                   NodeId prev_owner);

} // namespace prism

#endif // PRISM_COHERENCE_HOME_PROTOCOL_HH
