#include "coherence/home_protocol.hh"

#include "sim/logging.hh"

namespace prism {

const char *
homeViewName(HomeView v)
{
    static const char *const names[kNumHomeViews] = {
        "Uncached", "SharedSender", "SharedOther",
        "OwnedHome", "OwnedSender", "OwnedOther"};
    return names[static_cast<unsigned>(v)];
}

const char *
homeEventName(HomeEvent e)
{
    static const char *const names[kNumHomeEvents] = {
        "ReqS", "ReqX", "Upgrade", "WbKeepShared", "WbRelease",
        "ClientGone", "MigrateFlush"};
    return names[static_cast<unsigned>(e)];
}

const char *
homeNextName(HomeNext n)
{
    static const char *const names[] = {
        "Same", "Uncached", "SenderOwns", "AddSender", "SenderShares",
        "OwnerAndSender", "DropSender", "RemoveSender"};
    return names[static_cast<unsigned>(n)];
}

void
HomeProtocol::set(HomeView v, HomeEvent e, std::uint8_t actions,
                  HomeNext next, HomeHook hook)
{
    table_[static_cast<unsigned>(v)][static_cast<unsigned>(e)] =
        HomeTransition{actions, next, hook, true};
}

const HomeTransition &
HomeProtocol::on(HomeView v, HomeEvent e) const
{
    const HomeTransition *t = tryOn(v, e);
    prism_assert(t, "illegal home transition: %s on %s", homeEventName(e),
                 homeViewName(v));
    return *t;
}

HomeProtocol::HomeProtocol()
{
    using V = HomeView;
    using E = HomeEvent;
    using N = HomeNext;
    using H = HomeHook;

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
        set(V::Uncached, e, kHomeReplyData, N::SenderOwns,
            H::GrantFromMemory);
        for (V v : {V::SharedSender, V::SharedOther}) {
            set(v, e, kHomeReplyData | (write ? kHomeInvalSharers : 0),
                write ? N::SenderOwns : N::AddSender, H::GrantFromMemory);
        }
        set(V::OwnedHome, e, kHomeRecallSelf | kHomeReplyData, granted,
            H::ServeSelfOwned);
        set(V::OwnedOther, e, kHomeFetchOwner, granted, H::None);
    }
    // An upgrading sharer still holds the data: permission only.
    set(V::SharedSender, E::Upgrade, kHomeInvalSharers | kHomeReplyUpgAck,
        N::SenderOwns, H::UpgradeGrant);

    // --- Writebacks ----------------------------------------------------
    // Only the owner's own writeback moves the line.  One arriving at
    // an Uncached line lost a race with nothing newer (ownership moves
    // only through this serialized home), so its dirty data is still
    // the latest and is collected.  Anywhere else it is stale: dropped.
    for (E e : {E::WbKeepShared, E::WbRelease}) {
        set(V::OwnedSender, e, kHomeCollectDirty,
            e == E::WbKeepShared ? N::SenderShares : N::Uncached,
            H::WritebackAccepted);
        set(V::Uncached, e, kHomeCollectDirty, N::Same, H::LateWriteback);
        for (V v : {V::SharedSender, V::SharedOther, V::OwnedHome,
                    V::OwnedOther})
            set(v, e, 0, N::Same, H::None);
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
        set(v, E::ClientGone, 0, N::Same, H::None);
    for (V v : {V::SharedSender, V::SharedOther}) {
        set(v, E::ClientGone, 0, N::DropSender, H::None);
        set(v, E::MigrateFlush, 0, N::DropSender, H::None);
    }
    set(V::Uncached, E::MigrateFlush, 0, N::Same, H::None);
    set(V::OwnedSender, E::MigrateFlush, 0, N::Uncached, H::MigrateFlush);
    set(V::OwnedOther, E::MigrateFlush, 0, N::Same, H::None);
}

const HomeProtocol &
HomeProtocol::get()
{
    static const HomeProtocol proto;
    return proto;
}

HomeView
homeView(const Directory::LineRef &d, NodeId sender, NodeId home)
{
    if (d.state() == DirState::Uncached)
        return HomeView::Uncached;
    if (d.state() == DirState::Shared) {
        return d.isSharer(sender) ? HomeView::SharedSender
                                  : HomeView::SharedOther;
    }
    if (d.owner() == sender)
        return HomeView::OwnedSender;
    return d.owner() == home ? HomeView::OwnedHome : HomeView::OwnedOther;
}

void
applyHomeNext(Directory::LineRef d, HomeNext next, NodeId sender,
              NodeId prev_owner)
{
    using N = HomeNext;
    if (next == N::Same)
        return;
    if (next == N::AddSender) {
        d.addSharer(sender);
        return;
    }
    if (next == N::RemoveSender || next == N::DropSender) {
        d.removeSharer(sender);
        if (next == N::DropSender && d.noSharers())
            d.setState(DirState::Uncached);
        return;
    }
    // Uncached, SenderOwns, SenderShares, OwnerAndSender: a fresh line.
    const bool owns = next == N::SenderOwns;
    d.setState(owns                 ? DirState::Owned
               : next == N::Uncached ? DirState::Uncached
                                     : DirState::Shared);
    d.setOwner(owns ? sender : kInvalidNode);
    d.clearSharers();
    if (next == N::OwnerAndSender)
        d.addSharer(prev_owner);
    if (next == N::SenderShares || next == N::OwnerAndSender)
        d.addSharer(sender);
}

} // namespace prism
