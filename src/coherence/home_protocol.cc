#include "coherence/home_protocol.hh"

namespace prism {

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
