/**
 * @file
 * Exhaustive conformance for the home directory protocol table
 * (coherence/home_protocol).
 *
 * The expectation table below is written out independently of the
 * implementation, cell by cell.  Every one of the 6 x 7 (view, event)
 * cells is either
 *   - a legal transition, whose actions, next state and oracle hook
 *     must match the expectation exactly, or
 *   - an asserted-illegal cell: tryOn() must return null and on() must
 *     die naming the cell.
 * Each legal cell's next state is then applied to a real directory
 * line at 4 and at 130 nodes (the sharer set spills past one word)
 * and must land on the expected line and keep the directory
 * invariants: Owned => a valid owner and no sharers; Shared => at
 * least one sharer and no owner; Uncached => neither.  Last, a 4x2
 * machine reaches three cells through the running controller
 * (CoherenceController::homeCellHits).
 */

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/home_protocol.hh"
#include "coherence/page_record.hh"
#include "core/machine.hh"
#include "sim/event_queue.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

using V = HomeView;
using E = HomeEvent;
using N = HomeNext;
using H = HomeHook;

constexpr V kViews[kNumHomeViews] = {
    V::Uncached,  V::SharedSender, V::SharedOther,
    V::OwnedHome, V::OwnedSender,  V::OwnedOther,
};

constexpr E kEvents[kNumHomeEvents] = {
    E::ReqS,      E::ReqX,       E::Upgrade,      E::WbKeepShared,
    E::WbRelease, E::ClientGone, E::MigrateFlush,
};

constexpr std::uint8_t IS = kHomeInvalSharers;
constexpr std::uint8_t RS = kHomeRecallSelf;
constexpr std::uint8_t FO = kHomeFetchOwner;
constexpr std::uint8_t RD = kHomeReplyData;
constexpr std::uint8_t UA = kHomeReplyUpgAck;
constexpr std::uint8_t CD = kHomeCollectDirty;

struct Expect {
    std::uint8_t actions;
    HomeNext next;
    HomeHook hook;
};

using Table = std::map<std::pair<V, E>, Expect>;

/** The legal cells; everything absent must be illegal. */
const Table &
expected()
{
    static const Table t = {
        {{V::Uncached, E::ReqS},
         {RD, N::SenderOwns, H::GrantFromMemory}},
        {{V::Uncached, E::ReqX},
         {RD, N::SenderOwns, H::GrantFromMemory}},
        {{V::Uncached, E::Upgrade},
         {RD, N::SenderOwns, H::GrantFromMemory}},
        {{V::Uncached, E::WbKeepShared}, {CD, N::Same, H::LateWriteback}},
        {{V::Uncached, E::WbRelease}, {CD, N::Same, H::LateWriteback}},
        {{V::Uncached, E::ClientGone}, {0, N::Same, H::None}},
        {{V::Uncached, E::MigrateFlush}, {0, N::Same, H::None}},

        {{V::SharedSender, E::ReqS},
         {RD, N::AddSender, H::GrantFromMemory}},
        {{V::SharedSender, E::ReqX},
         {IS | RD, N::SenderOwns, H::GrantFromMemory}},
        {{V::SharedSender, E::Upgrade},
         {IS | UA, N::SenderOwns, H::UpgradeGrant}},
        {{V::SharedSender, E::WbKeepShared}, {0, N::Same, H::None}},
        {{V::SharedSender, E::WbRelease}, {0, N::Same, H::None}},
        {{V::SharedSender, E::ClientGone}, {0, N::DropSender, H::None}},
        {{V::SharedSender, E::MigrateFlush}, {0, N::DropSender, H::None}},

        {{V::SharedOther, E::ReqS},
         {RD, N::AddSender, H::GrantFromMemory}},
        {{V::SharedOther, E::ReqX},
         {IS | RD, N::SenderOwns, H::GrantFromMemory}},
        {{V::SharedOther, E::Upgrade},
         {IS | RD, N::SenderOwns, H::GrantFromMemory}},
        {{V::SharedOther, E::WbKeepShared}, {0, N::Same, H::None}},
        {{V::SharedOther, E::WbRelease}, {0, N::Same, H::None}},
        {{V::SharedOther, E::ClientGone}, {0, N::DropSender, H::None}},
        {{V::SharedOther, E::MigrateFlush}, {0, N::DropSender, H::None}},

        {{V::OwnedHome, E::ReqS},
         {RS | RD, N::OwnerAndSender, H::ServeSelfOwned}},
        {{V::OwnedHome, E::ReqX},
         {RS | RD, N::SenderOwns, H::ServeSelfOwned}},
        {{V::OwnedHome, E::Upgrade},
         {RS | RD, N::SenderOwns, H::ServeSelfOwned}},
        {{V::OwnedHome, E::WbKeepShared}, {0, N::Same, H::None}},
        {{V::OwnedHome, E::WbRelease}, {0, N::Same, H::None}},
        {{V::OwnedHome, E::ClientGone}, {0, N::Same, H::None}},

        {{V::OwnedSender, E::WbKeepShared},
         {CD, N::SenderShares, H::WritebackAccepted}},
        {{V::OwnedSender, E::WbRelease},
         {CD, N::Uncached, H::WritebackAccepted}},
        {{V::OwnedSender, E::ClientGone}, {0, N::Same, H::None}},
        {{V::OwnedSender, E::MigrateFlush},
         {0, N::Uncached, H::MigrateFlush}},

        {{V::OwnedOther, E::ReqS}, {FO, N::OwnerAndSender, H::None}},
        {{V::OwnedOther, E::ReqX}, {FO, N::SenderOwns, H::None}},
        {{V::OwnedOther, E::Upgrade}, {FO, N::SenderOwns, H::None}},
        {{V::OwnedOther, E::WbKeepShared}, {0, N::Same, H::None}},
        {{V::OwnedOther, E::WbRelease}, {0, N::Same, H::None}},
        {{V::OwnedOther, E::ClientGone}, {0, N::Same, H::None}},
        {{V::OwnedOther, E::MigrateFlush}, {0, N::Same, H::None}},
    };
    return t;
}

TEST(HomeProtocol, ExhaustiveCellEnumeration)
{
    const HomeTable &p = kHomeTable;
    std::uint32_t legal = 0;
    for (V v : kViews) {
        for (E e : kEvents) {
            SCOPED_TRACE(std::string(enumName(e)) + " on " +
                         enumName(v));
            const HomeTransition *t = p.tryOn(v, e);
            auto it = expected().find({v, e});
            if (it == expected().end()) {
                EXPECT_EQ(t, nullptr) << "cell should be illegal";
                continue;
            }
            ASSERT_NE(t, nullptr) << "cell should be legal";
            ++legal;
            EXPECT_EQ(t->actions, it->second.actions);
            EXPECT_EQ(t->next, it->second.next)
                << enumName(t->next) << " vs "
                << enumName(it->second.next);
            EXPECT_EQ(t->hook, it->second.hook);
            EXPECT_NE(t->next, N::RemoveSender);
            // A grant makes the sender owner exactly for writes and
            // for reads of an uncached line.
            if (t->actions & (RD | UA)) {
                EXPECT_EQ(t->next == N::SenderOwns,
                          e != E::ReqS || v == V::Uncached);
            }
        }
    }
    EXPECT_EQ(legal, expected().size());
    EXPECT_EQ(legal, kNumHomeViews * kNumHomeEvents - 4);
}

TEST(HomeProtocol, IllegalCellsDie)
{
    const HomeTable &p = kHomeTable;
    std::uint32_t illegal = 0;
    for (V v : kViews) {
        for (E e : kEvents) {
            if (p.tryOn(v, e))
                continue;
            ++illegal;
            EXPECT_DEATH((void)p.on(v, e),
                         std::string("illegal home transition: ") +
                             enumName(e) + " on " + enumName(v));
        }
    }
    // A request from the line's owner (three events) and a migration
    // flush of a home-owned line, which the flushing home sees as its
    // own (OwnedSender).
    EXPECT_EQ(illegal, 4u);
}

/** A line's (state, owner, sharers) as plain values. */
struct LineValue {
    DirState state = DirState::Uncached;
    NodeId owner = kInvalidNode;
    std::set<NodeId> sharers;

    bool
    operator==(const LineValue &o) const
    {
        return state == o.state && owner == o.owner && sharers == o.sharers;
    }
};

LineValue
read(const Directory::LineRef &d, std::uint32_t nodes)
{
    LineValue v{d.state(), d.owner(), {}};
    for (NodeId n = 0; n < nodes; ++n) {
        if (d.isSharer(n))
            v.sharers.insert(n);
    }
    return v;
}

void
write(Directory::LineRef d, const LineValue &v)
{
    d.setState(v.state);
    d.setOwner(v.owner);
    d.clearSharers();
    for (NodeId n : v.sharers)
        d.addSharer(n);
}

/** Lines showing view @p v to @p sender at home @p home. */
std::vector<LineValue>
linesFor(V v, NodeId home, NodeId sender, NodeId other)
{
    const std::set<NodeId> with = {sender, other};
    switch (v) {
      case V::Uncached:
        return {{DirState::Uncached, kInvalidNode, {}}};
      case V::SharedSender:
        return {{DirState::Shared, kInvalidNode, {sender}},
                {DirState::Shared, kInvalidNode, with},
                {DirState::Shared, kInvalidNode, {sender, home}}};
      case V::SharedOther:
        if (home == sender)
            return {{DirState::Shared, kInvalidNode, {other}}};
        return {{DirState::Shared, kInvalidNode, {other}},
                {DirState::Shared, kInvalidNode, {other, home}}};
      case V::OwnedHome:
        return {{DirState::Owned, home, {}}};
      case V::OwnedSender:
        return {{DirState::Owned, sender, {}}};
      case V::OwnedOther:
        return {{DirState::Owned, other, {}}};
    }
    return {};
}

/** The line @p before becomes under @p next, written independently. */
LineValue
expectedAfter(const LineValue &before, N next, NodeId sender)
{
    LineValue after = before;
    switch (next) {
      case N::Same:
        break;
      case N::Uncached:
        after = {DirState::Uncached, kInvalidNode, {}};
        break;
      case N::SenderOwns:
        after = {DirState::Owned, sender, {}};
        break;
      case N::AddSender:
        after.sharers.insert(sender);
        break;
      case N::SenderShares:
        after = {DirState::Shared, kInvalidNode, {sender}};
        break;
      case N::OwnerAndSender:
        after = {DirState::Shared, kInvalidNode, {before.owner, sender}};
        break;
      case N::DropSender:
        after.sharers.erase(sender);
        if (after.sharers.empty())
            after.state = DirState::Uncached;
        break;
      case N::RemoveSender:
        after.sharers.erase(sender);
        break;
    }
    return after;
}

void
expectInvariants(const LineValue &v, std::uint32_t nodes)
{
    switch (v.state) {
      case DirState::Owned:
        EXPECT_LT(v.owner, nodes) << "Owned without a valid owner";
        EXPECT_TRUE(v.sharers.empty()) << "Owned line with sharers";
        break;
      case DirState::Shared:
        EXPECT_FALSE(v.sharers.empty()) << "Shared line without sharers";
        EXPECT_EQ(v.owner, kInvalidNode) << "Shared line with an owner";
        break;
      case DirState::Uncached:
        EXPECT_TRUE(v.sharers.empty()) << "Uncached line with sharers";
        EXPECT_EQ(v.owner, kInvalidNode) << "Uncached line with an owner";
        break;
    }
}

/**
 * Every legal cell at machine width @p nodes, with node ids spread
 * over the sharer words (@p home, @p sender, @p other distinct).
 */
void
applyEveryCell(std::uint32_t nodes, NodeId home, NodeId sender, NodeId other)
{
    EventQueue eq;
    PageRecords pages(eq, 4, nodes);
    const PageRecords::Ref rec = pages.get(1);
    pages.setHome(rec, pages.newHome());
    const HomeTable &p = kHomeTable;
    std::uint32_t applied = 0;
    for (const auto &[cell, exp] : expected()) {
        const auto [v, e] = cell;
        // A migration flush is the home folding its own copies.
        const NodeId from = e == E::MigrateFlush ? home : sender;
        for (const LineValue &before : linesFor(v, home, from, other)) {
            SCOPED_TRACE(std::string(enumName(e)) + " on " +
                         enumName(v) + " at " +
                         std::to_string(nodes) + " nodes");
            Directory::LineRef d(*rec, 0);
            write(d, before);
            ASSERT_EQ(homeView(d, from, home), v);
            const HomeTransition &t = p.on(v, e);
            applyHomeNext(d, t.next, from, before.owner);
            const LineValue after = read(d, nodes);
            EXPECT_TRUE(after == expectedAfter(before, t.next, from));
            expectInvariants(after, nodes);
            ++applied;
        }
    }
    EXPECT_GT(applied, expected().size());
}

TEST(HomeProtocol, NextStatesKeepDirectoryInvariants)
{
    applyEveryCell(4, 0, 1, 3);
    applyEveryCell(130, 70, 129, 3);
    applyEveryCell(130, 0, 64, 127);
}

TEST(HomeProtocol, RemoveSenderLeavesTheStateForTheFinalWrite)
{
    // The inline home self-invalidation drops the home's bit and
    // nothing else, even when the set empties: the cell's own write
    // follows once the fan-out is done.
    EventQueue eq;
    PageRecords pages(eq, 4, 130);
    const PageRecords::Ref rec = pages.get(1);
    pages.setHome(rec, pages.newHome());
    Directory::LineRef d(*rec, 2);
    write(d, {DirState::Shared, kInvalidNode, {70}});
    applyHomeNext(d, N::RemoveSender, 70, kInvalidNode);
    EXPECT_EQ(d.state(), DirState::Shared);
    EXPECT_TRUE(d.noSharers());
}

/** Processor @p who reads or writes @p va; the others do nothing. */
CoTask
accessBy(Proc &p, ProcId who, VAddr va, bool write)
{
    if (p.id() != who)
        co_return;
    if (write)
        co_await p.write(va);
    else
        co_await p.read(va);
}

TEST(HomeProtocol, MachineReachesThreePartySharerAndPageOutCells)
{
    // Line 0 of page 1, homed at node 1; processors 2k and 2k+1 are
    // node k.
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.oracleMode = OracleMode::Continuous;
    Machine m(cfg);
    const std::uint64_t gsid = m.shmget(1, 4 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    const GPage gp = (gsid << kPageNumBits) | 1;
    const VAddr va = makeVAddr(kSharedVsid, 1, 0);
    const CoherenceController &home = m.node(1).controller();
    auto hits = [&](V v, E e) { return home.homeCellHits(v, e); };
    auto access = [&](ProcId who, bool write) {
        m.run([&](Proc &p) { return accessBy(p, who, va, write); });
    };

    access(0, true); // node 0 owns the line
    EXPECT_EQ(hits(V::OwnedOther, E::ReqS), 0u);
    access(4, false); // 3-party read: node 0 supplies node 2
    EXPECT_GE(hits(V::OwnedOther, E::ReqS), 1u);

    // Node 2 pages its copy out and leaves the sharer set.
    EXPECT_EQ(hits(V::SharedSender, E::ClientGone), 0u);
    bool paged_out = false;
    auto page_out = [&]() -> FireAndForget {
        co_await m.node(2).kernel().pageOutClient(gp, false);
        paged_out = true;
    };
    page_out();
    m.eventQueue().runAll();
    ASSERT_TRUE(paged_out);
    EXPECT_EQ(hits(V::SharedSender, E::ClientGone), 1u);

    // Node 3 writes the line node 0 still shares: node 0 is
    // invalidated.
    EXPECT_EQ(hits(V::SharedOther, E::ReqX), 0u);
    access(6, true);
    EXPECT_EQ(hits(V::SharedOther, E::ReqX), 1u);
    EXPECT_EQ(m.node(0).controller().stats().invalsReceived, 1u);
}

} // namespace
} // namespace prism
