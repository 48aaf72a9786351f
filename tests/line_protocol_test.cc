/**
 * @file
 * Exhaustive transition-table conformance for every line-protocol
 * scheme (coherence/line_protocol).
 *
 * The expectation tables below are written out independently of the
 * implementation, pair by pair.  For each scheme, every one of the
 * 6 x 6 (state, event) pairs is either
 *   - a defined transition, whose next state and action set must match
 *     the expectation exactly, or
 *   - an asserted-illegal pair: tryOn() must return null and on()
 *     must die.
 * A final tally proves the enumeration covered 100% of each scheme's
 * defined pairs — no silent holes in either direction.
 */

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/line_protocol.hh"

namespace prism {
namespace {

constexpr LineState I = LineState::Invalid;
constexpr LineState S = LineState::Shared;
constexpr LineState E = LineState::Exclusive;
constexpr LineState M = LineState::Modified;
constexpr LineState O = LineState::Owned;
constexpr LineState F = LineState::Forward;

constexpr LineEvent kEvents[kNumLineEvents] = {
    LineEvent::LocalStore, LineEvent::SnoopRead, LineEvent::SnoopWrite,
    LineEvent::RemoteRead, LineEvent::Inval,     LineEvent::Evict,
};

constexpr LineState kStates[kNumLineStates] = {I, S, E, M, O, F};

struct Expect {
    LineState next;
    std::uint8_t actions;
};

using Key = std::pair<LineState, LineEvent>;
using Table = std::map<Key, Expect>;

/** The Shared row shared by MSI, MESI and MOESI. */
void
sharedRowSupplying(Table &t)
{
    t[{S, LineEvent::LocalStore}] = {M, kActNeedsBus};
    t[{S, LineEvent::SnoopRead}] = {S, kActSupplyData};
    t[{S, LineEvent::SnoopWrite}] = {I, kActSupplyData};
    t[{S, LineEvent::RemoteRead}] = {S, 0};
    t[{S, LineEvent::Inval}] = {I, 0};
    t[{S, LineEvent::Evict}] = {I, 0};
}

/** The Modified row shared by MSI, MESI and MESIF (flush on snoop). */
void
modifiedRowFlushing(Table &t)
{
    t[{M, LineEvent::LocalStore}] = {M, 0};
    t[{M, LineEvent::SnoopRead}] = {
        S, kActSupplyData | kActWritebackData | kActRelinquish};
    t[{M, LineEvent::SnoopWrite}] = {I, kActSupplyData};
    t[{M, LineEvent::RemoteRead}] = {S, kActSupplyData | kActWritebackData};
    t[{M, LineEvent::Inval}] = {I, kActWritebackData};
    t[{M, LineEvent::Evict}] = {I, kActWritebackData};
}

/** The Exclusive row shared by MESI, MOESI and MESIF. */
void
exclusiveRow(Table &t)
{
    t[{E, LineEvent::LocalStore}] = {M, 0}; // silent upgrade
    t[{E, LineEvent::SnoopRead}] = {S, kActSupplyData | kActRelinquish};
    t[{E, LineEvent::SnoopWrite}] = {I, kActSupplyData};
    t[{E, LineEvent::RemoteRead}] = {S, kActSupplyData};
    t[{E, LineEvent::Inval}] = {I, 0};
    t[{E, LineEvent::Evict}] = {I, kActReplaceHint};
}

Table
expectedTable(ProtocolScheme scheme)
{
    Table t;
    switch (scheme) {
      case ProtocolScheme::Msi:
        sharedRowSupplying(t);
        modifiedRowFlushing(t);
        break;
      case ProtocolScheme::Mesi:
        sharedRowSupplying(t);
        modifiedRowFlushing(t);
        exclusiveRow(t);
        break;
      case ProtocolScheme::Moesi:
        sharedRowSupplying(t);
        exclusiveRow(t);
        // M keeps its dirty data as Owned on a snoop read.
        t[{M, LineEvent::LocalStore}] = {M, 0};
        t[{M, LineEvent::SnoopRead}] = {O, kActSupplyData};
        t[{M, LineEvent::SnoopWrite}] = {I, kActSupplyData};
        t[{M, LineEvent::RemoteRead}] = {S,
                                         kActSupplyData | kActWritebackData};
        t[{M, LineEvent::Inval}] = {I, kActWritebackData};
        t[{M, LineEvent::Evict}] = {I, kActWritebackData};
        // Owned: dirty supplier coexisting with Shared copies; a remote
        // read takes node ownership away, so it leaves Shared.
        t[{O, LineEvent::LocalStore}] = {M, kActNeedsBus};
        t[{O, LineEvent::SnoopRead}] = {O, kActSupplyData};
        t[{O, LineEvent::SnoopWrite}] = {I, kActSupplyData};
        t[{O, LineEvent::RemoteRead}] = {S,
                                         kActSupplyData | kActWritebackData};
        t[{O, LineEvent::Inval}] = {I, kActWritebackData};
        t[{O, LineEvent::Evict}] = {I, kActWritebackData};
        break;
      case ProtocolScheme::Mesif:
        modifiedRowFlushing(t);
        exclusiveRow(t);
        // Plain Shared copies are silent on a snoop read; only
        // Forward supplies.  A peer's store still takes either copy's
        // data: it then needs permission only (an Upgrade).
        t[{S, LineEvent::LocalStore}] = {M, kActNeedsBus};
        t[{S, LineEvent::SnoopRead}] = {S, 0};
        t[{S, LineEvent::SnoopWrite}] = {I, kActSupplyData};
        t[{S, LineEvent::RemoteRead}] = {S, 0};
        t[{S, LineEvent::Inval}] = {I, 0};
        t[{S, LineEvent::Evict}] = {I, 0};
        // Forward: clean designated supplier; hands the designation
        // to the requester on a snoop read, keeps it on a remote one.
        t[{F, LineEvent::LocalStore}] = {M, kActNeedsBus};
        t[{F, LineEvent::SnoopRead}] = {S, kActSupplyData};
        t[{F, LineEvent::SnoopWrite}] = {I, kActSupplyData};
        t[{F, LineEvent::RemoteRead}] = {F, 0};
        t[{F, LineEvent::Inval}] = {I, 0};
        t[{F, LineEvent::Evict}] = {I, 0};
        break;
    }
    return t;
}

constexpr ProtocolScheme kSchemes[] = {
    ProtocolScheme::Msi, ProtocolScheme::Mesi, ProtocolScheme::Moesi,
    ProtocolScheme::Mesif};

class LineProtocolConformance
    : public ::testing::TestWithParam<ProtocolScheme>
{
};

/**
 * Every (state, event) pair is either a defined transition matching
 * the expectation table exactly, or explicitly illegal — and the
 * enumeration visits every expected pair (100% coverage both ways).
 */
TEST_P(LineProtocolConformance, ExhaustivePairEnumeration)
{
    const ProtocolScheme scheme = GetParam();
    const LineProtocol &p = lineProtocol(scheme);
    const Table expected = expectedTable(scheme);

    std::size_t defined_seen = 0;
    for (LineState s : kStates) {
        for (LineEvent e : kEvents) {
            SCOPED_TRACE(std::string(p.name) + ": " + enumName(s) +
                         " x " + enumName(e));
            const Transition *t = p.tryOn(s, e);
            auto it = expected.find({s, e});
            if (it == expected.end()) {
                EXPECT_EQ(t, nullptr)
                    << "transition defined but expected illegal";
                continue;
            }
            ++defined_seen;
            ASSERT_NE(t, nullptr)
                << "transition expected but undefined (silent hole)";
            EXPECT_EQ(t->next, it->second.next)
                << "next state: got " << enumName(t->next)
                << ", want " << enumName(it->second.next);
            EXPECT_EQ(t->actions, it->second.actions)
                << "actions: got " << unsigned(t->actions) << ", want "
                << unsigned(it->second.actions);
        }
    }
    EXPECT_EQ(defined_seen, expected.size())
        << "enumeration missed expected pairs";
}

/** on() panics on every illegal pair — the holes are loud. */
TEST_P(LineProtocolConformance, IllegalPairsDie)
{
    const ProtocolScheme scheme = GetParam();
    const LineProtocol &p = lineProtocol(scheme);
    const Table expected = expectedTable(scheme);

    std::size_t illegal = 0;
    for (LineState s : kStates) {
        for (LineEvent e : kEvents) {
            if (expected.count({s, e}))
                continue;
            ++illegal;
            SCOPED_TRACE(std::string(p.name) + ": " + enumName(s) +
                         " x " + enumName(e));
            EXPECT_DEATH((void)p.on(s, e), "illegal");
        }
    }
    // The Invalid row is illegal under every scheme (misses go
    // through the fill path, never the table); the unreachable-state
    // rows are illegal too.
    EXPECT_GE(illegal, kNumLineEvents);
}

/** Closure: every defined transition lands in a valid state. */
TEST_P(LineProtocolConformance, TransitionsStayInValidStates)
{
    const LineProtocol &p = lineProtocol(GetParam());
    for (LineState s : kStates) {
        for (LineEvent e : kEvents) {
            const Transition *t = p.tryOn(s, e);
            if (!t)
                continue;
            EXPECT_TRUE(p.stateValid(s))
                << enumName(s) << " has transitions but is not valid";
            EXPECT_TRUE(p.stateValid(t->next))
                << enumName(s) << " x " << enumName(e)
                << " lands in invalid state " << enumName(t->next);
        }
    }
}

/** The reachable state sets are exactly the schemes' namesakes. */
TEST(LineProtocolStates, ValidStateSetsMatchSchemes)
{
    struct Case {
        ProtocolScheme scheme;
        std::set<LineState> states;
    };
    const std::vector<Case> cases = {
        {ProtocolScheme::Msi, {I, S, M}},
        {ProtocolScheme::Mesi, {I, S, E, M}},
        {ProtocolScheme::Moesi, {I, S, E, M, O}},
        {ProtocolScheme::Mesif, {I, S, E, M, F}},
    };
    for (const Case &c : cases) {
        const LineProtocol &p = lineProtocol(c.scheme);
        for (LineState s : kStates) {
            EXPECT_EQ(p.stateValid(s), c.states.count(s) != 0)
                << p.name << ": " << enumName(s);
        }
    }
}

/** Fill policy: what misses install, per scheme. */
TEST(LineProtocolFill, FillPolicyPerScheme)
{
    const LineProtocol &msi = lineProtocol(ProtocolScheme::Msi);
    EXPECT_EQ(msi.readFill(true), S);
    EXPECT_EQ(msi.readFill(false), S);
    EXPECT_EQ(msi.peerReadFill(), S);
    EXPECT_TRUE(msi.demoteExclusiveReadGrant());
    EXPECT_EQ(msi.writeFill(), M);

    const LineProtocol &mesi = lineProtocol(ProtocolScheme::Mesi);
    EXPECT_EQ(mesi.readFill(true), E);
    EXPECT_EQ(mesi.readFill(false), S);
    EXPECT_EQ(mesi.peerReadFill(), S);
    EXPECT_FALSE(mesi.demoteExclusiveReadGrant());
    EXPECT_EQ(mesi.writeFill(), M);

    const LineProtocol &moesi = lineProtocol(ProtocolScheme::Moesi);
    EXPECT_EQ(moesi.readFill(true), E);
    EXPECT_EQ(moesi.readFill(false), S);
    EXPECT_EQ(moesi.peerReadFill(), S);
    EXPECT_FALSE(moesi.demoteExclusiveReadGrant());
    EXPECT_EQ(moesi.writeFill(), M);

    const LineProtocol &mesif = lineProtocol(ProtocolScheme::Mesif);
    EXPECT_EQ(mesif.readFill(true), E);
    EXPECT_EQ(mesif.readFill(false), F);
    EXPECT_EQ(mesif.peerReadFill(), F);
    EXPECT_FALSE(mesif.demoteExclusiveReadGrant());
    EXPECT_EQ(mesif.writeFill(), M);
}

/**
 * MESI-bit-identity contract, stated as table facts: the transitions
 * the pre-table simulator hard-coded are exactly what the MESI table
 * encodes.
 */
TEST(LineProtocolMesi, EncodesPreTableBehaviour)
{
    const LineProtocol &p = lineProtocol(ProtocolScheme::Mesi);

    // A snoop read of M supplies, writes back and relinquishes.
    const Transition &mr = p.on(M, LineEvent::SnoopRead);
    EXPECT_EQ(mr.next, S);
    EXPECT_EQ(mr.actions,
              kActSupplyData | kActWritebackData | kActRelinquish);

    // A snoop read of E supplies clean and relinquishes (no data to
    // write back).
    const Transition &er = p.on(E, LineEvent::SnoopRead);
    EXPECT_EQ(er.next, S);
    EXPECT_EQ(er.actions, kActSupplyData | kActRelinquish);

    // A store to E upgrades silently (no bus transaction).
    const Transition &es = p.on(E, LineEvent::LocalStore);
    EXPECT_EQ(es.next, M);
    EXPECT_EQ(es.actions, 0);

    // A store to S needs the bus (upgrade) and ends in M.
    EXPECT_EQ(p.on(S, LineEvent::LocalStore).next, M);
    EXPECT_TRUE(p.on(S, LineEvent::LocalStore).actions & kActNeedsBus);

    // Evictions: M writes back, E hints, S drops silently.
    EXPECT_EQ(p.on(M, LineEvent::Evict).actions, kActWritebackData);
    EXPECT_EQ(p.on(E, LineEvent::Evict).actions, kActReplaceHint);
    EXPECT_EQ(p.on(S, LineEvent::Evict).actions, 0);
}

/** Dirty data is never dropped: every exit from M/O moves the data. */
TEST_P(LineProtocolConformance, DirtyDataNeverSilentlyDropped)
{
    const LineProtocol &p = lineProtocol(GetParam());
    for (LineState s : {M, O}) {
        if (!p.stateValid(s))
            continue;
        for (LineEvent e : kEvents) {
            const Transition *t = p.tryOn(s, e);
            if (!t || dirtyLine(t->next))
                continue; // stays dirty somewhere
            EXPECT_TRUE(t->actions &
                        (kActSupplyData | kActWritebackData))
                << p.name << ": " << enumName(s) << " x "
                << enumName(e) << " drops dirty data";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, LineProtocolConformance, ::testing::ValuesIn(kSchemes),
    [](const ::testing::TestParamInfo<ProtocolScheme> &info) {
        return std::string(enumName(info.param));
    });

} // namespace
} // namespace prism
