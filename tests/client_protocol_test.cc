/**
 * @file
 * Conformance for the client protocol table (coherence/client_protocol).
 *
 * The expectation table below is written out independently of the
 * implementation, cell by cell.  Every one of the 9 x 16 (view, event)
 * cells is either
 *   - a legal transition, whose actions, intervention event and next
 *     view must match the expectation exactly, or
 *   - an asserted-illegal cell: tryOn() must return null and on() must
 *     die naming the cell.
 *
 * Then the running engine is checked against the table: every legal
 * cell that can be reached without a race is driven end to end on a
 * 4x2 machine under the continuous oracle, in S-COMA, LA-NUMA and
 * CC-NUMA mode, as line_engine_test does for the line table.  Each
 * scenario drives one line of one node into the cell's view, raises the
 * event with one step and checks that the node looked up exactly the
 * cells the scenario names (CoherenceController::clientCellHits), that
 * the line ends in the last cell's next view, and that the counters
 * the cells' actions move did move.  The remaining legal cells are
 * races, each named with the race that reaches it; the last test
 * checks that the two lists together cover every legal cell.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coherence/client_protocol.hh"
#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {

void
PrintTo(ClientView v, std::ostream *os)
{
    *os << enumName(v);
}

namespace {

using V = ClientView;
using E = ClientEvent;

constexpr V kViews[kNumClientViews] = {
    V::Invalid,  V::Shared,     V::Exclusive,   V::Transit, V::NumaNone,
    V::NumaShared, V::NumaOwned, V::NumaTransit, V::Local,
};

constexpr E kEvents[kNumClientEvents] = {
    E::BusRead,    E::BusWrite,    E::BusUpgrade, E::GrantShared,
    E::GrantExclusive, E::GrantVoid, E::FillShared, E::FillOwned,
    E::FillVoid,   E::Inv,         E::FetchRead,  E::FetchWrite,
    E::RecallRead, E::RecallWrite, E::Flush,      E::Collect,
};

constexpr std::uint32_t LM = kCliLocalMem;
constexpr std::uint32_t RT = kCliRetry;
constexpr std::uint32_t RS = kCliReqShared;
constexpr std::uint32_t RX = kCliReqExclusive;
constexpr std::uint32_t RU = kCliReqUpgrade;
constexpr std::uint32_t HF = kCliHoldFill;
constexpr std::uint32_t EF = kCliEndFill;
constexpr std::uint32_t FL = kCliFill;
constexpr std::uint32_t SN = kCliSnoop;
constexpr std::uint32_t PB = kCliProbe;
constexpr std::uint32_t NI = kCliNoteInval;
constexpr std::uint32_t CO = kCliCollect;
constexpr std::uint32_t RL = kCliRelease;
constexpr std::uint32_t RD = kCliReadLine;
constexpr std::uint32_t WB = kCliWriteback;
constexpr std::uint32_t SV = kCliServe;

constexpr LineEvent kRR = LineEvent::RemoteRead;
constexpr LineEvent kIn = LineEvent::Inval;
constexpr LineEvent kEv = LineEvent::Evict;

struct Expect {
    std::uint32_t actions;
    ClientView next;
    LineEvent snoop = LineEvent::Evict; //!< checked with SN or PB only
};

using Cell = std::pair<V, E>;
using Table = std::map<Cell, Expect>;

/** The legal cells; everything absent must be illegal. */
const Table &
expected()
{
    static const Table t = {
        // Local frame: private memory.
        {{V::Local, E::BusRead}, {LM, V::Local}},
        {{V::Local, E::BusWrite}, {LM, V::Local}},
        {{V::Local, E::BusUpgrade}, {LM, V::Local}},
        {{V::Local, E::FillShared}, {FL, V::Local}},
        {{V::Local, E::FillOwned}, {FL, V::Local}},

        // S-COMA, tag Invalid.
        {{V::Invalid, E::BusRead}, {RS, V::Transit}},
        {{V::Invalid, E::BusWrite}, {RX, V::Transit}},
        {{V::Invalid, E::BusUpgrade}, {RX, V::Transit}},
        {{V::Invalid, E::GrantShared}, {0, V::Shared}},
        {{V::Invalid, E::GrantExclusive}, {0, V::Exclusive}},
        {{V::Invalid, E::GrantVoid}, {RT, V::Invalid}},
        {{V::Invalid, E::FillShared}, {0, V::Invalid}},
        {{V::Invalid, E::FillOwned}, {0, V::Invalid}},
        {{V::Invalid, E::Inv}, {SN | NI, V::Invalid, kIn}},
        {{V::Invalid, E::FetchRead}, {0, V::Invalid}},
        {{V::Invalid, E::FetchWrite}, {0, V::Invalid}},
        {{V::Invalid, E::Flush}, {0, V::Invalid}},
        {{V::Invalid, E::Collect}, {SN | CO, V::Invalid, kEv}},

        // S-COMA, tag Shared.
        {{V::Shared, E::BusRead}, {LM, V::Shared}},
        {{V::Shared, E::BusWrite}, {RU, V::Transit}},
        {{V::Shared, E::BusUpgrade}, {RU, V::Transit}},
        {{V::Shared, E::FillShared}, {FL, V::Shared}},
        {{V::Shared, E::FillOwned}, {0, V::Shared}},
        {{V::Shared, E::Inv}, {SN | NI, V::Invalid, kIn}},
        {{V::Shared, E::FetchRead}, {0, V::Shared}},
        {{V::Shared, E::FetchWrite}, {0, V::Shared}},
        {{V::Shared, E::Flush}, {SN | RL, V::Invalid, kEv}},
        {{V::Shared, E::Collect}, {SN | CO, V::Shared, kEv}},

        // S-COMA, tag Exclusive.
        {{V::Exclusive, E::BusRead}, {LM, V::Exclusive}},
        {{V::Exclusive, E::BusWrite}, {LM, V::Exclusive}},
        {{V::Exclusive, E::BusUpgrade}, {LM, V::Exclusive}},
        {{V::Exclusive, E::FillShared}, {FL, V::Exclusive}},
        {{V::Exclusive, E::FillOwned}, {FL, V::Exclusive}},
        {{V::Exclusive, E::Inv}, {SN | NI, V::Invalid, kIn}},
        {{V::Exclusive, E::FetchRead}, {SN | CO | RD | SV, V::Shared, kRR}},
        {{V::Exclusive, E::FetchWrite}, {SN | CO | RD | SV, V::Invalid, kIn}},
        {{V::Exclusive, E::RecallRead}, {SN | CO, V::Shared, kRR}},
        {{V::Exclusive, E::RecallWrite}, {SN | CO, V::Invalid, kIn}},
        {{V::Exclusive, E::Flush}, {SN | RL | RD | WB, V::Invalid, kEv}},
        {{V::Exclusive, E::Collect}, {SN | CO, V::Exclusive, kEv}},

        // S-COMA, tag Transit.
        {{V::Transit, E::BusRead}, {RT, V::Transit}},
        {{V::Transit, E::BusWrite}, {RT, V::Transit}},
        {{V::Transit, E::BusUpgrade}, {RT, V::Transit}},
        {{V::Transit, E::GrantShared}, {0, V::Shared}},
        {{V::Transit, E::GrantExclusive}, {0, V::Exclusive}},
        {{V::Transit, E::GrantVoid}, {RT, V::Invalid}},
        {{V::Transit, E::FillShared}, {FL, V::Transit}},
        {{V::Transit, E::FillOwned}, {0, V::Transit}},
        {{V::Transit, E::Inv}, {SN | NI, V::Transit, kIn}},
        {{V::Transit, E::FetchRead}, {0, V::Transit}},
        {{V::Transit, E::FetchWrite}, {0, V::Transit}},
        {{V::Transit, E::RecallRead}, {SN | CO, V::Transit, kRR}},
        {{V::Transit, E::RecallWrite}, {SN | CO, V::Transit, kIn}},
        {{V::Transit, E::Flush}, {SN | RL, V::Invalid, kEv}},
        {{V::Transit, E::Collect}, {SN | CO, V::Transit, kEv}},

        // LA-NUMA or CC-NUMA, no local copy.
        {{V::NumaNone, E::BusRead}, {RS, V::NumaTransit}},
        {{V::NumaNone, E::BusWrite}, {RX, V::NumaTransit}},
        {{V::NumaNone, E::BusUpgrade}, {RU, V::NumaTransit}},
        {{V::NumaNone, E::FillShared}, {FL, V::NumaShared}},
        {{V::NumaNone, E::FillOwned}, {FL, V::NumaOwned}},
        {{V::NumaNone, E::Inv}, {SN | NI, V::NumaNone, kIn}},
        {{V::NumaNone, E::FetchRead}, {PB, V::NumaNone, kRR}},
        {{V::NumaNone, E::FetchWrite}, {PB, V::NumaNone, kIn}},
        {{V::NumaNone, E::Flush}, {SN | RL, V::NumaNone, kEv}},
        {{V::NumaNone, E::Collect}, {SN | CO, V::NumaNone, kEv}},

        // LA-NUMA or CC-NUMA, only non-owner copies.
        {{V::NumaShared, E::BusRead}, {RS, V::NumaTransit}},
        {{V::NumaShared, E::BusWrite}, {RX, V::NumaTransit}},
        {{V::NumaShared, E::BusUpgrade}, {RU, V::NumaTransit}},
        {{V::NumaShared, E::FillShared}, {FL, V::NumaShared}},
        {{V::NumaShared, E::FillOwned}, {FL, V::NumaOwned}},
        {{V::NumaShared, E::Inv}, {SN | NI, V::NumaNone, kIn}},
        {{V::NumaShared, E::FetchRead}, {PB, V::NumaShared, kRR}},
        {{V::NumaShared, E::FetchWrite}, {PB, V::NumaNone, kIn}},
        {{V::NumaShared, E::Flush}, {SN | RL, V::NumaNone, kEv}},
        {{V::NumaShared, E::Collect}, {SN | CO, V::NumaNone, kEv}},

        // LA-NUMA or CC-NUMA, an owner-class copy.
        {{V::NumaOwned, E::FillShared}, {FL, V::NumaOwned}},
        {{V::NumaOwned, E::FillOwned}, {FL, V::NumaOwned}},
        {{V::NumaOwned, E::Inv}, {SN | NI, V::NumaNone, kIn}},
        {{V::NumaOwned, E::FetchRead}, {SN | SV, V::NumaShared, kRR}},
        {{V::NumaOwned, E::FetchWrite}, {SN | SV, V::NumaNone, kIn}},
        {{V::NumaOwned, E::Flush}, {SN | RL, V::NumaNone, kEv}},
        {{V::NumaOwned, E::Collect}, {SN | CO, V::NumaNone, kEv}},

        // LA-NUMA or CC-NUMA, transaction or fill token outstanding.
        {{V::NumaTransit, E::BusRead}, {RT, V::NumaTransit}},
        {{V::NumaTransit, E::BusWrite}, {RT, V::NumaTransit}},
        {{V::NumaTransit, E::BusUpgrade}, {RT, V::NumaTransit}},
        {{V::NumaTransit, E::GrantShared}, {HF, V::NumaTransit}},
        {{V::NumaTransit, E::GrantExclusive}, {HF, V::NumaTransit}},
        {{V::NumaTransit, E::GrantVoid}, {RT, V::NumaNone}},
        {{V::NumaTransit, E::FillShared}, {EF | FL, V::NumaShared}},
        {{V::NumaTransit, E::FillOwned}, {EF | FL, V::NumaOwned}},
        {{V::NumaTransit, E::FillVoid}, {EF, V::NumaNone}},
        {{V::NumaTransit, E::Inv}, {SN | NI, V::NumaTransit, kIn}},
        {{V::NumaTransit, E::FetchRead}, {PB, V::NumaTransit, kRR}},
        {{V::NumaTransit, E::FetchWrite}, {PB, V::NumaTransit, kIn}},
        {{V::NumaTransit, E::Flush}, {SN | RL, V::NumaTransit, kEv}},
        {{V::NumaTransit, E::Collect}, {SN | CO, V::NumaTransit, kEv}},
    };
    return t;
}

bool
isNumaView(V v)
{
    return v == V::NumaNone || v == V::NumaShared || v == V::NumaOwned ||
           v == V::NumaTransit;
}

TEST(ClientProtocol, ExhaustiveCellEnumeration)
{
    const ClientTable &p = kClientTable;
    std::uint32_t legal = 0;
    for (V v : kViews) {
        for (E e : kEvents) {
            SCOPED_TRACE(std::string(enumName(e)) + " on " +
                         enumName(v));
            const ClientTransition *t = p.tryOn(v, e);
            auto it = expected().find({v, e});
            if (it == expected().end()) {
                EXPECT_EQ(t, nullptr) << "cell should be illegal";
                continue;
            }
            ASSERT_NE(t, nullptr) << "cell should be legal";
            ++legal;
            EXPECT_EQ(t->actions, it->second.actions);
            EXPECT_EQ(t->next, it->second.next);
            if (t->actions & (SN | PB)) {
                EXPECT_EQ(t->snoop, it->second.snoop)
                    << enumName(t->snoop);
            }
            // A cell stays within its frame kind: S-COMA rows name a
            // tag, LA-NUMA rows a LA-NUMA view, Local rows Local.
            EXPECT_EQ(isTagView(t->next), isTagView(v));
            EXPECT_EQ(isNumaView(t->next), isNumaView(v));
            // Snooping and probing exclude each other; only a snoop
            // is waited for, so only a snoop collects or releases.
            EXPECT_FALSE((t->actions & SN) && (t->actions & PB));
            if (t->actions & (CO | RL | RD | WB)) {
                EXPECT_TRUE(t->actions & SN);
            }
            // Only a Fetch serves (a Fetch cell without kCliServe
            // nacks).
            if (t->actions & SV) {
                EXPECT_TRUE(e == E::FetchRead || e == E::FetchWrite);
            }
        }
    }
    EXPECT_EQ(legal, expected().size());
    EXPECT_EQ(legal, 96u);
}

TEST(ClientProtocol, IllegalCellsDie)
{
    const ClientTable &p = kClientTable;
    std::uint32_t illegal = 0;
    for (V v : kViews) {
        for (E e : kEvents) {
            if (p.tryOn(v, e))
                continue;
            ++illegal;
            EXPECT_DEATH((void)p.on(v, e),
                         std::string("illegal client transition: ") +
                             enumName(e) + " on " +
                             enumName(v));
        }
    }
    EXPECT_EQ(illegal, kNumClientViews * kNumClientEvents - 96);
}

TEST(ClientProtocol, TagViewsAreTheFineGrainTags)
{
    for (FgTag t : {FgTag::Invalid, FgTag::Shared, FgTag::Exclusive,
                    FgTag::Transit}) {
        EXPECT_TRUE(isTagView(tagView(t)));
        EXPECT_EQ(viewTag(tagView(t)), t);
        EXPECT_STREQ(enumName(tagView(t)),
                     t == FgTag::Invalid     ? "Invalid"
                     : t == FgTag::Shared    ? "Shared"
                     : t == FgTag::Exclusive ? "Exclusive"
                                             : "Transit");
    }
}

// ---------------------------------------------------------------------
// The engine against the table, on a machine
// ---------------------------------------------------------------------

constexpr std::uint64_t kKey = 0xC11;
// Line 0 of each page.  The test page is homed at node 1, so node 0 is
// its client; pages 4, 8 and 12 are homed at node 0 and only evict
// line 0 from processor 0's or processor 1's one-page caches.
constexpr std::uint64_t kPage = 1;
constexpr std::uint64_t kConflict0 = 8;
constexpr std::uint64_t kConflict1 = 12;
constexpr NodeId kClient = 0;
constexpr NodeId kHome = 1;
constexpr NodeId kThird = 2;

/** How node 0 maps the test page. */
enum class Mode : std::uint8_t { Scoma, LaNuma, CcNuma };

const char *
modeName(Mode m)
{
    return m == Mode::Scoma ? "Scoma" : m == Mode::LaNuma ? "LaNuma"
                                                          : "CcNuma";
}

constexpr std::uint8_t kScomaMode = 1u << 0;
constexpr std::uint8_t kNumaModes = (1u << 1) | (1u << 2);
constexpr std::uint8_t kAllModes = kScomaMode | kNumaModes;

/** One step of a scenario. */
struct Step {
    enum Kind : std::uint8_t {
        Read,    //!< processor `who` reads line 0 of page `page`
        Write,   //!< processor `who` writes it
        PrivRead,  //!< processor `who` reads processor 0's private page
        PrivWrite, //!< processor `who` writes it
        PageOut, //!< node 0 pages the test page out
        Migrate, //!< the test page migrates to node `who`
    };
    Kind kind;
    std::uint32_t who = 0;
    std::uint64_t page = kPage;
    std::uint64_t line = 0;
};

Step R(ProcId p, std::uint64_t page = kPage) { return {Step::Read, p, page}; }
Step W(ProcId p) { return {Step::Write, p, kPage}; }
/** Map the test page at processor @p p's node, leaving line 0 alone. */
Step Map(ProcId p) { return {Step::Read, p, kPage, 1}; }

struct Scenario {
    const char *name;
    std::uint8_t modes;
    ProtocolScheme scheme;
    NodeId subject;
    std::vector<Step> setup;
    Step raise;
    /** The subject's cells on the test line, in the order raised. */
    std::vector<Cell> cells;
    /** Other lines of the page raise this cell (page-wide events). */
    std::vector<Cell> others = {};
    /** The test line ends unmapped at the subject (else: last next). */
    bool unmaps = false;
};

constexpr ProtocolScheme kMesi = ProtocolScheme::Mesi;

/**
 * The scenarios.  Processors 0 and 1 are node 0 (the client), 2 and 3
 * node 1 (the home), 4 and 5 node 2.  A fresh home page is owned by
 * its home, so a client's first read is granted shared after the home
 * recalls its own copy.
 */
const std::vector<Scenario> &
scenarios()
{
    const Step evict0 = R(0, kConflict0);
    const Step evict1 = R(1, kConflict1);
    static const std::vector<Scenario> s = {
        // --- Local frames (every mode) --------------------------------
        {"LocalRead", kAllModes, kMesi, kClient, {}, {Step::PrivRead, 0},
         {{V::Local, E::BusRead}, {V::Local, E::FillOwned}}},
        {"LocalWrite", kAllModes, kMesi, kClient, {}, {Step::PrivWrite, 0},
         {{V::Local, E::BusWrite}, {V::Local, E::FillOwned}}},
        // Processor 1 takes a shared copy of processor 0's line, so
        // processor 0's store upgrades on the bus.
        {"LocalUpgrade", kAllModes, kMesi, kClient,
         {{Step::PrivRead, 0}, {Step::PrivRead, 1}},
         {Step::PrivWrite, 0},
         {{V::Local, E::BusUpgrade}, {V::Local, E::FillOwned}}},
        // MSI fills a read shared even when it could be exclusive.
        {"LocalReadMsi", kAllModes, ProtocolScheme::Msi, kClient, {},
         {Step::PrivRead, 0},
         {{V::Local, E::BusRead}, {V::Local, E::FillShared}}},

        // --- The home recalls its own copy (every mode) ----------------
        // A home processor's read maps the home frame, which owns the
        // line (tag Exclusive).
        {"RecallRead", kAllModes, kMesi, kHome, {R(2)}, R(0),
         {{V::Exclusive, E::RecallRead}}},
        {"RecallWrite", kAllModes, kMesi, kHome, {R(2)}, W(0),
         {{V::Exclusive, E::RecallWrite}}},

        // --- S-COMA client ----------------------------------------------
        {"ScomaReadMiss", kScomaMode, kMesi, kClient, {Map(0)}, R(0),
         {{V::Invalid, E::BusRead},
          {V::Transit, E::GrantShared},
          {V::Shared, E::FillShared}}},
        {"ScomaWriteMiss", kScomaMode, kMesi, kClient, {Map(0)}, W(0),
         {{V::Invalid, E::BusWrite},
          {V::Transit, E::GrantExclusive},
          {V::Exclusive, E::FillOwned}}},
        {"ScomaPageCacheRead", kScomaMode, kMesi, kClient, {R(0), evict0},
         R(0), {{V::Shared, E::BusRead}, {V::Shared, E::FillShared}}},
        {"ScomaWriteToSharedTag", kScomaMode, kMesi, kClient,
         {R(0), evict0}, W(0),
         {{V::Shared, E::BusWrite},
          {V::Transit, E::GrantExclusive},
          {V::Exclusive, E::FillOwned}}},
        {"ScomaUpgrade", kScomaMode, kMesi, kClient, {R(0)}, W(0),
         {{V::Shared, E::BusUpgrade},
          {V::Transit, E::GrantExclusive},
          {V::Exclusive, E::FillOwned}}},
        // A dirty victim lands in the page cache: the tag stays
        // Exclusive and the next access is local.
        {"ScomaOwnedRead", kScomaMode, kMesi, kClient, {W(0), evict0}, R(0),
         {{V::Exclusive, E::BusRead}, {V::Exclusive, E::FillOwned}}},
        {"ScomaOwnedWrite", kScomaMode, kMesi, kClient, {W(0), evict0},
         W(0), {{V::Exclusive, E::BusWrite}, {V::Exclusive, E::FillOwned}}},
        {"ScomaOwnedUpgrade", kScomaMode, kMesi, kClient, {W(0), R(1)},
         W(0),
         {{V::Exclusive, E::BusUpgrade}, {V::Exclusive, E::FillOwned}}},
        {"ScomaOwnedReadMsi", kScomaMode, ProtocolScheme::Msi, kClient,
         {W(0), evict0}, R(0),
         {{V::Exclusive, E::BusRead}, {V::Exclusive, E::FillShared}}},
        {"ScomaInv", kScomaMode, kMesi, kClient, {R(0)}, W(4),
         {{V::Shared, E::Inv}}},
        {"ScomaFetchRead", kScomaMode, kMesi, kClient, {W(0)}, R(4),
         {{V::Exclusive, E::FetchRead}}},
        {"ScomaFetchWrite", kScomaMode, kMesi, kClient, {W(0)}, W(4),
         {{V::Exclusive, E::FetchWrite}}},
        {"ScomaFlushShared", kScomaMode, kMesi, kClient, {R(0)},
         {Step::PageOut}, {{V::Shared, E::Flush}},
         {{V::Invalid, E::Flush}}, true},
        {"ScomaFlushOwned", kScomaMode, kMesi, kClient, {W(0)},
         {Step::PageOut}, {{V::Exclusive, E::Flush}},
         {{V::Invalid, E::Flush}}, true},
        // The old home collects its frame when the page moves to node
        // 2: its other lines are still its own (Exclusive).
        {"HomeCollectOwned", kScomaMode, kMesi, kHome, {R(2)},
         {Step::Migrate, kThird}, {{V::Exclusive, E::Collect}},
         {{V::Exclusive, E::Collect}}, true},
        {"HomeCollectShared", kScomaMode, kMesi, kHome, {R(0)},
         {Step::Migrate, kThird}, {{V::Shared, E::Collect}},
         {{V::Exclusive, E::Collect}}, true},
        {"HomeCollectInvalid", kScomaMode, kMesi, kHome, {W(0)},
         {Step::Migrate, kThird}, {{V::Invalid, E::Collect}},
         {{V::Exclusive, E::Collect}}, true},

        // --- LA-NUMA and CC-NUMA client ------------------------------------
        {"NumaReadMiss", kNumaModes, kMesi, kClient, {Map(0)}, R(0),
         {{V::NumaNone, E::BusRead},
          {V::NumaTransit, E::GrantShared},
          {V::NumaTransit, E::FillShared}}},
        {"NumaWriteMiss", kNumaModes, kMesi, kClient, {Map(0)}, W(0),
         {{V::NumaNone, E::BusWrite},
          {V::NumaTransit, E::GrantExclusive},
          {V::NumaTransit, E::FillOwned}}},
        // MESIF: a plain Shared copy does not answer a read, so a
        // second reader on the node misses to the home.  Processor 1
        // first takes the Forward designation and drops it.
        {"NumaReadBesideSharedCopy", kNumaModes, ProtocolScheme::Mesif,
         kClient, {R(0), R(1), evict1}, R(1),
         {{V::NumaShared, E::BusRead},
          {V::NumaTransit, E::GrantShared},
          {V::NumaTransit, E::FillShared}}},
        {"NumaUpgrade", kNumaModes, kMesi, kClient, {R(0)}, W(0),
         {{V::NumaShared, E::BusUpgrade},
          {V::NumaTransit, E::GrantExclusive},
          {V::NumaTransit, E::FillOwned}}},
        {"NumaInv", kNumaModes, kMesi, kClient, {R(0)}, W(4),
         {{V::NumaShared, E::Inv}}},
        // A clean LA-NUMA eviction is silent: the directory still
        // lists the node when the next writer invalidates.
        {"NumaInvAfterSilentDrop", kNumaModes, kMesi, kClient,
         {R(0), evict0}, W(4), {{V::NumaNone, E::Inv}}},
        {"NumaFetchRead", kNumaModes, kMesi, kClient, {W(0)}, R(4),
         {{V::NumaOwned, E::FetchRead}}},
        {"NumaFetchWrite", kNumaModes, kMesi, kClient, {W(0)}, W(4),
         {{V::NumaOwned, E::FetchWrite}}},
        {"NumaFlushShared", kNumaModes, kMesi, kClient, {R(0)},
         {Step::PageOut}, {{V::NumaShared, E::Flush}},
         {{V::NumaNone, E::Flush}}, true},
        {"NumaFlushOwned", kNumaModes, kMesi, kClient, {W(0)},
         {Step::PageOut}, {{V::NumaOwned, E::Flush}},
         {{V::NumaNone, E::Flush}}, true},
        // The page migrates to its LA-NUMA client, which collects its
        // copies before retiring the imaginary frame.
        {"NumaCollectShared", kNumaModes, kMesi, kClient, {R(0)},
         {Step::Migrate, kClient}, {{V::NumaShared, E::Collect}},
         {{V::NumaNone, E::Collect}}, true},
        {"NumaCollectOwned", kNumaModes, kMesi, kClient, {W(0)},
         {Step::Migrate, kClient}, {{V::NumaOwned, E::Collect}},
         {{V::NumaNone, E::Collect}}, true},
    };
    return s;
}

/**
 * The legal cells no scenario drives: each is reached only through a
 * race between two transactions, or not at all.
 */
const std::map<Cell, const char *> &
races()
{
    static const std::map<Cell, const char *> r = {
        {{V::Invalid, E::BusUpgrade},
         "an Inv took the copy after the bus saw it"},
        {{V::NumaNone, E::BusUpgrade},
         "an Inv took the copy after the bus saw it"},
        {{V::NumaShared, E::BusWrite},
         "a copy the bus did not see (every snoop write supplies)"},
        {{V::Transit, E::BusRead}, "second miss on a line in flight"},
        {{V::Transit, E::BusWrite}, "second miss on a line in flight"},
        {{V::Transit, E::BusUpgrade}, "second miss on a line in flight"},
        {{V::NumaTransit, E::BusRead}, "second miss on a line in flight"},
        {{V::NumaTransit, E::BusWrite}, "second miss on a line in flight"},
        {{V::NumaTransit, E::BusUpgrade},
         "second miss on a line in flight"},
        {{V::Invalid, E::GrantShared}, "a page flush dropped Transit"},
        {{V::Invalid, E::GrantExclusive}, "a page flush dropped Transit"},
        {{V::Invalid, E::GrantVoid}, "a page flush dropped Transit"},
        {{V::Transit, E::GrantVoid}, "an Inv crossed a shared grant"},
        {{V::NumaTransit, E::GrantVoid}, "an Inv crossed a shared grant"},
        {{V::Invalid, E::FillShared}, "an Inv between grant and fill"},
        {{V::Invalid, E::FillOwned}, "an Inv between grant and fill"},
        {{V::Shared, E::FillOwned}, "a Fetch between grant and fill"},
        {{V::Transit, E::FillShared}, "a fill while a miss is in flight"},
        {{V::Transit, E::FillOwned}, "a fill while a miss is in flight"},
        {{V::NumaTransit, E::FillVoid}, "an Inv between grant and fill"},
        {{V::NumaNone, E::FillShared}, "a fill with no token"},
        {{V::NumaNone, E::FillOwned}, "a fill with no token"},
        {{V::NumaShared, E::FillShared}, "a fill with no token"},
        {{V::NumaShared, E::FillOwned}, "a fill with no token"},
        {{V::NumaOwned, E::FillShared}, "a fill with no token"},
        {{V::NumaOwned, E::FillOwned}, "a fill with no token"},
        {{V::Invalid, E::Inv}, "an Inv crossed the page-out notice"},
        {{V::Exclusive, E::Inv}, "an Inv to the line's owner"},
        {{V::Transit, E::Inv}, "an Inv crossed this node's request"},
        {{V::NumaOwned, E::Inv}, "an Inv to the line's owner"},
        {{V::NumaTransit, E::Inv}, "an Inv crossed this node's request"},
        {{V::Invalid, E::FetchRead}, "a Fetch crossed a writeback"},
        {{V::Invalid, E::FetchWrite}, "a Fetch crossed a writeback"},
        {{V::Shared, E::FetchRead}, "a Fetch crossed a downgrade"},
        {{V::Shared, E::FetchWrite}, "a Fetch crossed a downgrade"},
        {{V::Transit, E::FetchRead}, "a Fetch crossed this node's grant"},
        {{V::Transit, E::FetchWrite}, "a Fetch crossed this node's grant"},
        {{V::NumaNone, E::FetchRead}, "a Fetch crossed a writeback"},
        {{V::NumaNone, E::FetchWrite}, "a Fetch crossed a writeback"},
        {{V::NumaShared, E::FetchRead}, "a Fetch crossed a downgrade"},
        {{V::NumaShared, E::FetchWrite}, "a Fetch crossed a downgrade"},
        {{V::NumaTransit, E::FetchRead},
         "a Fetch crossed this node's grant"},
        {{V::NumaTransit, E::FetchWrite},
         "a Fetch crossed this node's grant"},
        {{V::Transit, E::RecallRead},
         "the home waits for its own grants first"},
        {{V::Transit, E::RecallWrite},
         "the home waits for its own grants first"},
        {{V::Transit, E::Flush}, "a stale translation missed mid-flush"},
        {{V::NumaTransit, E::Flush},
         "a stale translation missed mid-flush"},
        {{V::Transit, E::Collect}, "a migration met a miss in flight"},
        {{V::NumaTransit, E::Collect}, "a migration met a miss in flight"},
    };
    return r;
}

struct Rig {
    Rig(Mode mode, ProtocolScheme scheme) : m(config(mode, scheme))
    {
        gsid = m.shmget(kKey, 16 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    config(Mode mode, ProtocolScheme scheme)
    {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.procsPerNode = 2;
        cfg.policy = mode == Mode::Scoma ? PolicyKind::Scoma
                                         : PolicyKind::LaNuma;
        cfg.ccNumaBypass = mode == Mode::CcNuma;
        cfg.protocol = scheme;
        cfg.oracleMode = OracleMode::Continuous;
        cfg.l1Bytes = 2048;
        cfg.l1Assoc = 1;
        cfg.l2Bytes = static_cast<std::uint32_t>(kPageBytes);
        cfg.l2Assoc = 1;
        return cfg;
    }

    GPage gp() const { return (gsid << kPageNumBits) | kPage; }

    CoherenceController &ctrl(NodeId n) { return m.node(n).controller(); }

    /** The subject's frame for the test page (kInvalidFrame if none). */
    FrameNum frame(NodeId n) { return ctrl(n).pit().frameOf(gp()); }

    /**
     * The test line's view at node @p n at a quiescent point, derived
     * from the PIT entry and the processor caches.
     */
    V
    view(NodeId n)
    {
        const Pit::Ref e = ctrl(n).pit().entry(frame(n));
        if (e->mode == PageMode::Scoma)
            return tagView(e->tags.get(0));
        const Mesi held = m.node(n).heldCopy(e->frame, 0);
        return held == Mesi::Invalid ? V::NumaNone
               : ownerClass(held)    ? V::NumaOwned
                                     : V::NumaShared;
    }

    void
    run(const Step &s)
    {
        switch (s.kind) {
          case Step::Read:
          case Step::Write:
          case Step::PrivRead:
          case Step::PrivWrite: {
            const bool priv =
                s.kind == Step::PrivRead || s.kind == Step::PrivWrite;
            const bool write =
                s.kind == Step::Write || s.kind == Step::PrivWrite;
            const VAddr va = priv ? VAddr{kPrivateVsidBase << kSegShift}
                                  : makeVAddr(kSharedVsid, s.page,
                                              s.line * 64);
            m.run([&](Proc &p) -> CoTask {
                return access(p, p.id() == s.who, va, write);
            });
            break;
          }
          case Step::PageOut: {
            bool done = false;
            auto drive = [&]() -> FireAndForget {
                co_await m.node(kClient).kernel().pageOutClient(gp(), false);
                done = true;
            };
            drive();
            m.eventQueue().runAll();
            ASSERT_TRUE(done);
            break;
          }
          case Step::Migrate:
            ctrl(kHome).requestMigration(gp(), s.who);
            m.eventQueue().runAll();
            ASSERT_TRUE(ctrl(s.who).isDynHome(gp()));
            break;
        }
    }

    static CoTask
    access(Proc &p, bool me, VAddr va, bool write)
    {
        if (!me)
            co_return;
        if (write)
            co_await p.write(va);
        else
            co_await p.read(va);
    }

    Machine m;
    std::uint64_t gsid = 0;
};

/** Counters the cells' actions move at the subject node. */
struct Counters {
    std::uint64_t localMemHits, requests, retries, fetchesServed,
        nacksSent, invalsReceived, writebacks;
};

Counters
counters(Rig &rig, NodeId n)
{
    const ControllerStats &c = rig.ctrl(n).stats();
    return {c.localMemHits,  c.remoteMisses + c.upgrades,
            c.retries,       c.fetchesServed,
            c.nacksSent,     c.invalsReceived,
            c.writebacksSent};
}

struct Case {
    std::size_t scenario;
    Mode mode;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << scenarios()[c.scenario].name << "/" << modeName(c.mode);
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (std::size_t i = 0; i < scenarios().size(); ++i) {
        for (Mode mode : {Mode::Scoma, Mode::LaNuma, Mode::CcNuma}) {
            if (scenarios()[i].modes & (1u << static_cast<unsigned>(mode)))
                out.push_back({i, mode});
        }
    }
    return out;
}

class ClientEngine : public ::testing::TestWithParam<Case>
{
};

TEST_P(ClientEngine, ScenarioRaisesItsCells)
{
    const Scenario &s = scenarios()[GetParam().scenario];
    const Mode mode = GetParam().mode;
    const ClientTable &proto = kClientTable;
    Rig rig(mode, s.scheme);
    for (const Step &st : s.setup)
        rig.run(st);
    // The private steps touch a Local frame; the others start from the
    // test line's view at the subject.
    const Cell first = s.cells.front();
    if (first.first != V::Local) {
        ASSERT_NE(rig.frame(s.subject), kInvalidFrame);
        ASSERT_EQ(rig.view(s.subject), first.first)
            << "setup did not reach the row";
        if (s.subject == kClient && mode != Mode::Scoma) {
            EXPECT_EQ(rig.ctrl(kClient)
                          .pit()
                          .entry(rig.frame(kClient))
                          ->mode,
                      mode == Mode::CcNuma ? PageMode::CcNuma
                                           : PageMode::LaNuma);
        }
    }

    // Each cell is looked up as often as the scenario raises it, on
    // the test line and on the page's other lines.
    std::map<Cell, std::uint64_t> want;
    for (const Cell &c : s.cells)
        ++want[c];
    for (const Cell &c : s.others)
        want[c] += rig.ctrl(s.subject).geometry().linesPerPage() - 1;
    std::map<Cell, std::uint64_t> before;
    for (V v : kViews) {
        for (E e : kEvents)
            before[{v, e}] = rig.ctrl(s.subject).clientCellHits(v, e);
    }
    const Counters c0 = counters(rig, s.subject);
    rig.run(s.raise);
    const Counters c1 = counters(rig, s.subject);
    for (V v : kViews) {
        for (E e : kEvents) {
            const Cell c{v, e};
            const auto it = want.find(c);
            EXPECT_EQ(rig.ctrl(s.subject).clientCellHits(v, e) - before[c],
                      it == want.end() ? 0u : it->second)
                << enumName(e) << " on " << enumName(v);
        }
    }

    // The chain is the table's: each cell starts where the previous
    // one left the line (the grant lands on the request's Transit).
    for (std::size_t i = 1; i < s.cells.size(); ++i) {
        EXPECT_EQ(proto.on(s.cells[i - 1].first, s.cells[i - 1].second)
                      .next,
                  s.cells[i].first);
    }
    const ClientTransition &last =
        proto.on(s.cells.back().first, s.cells.back().second);
    if (s.unmaps) {
        if (s.subject == kClient && s.raise.kind == Step::PageOut) {
            EXPECT_EQ(rig.frame(kClient), kInvalidFrame);
        }
    } else if (last.next != V::Local) {
        EXPECT_EQ(rig.view(s.subject), last.next)
            << "the line ends in " << enumName(rig.view(s.subject));
    }

    // The counters the test line's actions move.
    std::uint64_t local = 0, requests = 0, retries = 0, served = 0,
                  nacked = 0, invals = 0, writebacks = 0;
    for (const Cell &c : s.cells) {
        const std::uint32_t a = proto.on(c.first, c.second).actions;
        local += (a & LM) != 0;
        requests += (a & (RS | RX | RU)) != 0;
        retries += (a & RT) != 0;
        const bool fetch = c.second == E::FetchRead || c.second == E::FetchWrite;
        served += fetch && (a & SV);
        nacked += fetch && !(a & SV);
        invals += c.second == E::Inv;
        writebacks += (a & WB) != 0;
    }
    EXPECT_EQ(c1.localMemHits - c0.localMemHits, local);
    EXPECT_EQ(c1.requests - c0.requests, requests);
    EXPECT_EQ(c1.retries - c0.retries, retries);
    EXPECT_EQ(c1.fetchesServed - c0.fetchesServed, served);
    EXPECT_EQ(c1.nacksSent - c0.nacksSent, nacked);
    EXPECT_EQ(c1.invalsReceived - c0.invalsReceived, invals);
    // An owned S-COMA line is written home by the flush; an owned
    // LA-NUMA copy leaves as a dirty eviction does (kCliRelease).
    const bool numa_owned_flush = (first == Cell{V::NumaOwned, E::Flush});
    EXPECT_EQ(c1.writebacks - c0.writebacks,
              writebacks + (numa_owned_flush ? 1u : 0u));
}

INSTANTIATE_TEST_SUITE_P(
    Drivable, ClientEngine, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(scenarios()[info.param.scenario].name) + "_" +
               modeName(info.param.mode);
    });

TEST(ClientEngineCoverage, EveryLegalCellIsDrivenOrARace)
{
    std::set<Cell> driven;
    for (const Scenario &s : scenarios()) {
        driven.insert(s.cells.begin(), s.cells.end());
        driven.insert(s.others.begin(), s.others.end());
        // A LA-NUMA row is driven under both LA-NUMA and CC-NUMA.
        for (const Cell &c : s.cells) {
            if (isNumaView(c.first)) {
                EXPECT_EQ(s.modes & kNumaModes, kNumaModes) << s.name;
            }
        }
    }
    for (const auto &[cell, exp] : expected()) {
        SCOPED_TRACE(std::string(enumName(cell.second)) + " on " +
                     enumName(cell.first));
        const bool race = races().count(cell) != 0;
        EXPECT_NE(driven.count(cell) != 0, race)
            << (race ? "driven, yet listed as a race"
                     : "neither driven nor listed as a race");
    }
    for (const auto &[cell, why] : races()) {
        EXPECT_TRUE(expected().count(cell)) << why;
    }
}

} // namespace
} // namespace prism
