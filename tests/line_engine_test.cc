/**
 * @file
 * Engine conformance for the intra-node line protocol: every table cell
 * the engine reads, driven end to end on a machine.
 *
 * line_protocol_test checks each scheme's table against a spec written
 * by hand; this test checks the running engine against the table, so
 * together they check the engine against the spec.  For each scheme
 * and each legal (state, event) cell it drives processor 0's copy of
 * one line into the row state, raises the column event with one access
 * and asserts that processor 0 ends in on(row, event).next and that the
 * side effects the cell's action flags name happened:
 *   LocalStore  processor 0 stores;
 *   SnoopRead   its bus peer (processor 1) loads;
 *   SnoopWrite  its bus peer stores;
 *   RemoteRead  a processor on node 2 loads;
 *   Inval       a processor on node 2 stores;
 *   Evict       processor 0 loads a line that conflicts in its caches.
 *
 * The machine is 4x2 with LA-NUMA client pages, so relinquishes,
 * writebacks and replacement hints reach the home as messages.  The
 * caches are one direct-mapped page, so line 0 of any page evicts line
 * 0 of every other.  Each step is a separate Machine::run, which drains
 * the event queue, so counters are read at quiescent points.  The
 * continuous oracle checks every value the steps move.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "coherence/line_protocol.hh"
#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {

void
PrintTo(LineState s, std::ostream *os)
{
    *os << enumName(s);
}

namespace {

constexpr std::uint64_t kKey = 0x11E;
// Line 0 of each page; the test page is homed at node 1, so node 0 is
// an LA-NUMA client.  The other pages are homed at node 0 and only
// evict: processor 0's in the setup and for Evict, processor 1's in
// the setup.
constexpr std::uint64_t kPage = 1;
constexpr std::uint64_t kDrop0 = 4;
constexpr std::uint64_t kConflict0 = 8;
constexpr std::uint64_t kDrop1 = 12;
constexpr ProcId kP0 = 0;               // the subject, node 0
constexpr ProcId kP1 = 1;               // its bus peer, node 0
constexpr ProcId kRemote = 4;           // node 2
constexpr NodeId kHome = 1;

constexpr LineEvent kEvents[kNumLineEvents] = {
    LineEvent::LocalStore, LineEvent::SnoopRead, LineEvent::SnoopWrite,
    LineEvent::RemoteRead, LineEvent::Inval,     LineEvent::Evict,
};

constexpr LineState kRows[] = {LineState::Shared, LineState::Exclusive,
                               LineState::Modified, LineState::Owned,
                               LineState::Forward};

CoTask
access(Proc &p, VAddr va, bool write)
{
    if (write)
        co_await p.write(va);
    else
        co_await p.read(va);
}

CoTask
idle(Proc &)
{
    co_return;
}

/** The counters whose changes the action flags predict. */
struct Counters {
    std::uint64_t remoteMisses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t hints = 0;
    std::uint64_t fetchesServed = 0;
    std::uint64_t invalsReceived = 0;
    std::uint64_t upgradesLocal = 0; //!< processor 0's bus upgrades
    std::uint64_t busData = 0;       //!< node 0's bus data phases
    std::uint64_t homeDram = 0;      //!< home memory accesses
};

struct EngineRig {
    explicit EngineRig(ProtocolScheme scheme) : m(config(scheme))
    {
        gsid = m.shmget(kKey, 16 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    config(ProtocolScheme scheme)
    {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.procsPerNode = 2;
        cfg.policy = PolicyKind::LaNuma;
        cfg.protocol = scheme;
        cfg.oracleMode = OracleMode::Continuous;
        cfg.l1Bytes = 2048;
        cfg.l1Assoc = 1;
        cfg.l2Bytes = static_cast<std::uint32_t>(kPageBytes);
        cfg.l2Assoc = 1;
        return cfg;
    }

    /** One access by @p who to line 0 of shared page @p pnum. */
    void
    step(ProcId who, bool write, std::uint64_t pnum = kPage)
    {
        const VAddr va = makeVAddr(kSharedVsid, pnum, 0);
        m.run([&](Proc &p) -> CoTask {
            return p.id() == who ? access(p, va, write) : idle(p);
        });
    }

    /** Processor @p who's merged state for the test line. */
    LineState
    state(ProcId who)
    {
        const NodeId n = who / m.config().procsPerNode;
        const FrameNum f =
            m.node(n).controller().pit().frameOf(gp());
        if (f == kInvalidFrame)
            return LineState::Invalid;
        return m.node(n)
            .proc(who % m.config().procsPerNode)
            .lineState(f << kPageShift);
    }

    GPage gp() const { return (gsid << kPageNumBits) | kPage; }

    Counters
    counters()
    {
        const ControllerStats &c = m.node(0).controller().stats();
        Counters k;
        k.remoteMisses = c.remoteMisses;
        k.upgrades = c.upgrades;
        k.writebacks = c.writebacksSent;
        k.hints = c.replaceHintsSent;
        k.fetchesServed = c.fetchesServed;
        k.invalsReceived = c.invalsReceived;
        k.upgradesLocal = m.node(0).proc(0).stats().upgradesLocal;
        k.busData = m.node(0).bus().dataTransfers();
        k.homeDram = m.node(kHome).dram().accesses();
        return k;
    }

    /** The home directory's view of the test line. */
    Directory::LineRef
    dirLine()
    {
        return m.node(kHome).controller().dirLine(gp(), 0);
    }

    Machine m;
    std::uint64_t gsid = 0;
};

/**
 * Drive processor 0 into @p row with processor 1 holding no copy: the
 * access that raises the event then finds the row state alone.
 */
void
driveTo(EngineRig &rig, LineState row)
{
    switch (row) {
      case LineState::Exclusive:
        // A fresh home page is owned by the home: a read there is
        // granted shared.  Write and evict first, so the line is
        // uncached and the home grants exclusivity.
        rig.step(kP0, true);
        rig.step(kP0, false, kDrop0);
        rig.step(kP0, false);
        break;
      case LineState::Modified:
        rig.step(kP0, true);
        break;
      case LineState::Owned:
        rig.step(kP0, true);
        rig.step(kP1, false);             // M supplies and stays Owned
        rig.step(kP1, false, kDrop1); // drop processor 1's copy
        break;
      case LineState::Shared:
      case LineState::Forward:
        rig.step(kRemote, false); // another node shares the line
        rig.step(kP0, false);     // shared fill
        if (row == LineState::Shared &&
            rig.state(kP0) == LineState::Forward) {
            rig.step(kP1, false); // the designation moves to processor 1
            rig.step(kP1, false, kDrop1);
        }
        break;
      case LineState::Invalid:
        FAIL() << "the Invalid row is illegal";
    }
}

/** Raise @p ev on processor 0's copy of the test line. */
void
raise(EngineRig &rig, LineEvent ev)
{
    switch (ev) {
      case LineEvent::LocalStore: rig.step(kP0, true); break;
      case LineEvent::SnoopRead: rig.step(kP1, false); break;
      case LineEvent::SnoopWrite: rig.step(kP1, true); break;
      case LineEvent::RemoteRead: rig.step(kRemote, false); break;
      case LineEvent::Inval: rig.step(kRemote, true); break;
      case LineEvent::Evict: rig.step(kP0, false, kConflict0); break;
    }
}

struct Cell {
    ProtocolScheme scheme;
    LineState row;
    LineEvent ev;
};

void
PrintTo(const Cell &c, std::ostream *os)
{
    *os << enumName(c.scheme) << " " << enumName(c.row) << " x "
        << enumName(c.ev);
}

std::vector<Cell>
legalCells()
{
    std::vector<Cell> out;
    for (ProtocolScheme scheme :
         {ProtocolScheme::Msi, ProtocolScheme::Mesi, ProtocolScheme::Moesi,
          ProtocolScheme::Mesif}) {
        const LineProtocol &p = lineProtocol(scheme);
        for (LineState row : kRows) {
            for (LineEvent ev : kEvents) {
                if (p.tryOn(row, ev))
                    out.push_back({scheme, row, ev});
            }
        }
    }
    return out;
}

class LineEngine : public ::testing::TestWithParam<Cell>
{
};

TEST_P(LineEngine, CellMatchesTable)
{
    const Cell c = GetParam();
    const LineProtocol &proto = lineProtocol(c.scheme);
    const Transition &t = proto.on(c.row, c.ev);
    const bool supply = t.actions & kActSupplyData;
    const bool wb = t.actions & kActWritebackData;
    const bool owner = ownerClass(c.row);

    EngineRig rig(c.scheme);
    driveTo(rig, c.row);
    ASSERT_EQ(rig.state(kP0), c.row) << "setup did not reach the row";
    ASSERT_EQ(rig.state(kP1), LineState::Invalid);
    ASSERT_EQ(rig.m.node(0)
                  .controller()
                  .pit()
                  .entry(rig.m.node(0).controller().pit().frameOf(rig.gp()))
                  ->mode,
              PageMode::LaNuma);

    const Counters before = rig.counters();
    raise(rig, c.ev);
    const Counters after = rig.counters();
    auto delta = [&](std::uint64_t Counters::*f) {
        return after.*f - before.*f;
    };

    EXPECT_EQ(rig.state(kP0), t.next)
        << "processor 0 ends in " << enumName(rig.state(kP0));

    switch (c.ev) {
      case LineEvent::LocalStore:
        // kActNeedsBus: the store takes a bus transaction.  From an
        // owner-class state the node already owns the line, so the bus
        // alone completes it; otherwise the home grants permission
        // (an upgrade, no data).
        EXPECT_EQ(delta(&Counters::upgradesLocal),
                  (t.actions & kActNeedsBus) ? 1u : 0u);
        EXPECT_EQ(delta(&Counters::upgrades),
                  (t.actions & kActNeedsBus) && !owner ? 1u : 0u);
        EXPECT_EQ(delta(&Counters::remoteMisses), 0u);
        break;
      case LineEvent::SnoopRead:
        // kActSupplyData: the peer fills cache-to-cache.
        EXPECT_EQ(delta(&Counters::remoteMisses), supply ? 0u : 1u);
        if (supply) {
            EXPECT_EQ(rig.state(kP1), proto.peerReadFill());
        }
        // kActRelinquish: a keep-shared writeback tells the home the
        // node no longer owns the line; kActWritebackData: it carries
        // the dirty data into home memory.
        if (t.actions & kActRelinquish) {
            EXPECT_EQ(delta(&Counters::writebacks), 1u);
            EXPECT_EQ(delta(&Counters::homeDram), wb ? 1u : 0u);
            EXPECT_EQ(rig.dirLine().state(), DirState::Shared);
            EXPECT_TRUE(rig.dirLine().isSharer(0));
        } else {
            EXPECT_EQ(delta(&Counters::writebacks), 0u);
        }
        if (ownerClass(t.next)) {
            EXPECT_EQ(rig.dirLine().state(), DirState::Owned);
            EXPECT_EQ(rig.dirLine().owner(), 0u);
        }
        break;
      case LineEvent::SnoopWrite:
        // kActSupplyData: the peer's store takes processor 0's data,
        // so the home at most grants permission.
        EXPECT_EQ(rig.state(kP1), proto.writeFill());
        if (supply) {
            EXPECT_EQ(delta(&Counters::remoteMisses), 0u);
            EXPECT_EQ(delta(&Counters::upgrades), owner ? 0u : 1u);
        } else {
            EXPECT_EQ(delta(&Counters::remoteMisses), 1u);
        }
        break;
      case LineEvent::RemoteRead:
        // kActSupplyData: the owner serves the home's fetch;
        // kActWritebackData: its dirty data crosses the bus and goes
        // home with the transfer notice.
        EXPECT_EQ(delta(&Counters::fetchesServed), supply ? 1u : 0u);
        EXPECT_EQ(delta(&Counters::busData), wb ? 1u : 0u);
        if (supply) {
            EXPECT_EQ(delta(&Counters::homeDram), wb ? 1u : 0u);
        }
        EXPECT_EQ(rig.dirLine().state(), DirState::Shared);
        EXPECT_TRUE(rig.dirLine().isSharer(0));
        EXPECT_TRUE(rig.dirLine().isSharer(2));
        break;
      case LineEvent::Inval:
        // An owner serves the home's fetch for write; a sharer gets an
        // invalidation.  kActWritebackData: dirty data crosses the bus.
        EXPECT_EQ(delta(&Counters::fetchesServed), owner ? 1u : 0u);
        EXPECT_EQ(delta(&Counters::invalsReceived), owner ? 0u : 1u);
        EXPECT_EQ(delta(&Counters::busData), wb ? 1u : 0u);
        EXPECT_EQ(rig.dirLine().state(), DirState::Owned);
        EXPECT_EQ(rig.dirLine().owner(), 2u);
        break;
      case LineEvent::Evict:
        // kActWritebackData: a writeback carrying data into home
        // memory; kActReplaceHint: a clean release; neither: a silent
        // drop that leaves the directory as it was.
        EXPECT_EQ(delta(&Counters::writebacks), wb ? 1u : 0u);
        EXPECT_EQ(delta(&Counters::hints),
                  (t.actions & kActReplaceHint) ? 1u : 0u);
        if (wb || (t.actions & kActReplaceHint)) {
            EXPECT_EQ(delta(&Counters::homeDram), wb ? 1u : 0u);
            EXPECT_EQ(rig.dirLine().state(), DirState::Uncached);
        } else {
            EXPECT_TRUE(rig.dirLine().isSharer(0));
        }
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, LineEngine, ::testing::ValuesIn(legalCells()),
    [](const ::testing::TestParamInfo<Cell> &info) {
        return std::string(enumName(info.param.scheme)) + "_" +
               enumName(info.param.row) + "_" +
               enumName(info.param.ev);
    });

} // namespace
} // namespace prism
