/**
 * @file
 * Page-mode policy tests (paper Section 4.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/machine.hh"
#include "policy/page_policy.hh"
#include "workload/apps.hh"
#include "workload/parallel_runner.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0x90C;

struct Rig {
    explicit Rig(PolicyKind pk, std::uint64_t cap)
        : m(makeCfg(pk, cap))
    {
        gsid = m.shmget(kKey, 64 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    makeCfg(PolicyKind pk, std::uint64_t cap)
    {
        MachineConfig cfg;
        cfg.numNodes = 2;
        cfg.procsPerNode = 1;
        cfg.policy = pk;
        cfg.clientFrameCapPerNode.assign(cfg.numNodes, cap);
        return cfg;
    }

    VAddr
    va(std::uint64_t pnum, std::uint64_t off = 0) const
    {
        return makeVAddr(kSharedVsid, pnum, off);
    }

    GPage
    gp(std::uint64_t pnum) const
    {
        return (gsid << kPageNumBits) | pnum;
    }

    /** Touch pages 1,3,5,...,2k-1 from node 1 (all homed at node 0
     *  due to round robin with 2 nodes: odd pages -> node 1!).
     *  Use even pages instead: homed at node 0, client at node 1. */
    void
    touchEvenPages(std::uint32_t count, std::uint32_t lines_each = 1)
    {
        m.run([&](Proc &p) -> CoTask {
            return [](Proc &pp, Rig &r, std::uint32_t n,
                      std::uint32_t lines) -> CoTask {
                if (pp.id() == 1) { // node 1
                    for (std::uint32_t i = 0; i < n; ++i) {
                        for (std::uint32_t l = 0; l < lines; ++l) {
                            co_await pp.read(r.va(
                                2 * i, static_cast<std::uint64_t>(l) *
                                           64));
                        }
                    }
                }
                co_return;
            }(p, *this, count, lines_each);
        });
    }

    PageMode
    clientMode(std::uint64_t pnum)
    {
        auto &pit = m.node(1).controller().pit();
        FrameNum f = pit.frameOf(gp(pnum));
        if (f == kInvalidFrame)
            return PageMode::Local; // unmapped marker
        return pit.entry(f)->mode;
    }

    Machine m;
    std::uint64_t gsid = 0;
};

TEST(Policy, ScomaMapsEverythingReal)
{
    Rig rig(PolicyKind::Scoma, 0);
    rig.touchEvenPages(6);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(rig.clientMode(2 * i), PageMode::Scoma);
    EXPECT_EQ(rig.m.node(1).kernel().stats().clientPageOuts, 0u);
    EXPECT_EQ(rig.m.node(1).kernel().clientScomaCount(), 6u);
}

TEST(Policy, LaNumaMapsEverythingImaginary)
{
    Rig rig(PolicyKind::LaNuma, 0);
    rig.touchEvenPages(6);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(rig.clientMode(2 * i), PageMode::LaNuma);
    EXPECT_EQ(rig.m.node(1).kernel().clientScomaCount(), 0u);
}

TEST(Policy, Scoma70PagesOutLruWithoutConversion)
{
    Rig rig(PolicyKind::Scoma70, 3);
    rig.touchEvenPages(6);
    Kernel &k = rig.m.node(1).kernel();
    EXPECT_LE(k.clientScomaCount(), 3u);
    EXPECT_GE(k.stats().clientPageOuts, 3u);
    EXPECT_EQ(k.stats().conversionsToLaNuma, 0u);
    // Every still-mapped page is S-COMA; none became LA-NUMA.
    for (std::uint64_t i = 0; i < 6; ++i) {
        PageMode mode = rig.clientMode(2 * i);
        EXPECT_TRUE(mode == PageMode::Scoma || mode == PageMode::Local)
            << "page " << i;
    }
    // The three most recently used pages are resident.
    EXPECT_EQ(rig.clientMode(6), PageMode::Scoma);
    EXPECT_EQ(rig.clientMode(8), PageMode::Scoma);
    EXPECT_EQ(rig.clientMode(10), PageMode::Scoma);
}

// ---------------------------------------------------------------------
// Victim selection: Kernel::lruClientPage and the PIT's LRU (pit.hh)
// ---------------------------------------------------------------------

/** Take @p m now (it must be free) and keep it, as a fault would. */
FireAndForget
hold(CoMutex &m)
{
    co_await m.acquire();
}

/** Node 1 touches even pages 0, 2, 4 in that order (no cap). */
struct LruRig : Rig {
    LruRig() : Rig(PolicyKind::Scoma, 0) { touchEvenPages(3); }

    Kernel &kernel() { return m.node(1).kernel(); }
    CoherenceController &ctrl() { return m.node(1).controller(); }
    Pit &pit() { return ctrl().pit(); }
    FrameNum frame(std::uint64_t pnum) { return pit().frameOf(gp(pnum)); }
    Pit::Ref entry(std::uint64_t pnum) { return pit().entry(frame(pnum)); }

    /** True if frame @p f is a page-out candidate (on the LRU). */
    bool
    onLru(FrameNum f)
    {
        const std::vector<FrameNum> v = pit().lruFrames();
        return std::find(v.begin(), v.end(), f) != v.end();
    }
};

TEST(LruVictim, ColdestPageIsTheFirstTouched)
{
    LruRig rig;
    EXPECT_EQ(rig.kernel().clientScomaCount(), 3u);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(0));
    EXPECT_EQ(rig.pit().lruFrames().size(), 3u);
}

TEST(LruVictim, SkipsPageWhoseKernelLockIsHeld)
{
    LruRig rig;
    CoMutex &lk = rig.ctrl().pages().find(rig.gp(0))->pageLock;
    hold(lk);
    EXPECT_TRUE(rig.kernel().pageBusy(rig.gp(0)));
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(2));
    lk.release();
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(0));
}

TEST(LruVictim, SkipsFrameWithATransitLine)
{
    LruRig rig;
    rig.entry(0)->tags.set(1, FgTag::Transit);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(2));
    rig.entry(0)->tags.set(1, FgTag::Invalid);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(0));
}

TEST(LruVictim, NeverTouchedFrameIsColderThanAnyTouchedOne)
{
    LruRig rig;
    constexpr FrameNum kSpare = 500; // outside the kernel's pool use
    rig.ctrl().installClientMapping(kSpare, rig.gp(6), 0, 0, kInvalidFrame,
                                    PageMode::Scoma);
    EXPECT_EQ(rig.pit().entry(kSpare)->lastAccess, 0u);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(6));
    rig.ctrl().removeClientMapping(kSpare);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(0));
}

TEST(LruVictim, LastAccessTieGoesToTheFrameTouchedFirst)
{
    LruRig rig;
    const Tick t = rig.m.eventQueue().now();
    rig.pit().touch(rig.entry(4), t);
    rig.pit().touch(rig.entry(0), t);
    rig.pit().touch(rig.entry(2), t);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(4));
    rig.pit().touch(rig.entry(4), t);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(0));
}

TEST(LruVictim, FramePromotedToHomeLeavesTheList)
{
    LruRig rig;
    const FrameNum f = rig.frame(0);
    ASSERT_TRUE(rig.onLru(f));
    // Page 0 (homed at node 0) migrates to node 1, whose client
    // S-COMA frame becomes the home frame (Kernel::adoptHomePage).
    rig.m.node(0).controller().requestMigration(rig.gp(0), 1);
    rig.m.eventQueue().runAll();
    ASSERT_TRUE(rig.ctrl().isDynHome(rig.gp(0)));
    EXPECT_EQ(rig.frame(0), f); // promoted in place
    EXPECT_FALSE(rig.onLru(f));
    EXPECT_EQ(rig.kernel().clientScomaCount(), 2u);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(2));
}

TEST(LruVictim, FrameFreedByMigrationLeavesTheList)
{
    LruRig rig;
    const FrameNum f = rig.frame(0);
    rig.kernel().migrationFreeFrame(f, rig.gp(0));
    EXPECT_FALSE(rig.onLru(f));
    EXPECT_EQ(rig.kernel().clientScomaCount(), 2u);
    EXPECT_EQ(rig.kernel().lruClientPage(), rig.gp(2));
}

TEST(LruVictim, MostInvalidTieGoesToTheLowestFrame)
{
    // Dyn-Util's rule (Pit::mostInvalidVictim): the frame with the
    // most Invalid tags, a tie to the lowest frame number whatever the
    // LRU order, and a frame with a Transit line skipped.
    LruRig rig;
    std::vector<std::uint64_t> pages = {0, 2, 4};
    std::sort(pages.begin(), pages.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  return rig.frame(a) < rig.frame(b);
              });
    // One valid line each: a three-way tie.  Warming the lowest frame
    // puts it last in the walk.
    rig.pit().touch(rig.entry(pages[0]), rig.m.eventQueue().now());
    EXPECT_EQ(rig.kernel().mostInvalidClientPage(), rig.gp(pages[0]));
    // All Invalid, the lowest frame leads outright; a Transit line
    // (which ties it with the others again) takes it out.
    rig.entry(pages[0])->tags.set(0, FgTag::Invalid);
    EXPECT_EQ(rig.kernel().mostInvalidClientPage(), rig.gp(pages[0]));
    rig.entry(pages[0])->tags.set(5, FgTag::Transit);
    EXPECT_EQ(rig.kernel().mostInvalidClientPage(), rig.gp(pages[1]));
    // One more Invalid line breaks the tie toward the highest frame.
    rig.entry(pages[2])->tags.set(0, FgTag::Invalid);
    EXPECT_EQ(rig.kernel().mostInvalidClientPage(), rig.gp(pages[2]));
    rig.entry(pages[0])->tags.set(5, FgTag::Invalid); // no Transit left
}

TEST(Policy, DynFcfsMapsOverflowAsLaNuma)
{
    Rig rig(PolicyKind::DynFcfs, 3);
    rig.touchEvenPages(6);
    Kernel &k = rig.m.node(1).kernel();
    // First three pages S-COMA, the rest LA-NUMA; no page-outs.
    EXPECT_EQ(k.stats().clientPageOuts, 0u);
    EXPECT_EQ(rig.clientMode(0), PageMode::Scoma);
    EXPECT_EQ(rig.clientMode(2), PageMode::Scoma);
    EXPECT_EQ(rig.clientMode(4), PageMode::Scoma);
    EXPECT_EQ(rig.clientMode(6), PageMode::LaNuma);
    EXPECT_EQ(rig.clientMode(8), PageMode::LaNuma);
    EXPECT_EQ(rig.clientMode(10), PageMode::LaNuma);
}

TEST(Policy, DynLruConvertsVictims)
{
    Rig rig(PolicyKind::DynLru, 3);
    rig.touchEvenPages(6);
    Kernel &k = rig.m.node(1).kernel();
    EXPECT_GE(k.stats().clientPageOuts, 3u);
    EXPECT_GE(k.stats().conversionsToLaNuma, 3u);
    EXPECT_LE(k.clientScomaCount(), 3u);
    // A converted page refaults as LA-NUMA.
    rig.touchEvenPages(1); // page 0 again
    EXPECT_EQ(rig.clientMode(0), PageMode::LaNuma);
}

TEST(Policy, DynUtilConvertsLeastUtilizedFrame)
{
    Rig rig(PolicyKind::DynUtil, 2);
    // Touch page 0 densely (32 lines), pages 2 and 4 sparsely.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 1) {
                for (int l = 0; l < 32; ++l)
                    co_await pp.read(
                        r.va(0, static_cast<std::uint64_t>(l) * 64));
                co_await pp.read(r.va(2));
                co_await pp.read(r.va(4)); // triggers conversion
            }
            co_return;
        }(p, rig);
    });
    Kernel &k = rig.m.node(1).kernel();
    EXPECT_GE(k.stats().conversionsToLaNuma, 1u);
    // The dense page 0 survived; the sparse page 2 was converted.
    EXPECT_EQ(rig.clientMode(0), PageMode::Scoma);
    PageMode m2 = rig.clientMode(2);
    EXPECT_TRUE(m2 == PageMode::Local /*unmapped*/ ||
                m2 == PageMode::LaNuma);
}

TEST(Policy, DynBothRevertsHotLaNumaPages)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    cfg.policy = PolicyKind::DynBoth;
    cfg.clientFrameCapPerNode.assign(cfg.numNodes, 2);
    // Tiny processor caches force repeated remote refetches on the
    // LA-NUMA page so its refetch counter climbs quickly.
    cfg.l1Bytes = 512;
    cfg.l2Bytes = 1024;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(kKey, 64 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);

    // Page 4 starts out converted to LA-NUMA at node 1 (as if a past
    // eviction demoted it).
    m.node(1).kernel().setModeOverride((gsid << kPageNumBits) | 4,
                                       PageMode::LaNuma);
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            auto va = [&](std::uint64_t pnum, std::uint64_t off) {
                return makeVAddr(kSharedVsid, pnum, off);
            };
            if (pp.id() != 1)
                co_return;
            co_await pp.read(va(4, 0)); // maps LA-NUMA via override
            // Hammer page 4 with capacity-evicting strides so its
            // remoteFetches counter exceeds the revert threshold,
            // while faulting a fresh page each round so the policy's
            // amortized reconsideration scan keeps running.
            for (int rep = 0; rep < 40; ++rep) {
                for (int l = 0; l < 48; ++l) {
                    co_await pp.read(
                        va(4, static_cast<std::uint64_t>(l) * 64));
                }
                co_await pp.read(va(6 + 2ULL * rep, 0));
            }
            co_return;
        }(p);
    });
    Kernel &k = m.node(1).kernel();
    EXPECT_GE(k.stats().conversionsToScoma, 1u)
        << "no LA-NUMA page was reverted to S-COMA";
}

// ---------------------------------------------------------------------
// The policy table (policy/page_policy.hh)
// ---------------------------------------------------------------------

TEST(PolicyTable, EachKindHasItsOwnRow)
{
    // The paper's names: reports, traces and the fuzz corpus use them.
    const std::pair<PolicyKind, const char *> kinds[] = {
        {PolicyKind::Scoma, "SCOMA"},      {PolicyKind::LaNuma, "LANUMA"},
        {PolicyKind::Scoma70, "SCOMA-70"}, {PolicyKind::DynFcfs, "Dyn-FCFS"},
        {PolicyKind::DynUtil, "Dyn-Util"}, {PolicyKind::DynLru, "Dyn-LRU"},
        {PolicyKind::DynBoth, "Dyn-Both"},
    };
    ASSERT_EQ(std::size(kPolicyRules), std::size(kinds));
    for (const auto &[kind, name] : kinds) {
        ASSERT_TRUE(policyKnown(kind)) << name;
        EXPECT_EQ(policyRule(kind).kind, kind) << name;
        EXPECT_STREQ(policyRule(kind).name, name);
        EXPECT_STREQ(policyName(kind), name);
    }
}

TEST(PolicyTable, EveryNameRoundTrips)
{
    for (const PolicyRule &r : kPolicyRules) {
        PolicyKind k = r.kind == PolicyKind::Scoma ? PolicyKind::LaNuma
                                                    : PolicyKind::Scoma;
        ASSERT_TRUE(enumFromString(r.name, &k)) << r.name;
        EXPECT_EQ(k, r.kind) << r.name;
    }
}

TEST(PolicyTable, UnknownNamesAreRefused)
{
    PolicyKind k = PolicyKind::DynUtil;
    for (const char *bad : {"", "scoma", "Dyn-lru", "SCOMA-7", "Dyn-Both "})
        EXPECT_FALSE(enumFromString(bad, &k)) << "'" << bad << "'";
    EXPECT_FALSE(enumFromString(nullptr, &k));
    EXPECT_EQ(k, PolicyKind::DynUtil); // untouched
    EXPECT_FALSE(enumFromString<PolicyKind>("SCOMA", nullptr));
}

/** Sum of counter @p name over @p r 's nodes. */
std::uint64_t
summed(const RunReport &r, const std::string &name)
{
    std::uint64_t sum = 0;
    for (const auto &node : r.nodes) {
        for (const auto &v : node.counters) {
            if (v.name == name)
                sum += v.value;
        }
    }
    return sum;
}

/**
 * Dyn-Both is Dyn-LRU's row plus the revert column: in every tiny app
 * where no page reverts, the two runs agree in every metric, per-node
 * counter and histogram.  Tiny Radix is the one app that reaches the
 * revert path on the default machine (4 pages).
 */
TEST(PolicyTable, DynBothIsDynLruUntilAPageReverts)
{
    const std::vector<AppSpec> apps = standardApps(AppScale::Tiny);
    const auto grid = runSweepsParallel(
        RunSpec{.policies = {PolicyKind::DynLru, PolicyKind::DynBoth},
                .jobs = 4},
        apps);
    ASSERT_EQ(grid.size(), 2 * apps.size());
    bool saw_radix = false;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const ExperimentResult &lru = grid[2 * a];
        const ExperimentResult &both = grid[2 * a + 1];
        ASSERT_EQ(both.policy, PolicyKind::DynBoth);
        const std::uint64_t reverted =
            summed(both.report, "kernel.conversionsToScoma");
        if (apps[a].name == "Radix") {
            saw_radix = true;
            EXPECT_GE(reverted, 1u) << "tiny Radix reverted no page";
        }
        if (reverted != 0)
            continue;
        RunReport expect = lru.report;
        expect.generatedAt = both.report.generatedAt;
        expect.policy = both.report.policy;
        EXPECT_TRUE(expect.toJson() == both.report.toJson())
            << apps[a].name << ": Dyn-Both ran differently from Dyn-LRU "
               "without reverting a page";
    }
    EXPECT_TRUE(saw_radix);
}

} // namespace
} // namespace prism
