/**
 * @file
 * Property-based coherence tests: random shared-memory traffic from
 * every processor under every policy, then a full sweep of protocol
 * invariants over the quiescent machine state.
 *
 * Invariants checked (per global line):
 *  I1  exactly one node holds the directory page (single dynamic home)
 *  I2  Owned(o): no other node has a valid fine-grain tag, and no
 *      processor cache outside o holds the line
 *  I3  Shared: no node has an Exclusive tag; every node with a Shared
 *      tag is in the sharer set; no processor cache holds M/E
 *  I4  Uncached: no valid tags, no cached copies anywhere
 *  I5  a processor cache holding M/E implies its node is the owner
 *      (global pages) and no other processor holds the line
 *  I6  L1 contents are a subset of L2 contents (inclusion)
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <tuple>

#include "check/oracle.hh"
#include "core/machine.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

struct Cfg {
    PolicyKind policy;
    std::uint64_t seed;
    std::uint64_t cap; // client S-COMA frame cap (0 = unlimited)
    bool migrate = false; // lazy page migration enabled
};

class CoherenceProperty : public ::testing::TestWithParam<Cfg>
{
};

CoTask
chaos(Proc &p, std::uint64_t gsid, std::uint32_t pages,
      std::uint64_t seed, std::uint32_t ops)
{
    Rng rng(seed * 7919 + p.id());
    for (std::uint32_t i = 0; i < ops; ++i) {
        const std::uint64_t pnum = rng.below(pages);
        const std::uint64_t off = rng.below(kPageBytes / 8) * 8;
        VAddr va = makeVAddr(kSharedVsid, pnum, off);
        if (rng.below(100) < 40)
            co_await p.write(va);
        else
            co_await p.read(va);
        p.compute(rng.below(20));
        if (i % 64 == 63)
            co_await p.barrier(0);
        (void)gsid;
    }
    // Everyone must hit the same number of barrier episodes.
    co_await p.barrier(1);
}

/** Full invariant sweep over the quiescent machine. */
void
checkInvariants(Machine &m)
{
    const std::uint32_t nodes = m.numNodes();
    const LineGeometry geo(m.config().lineBytes);

    // Gather all directory pages and check I1.
    std::map<GPage, NodeId> dir_home;
    for (NodeId n = 0; n < nodes; ++n) {
        auto &ctrl = m.node(n).controller();
        for (FrameNum f : ctrl.pit().globalFrames()) {
            const Pit::Ref e = ctrl.pit().entry(f);
            if (ctrl.isDynHome(e->gpage)) {
                auto [it, fresh] =
                    dir_home.emplace(e->gpage, n);
                EXPECT_TRUE(fresh || it->second == n)
                    << "two dynamic homes for page " << std::hex
                    << e->gpage;
            }
        }
    }

    // Per-node maps: gpage -> (frame, entry) and proc cache contents
    // translated to global lines.
    struct NodeView {
        std::map<GPage, const PitEntry *> mapped;
        std::map<GPage, FrameNum> frameOf;
        // global line -> strongest proc state at this node
        std::map<GLine, Mesi> cached;
    };
    std::vector<NodeView> views(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        auto &node = m.node(n);
        auto &pit = node.controller().pit();
        std::map<FrameNum, GPage> frame2page;
        for (FrameNum f : pit.globalFrames()) {
            const PitEntry *e = &*pit.entry(f);
            views[n].mapped[e->gpage] = e;
            views[n].frameOf[e->gpage] = f;
            frame2page[f] = e->gpage;
        }
        for (std::uint32_t pi = 0; pi < node.numProcs(); ++pi) {
            Proc &proc = node.proc(pi);
            // I6: inclusion.
            for (auto [addr, s1] : proc.l1().snapshot()) {
                EXPECT_NE(proc.l2().lookup(addr), Mesi::Invalid)
                    << "L1 line not in L2 (inclusion)";
                (void)s1;
            }
            for (auto [addr, s2] : proc.l2().snapshot()) {
                Mesi s1 = proc.l1().lookup(addr);
                Mesi merged = s1 > s2 ? s1 : s2;
                auto it = frame2page.find(addr >> kPageShift);
                if (it == frame2page.end())
                    continue; // private line
                GLine gl = geo.lineOf(it->second,
                                      geo.lineIndex(addr));
                Mesi &cur = views[n].cached[gl];
                if (merged > cur)
                    cur = merged;
            }
        }
    }

    // Per-line checks against the directory.
    for (auto [gp, home] : dir_home) {
        auto &ctrl = m.node(home).controller();
        for (std::uint32_t li = 0; li < geo.linesPerPage(); ++li) {
            const Directory::LineRef d = ctrl.dirLine(gp, li);
            ASSERT_TRUE(d);
            const GLine gl = geo.lineOf(gp, li);
            for (NodeId n = 0; n < nodes; ++n) {
                auto it = views[n].mapped.find(gp);
                FgTag tag = FgTag::Invalid;
                if (it != views[n].mapped.end() &&
                    it->second->mode == PageMode::Scoma)
                    tag = it->second->tags.get(li);
                EXPECT_NE(tag, FgTag::Transit)
                    << "Transit tag in quiescent state";
                Mesi cached = Mesi::Invalid;
                auto cit = views[n].cached.find(gl);
                if (cit != views[n].cached.end())
                    cached = cit->second;

                switch (d.state()) {
                  case DirState::Owned:
                    if (n != d.owner()) {
                        EXPECT_EQ(tag, FgTag::Invalid)
                            << "valid tag at non-owner node " << n;
                        EXPECT_EQ(cached, Mesi::Invalid)
                            << "cached copy at non-owner node " << n;
                    }
                    break;
                  case DirState::Shared:
                    EXPECT_NE(tag, FgTag::Exclusive)
                        << "Exclusive tag under Shared dir state";
                    if (tag == FgTag::Shared) {
                        EXPECT_TRUE(d.isSharer(n))
                            << "Shared tag at non-sharer node " << n;
                    }
                    EXPECT_NE(cached, Mesi::Modified)
                        << "M copy under Shared dir state";
                    EXPECT_NE(cached, Mesi::Exclusive)
                        << "E copy under Shared dir state";
                    break;
                  case DirState::Uncached:
                    EXPECT_EQ(tag, FgTag::Invalid)
                        << "valid tag under Uncached dir state";
                    EXPECT_EQ(cached, Mesi::Invalid)
                        << "cached copy under Uncached dir state";
                    break;
                }
                // I5: an M/E processor copy implies node ownership.
                if (cached == Mesi::Modified ||
                    cached == Mesi::Exclusive) {
                    EXPECT_TRUE(d.state() == DirState::Owned &&
                                d.owner() == n)
                        << "M/E proc copy without node ownership";
                }
            }
        }
    }
}

TEST_P(CoherenceProperty, RandomTrafficPreservesInvariants)
{
    const Cfg &c = GetParam();
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.policy = c.policy;
    cfg.clientFrameCapPerNode.assign(cfg.numNodes, c.cap);
    cfg.seed = c.seed;
    cfg.migrationEnabled = c.migrate;
    cfg.migrationThreshold = 32; // migrate aggressively under churn
    // The in-flight oracle watches every transition while the
    // structural sweep below checks the quiescent end state.
    cfg.oracleMode = OracleMode::Continuous;
    cfg.oracleFatal = false;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(0xC0FFEE, 8 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    m.run([&](Proc &p) {
        return chaos(p, gsid, 8, c.seed, 400);
    });
    checkInvariants(m);
    EXPECT_EQ(m.oracle()->violationCount(), 0u)
        << m.oracle()->violations().front().what;
}

/**
 * Seed sweep: the same chaos run under a seed taken from
 * PRISM_PROPERTY_SEED.  tests/CMakeLists.txt registers one ctest entry
 * per seed so a failing seed shows up by name in the ctest summary;
 * the seed is also printed on any failure below.
 */
TEST(CoherenceSeedSweep, RandomTrafficPreservesInvariants)
{
    const char *env = std::getenv("PRISM_PROPERTY_SEED");
    if (!env)
        GTEST_SKIP() << "PRISM_PROPERTY_SEED not set";
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    SCOPED_TRACE("PRISM_PROPERTY_SEED=" + std::string(env));

    // Rotate policy and cap with the seed so the sweep covers the
    // whole configuration space as it grows.
    static const Cfg kRotation[] = {
        Cfg{PolicyKind::Scoma, 0, 0},
        Cfg{PolicyKind::LaNuma, 0, 0},
        Cfg{PolicyKind::Scoma70, 0, 2},
        Cfg{PolicyKind::DynFcfs, 0, 3},
        Cfg{PolicyKind::DynUtil, 0, 2},
        Cfg{PolicyKind::DynLru, 0, 1},
        Cfg{PolicyKind::DynBoth, 0, 2},
        Cfg{PolicyKind::Scoma, 0, 0, true},
    };
    Cfg c = kRotation[seed % (sizeof(kRotation) / sizeof(kRotation[0]))];
    c.seed = seed * 0x9E3779B9u + 101;

    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.policy = c.policy;
    cfg.clientFrameCapPerNode.assign(cfg.numNodes, c.cap);
    cfg.seed = c.seed;
    cfg.migrationEnabled = c.migrate;
    cfg.migrationThreshold = 32;
    cfg.oracleMode = OracleMode::Continuous;
    cfg.oracleFatal = false;
    cfg.netJitterMax = seed % 3 ? 32 : 0; // mix jittered schedules in
    cfg.jitterSeed = seed;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(0xC0FFEE, 8 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    m.run([&](Proc &p) {
        return chaos(p, gsid, 8, c.seed, 400);
    });
    checkInvariants(m);
    EXPECT_EQ(m.oracle()->violationCount(), 0u)
        << m.oracle()->violations().front().what;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, CoherenceProperty,
    ::testing::Values(
        Cfg{PolicyKind::Scoma, 1, 0}, Cfg{PolicyKind::Scoma, 2, 0},
        Cfg{PolicyKind::Scoma, 3, 0}, Cfg{PolicyKind::LaNuma, 1, 0},
        Cfg{PolicyKind::LaNuma, 2, 0}, Cfg{PolicyKind::LaNuma, 3, 0},
        Cfg{PolicyKind::Scoma70, 1, 3}, Cfg{PolicyKind::Scoma70, 2, 5},
        Cfg{PolicyKind::DynFcfs, 1, 3}, Cfg{PolicyKind::DynFcfs, 2, 5},
        Cfg{PolicyKind::DynUtil, 1, 3}, Cfg{PolicyKind::DynUtil, 2, 5},
        Cfg{PolicyKind::DynLru, 1, 3}, Cfg{PolicyKind::DynLru, 2, 5},
        Cfg{PolicyKind::DynBoth, 1, 3}, Cfg{PolicyKind::DynBoth, 2, 4},
        // Pathological one-frame caches: maximum page-out churn.
        Cfg{PolicyKind::Scoma70, 7, 1}, Cfg{PolicyKind::DynLru, 7, 1},
        Cfg{PolicyKind::DynUtil, 7, 1}, Cfg{PolicyKind::DynBoth, 7, 1},
        // Lazy migration on: homes move under the traffic.
        Cfg{PolicyKind::Scoma, 11, 0, true},
        Cfg{PolicyKind::LaNuma, 11, 0, true},
        Cfg{PolicyKind::DynLru, 11, 3, true},
        Cfg{PolicyKind::Scoma70, 11, 2, true}),
    [](const ::testing::TestParamInfo<Cfg> &info) {
        std::string name = policyName(info.param.policy);
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        name += "_s" + std::to_string(info.param.seed);
        if (info.param.migrate)
            name += "_mig";
        return name;
    });

} // namespace
} // namespace prism
