/**
 * @file
 * Fine-grained controller behaviour tests: evictions, downgrades,
 * Dyn-Util victim queries, finishFill semantics, and stats.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0xC7;

struct Rig {
    explicit Rig(PolicyKind pk = PolicyKind::Scoma)
        : m(makeCfg(pk))
    {
        gsid = m.shmget(kKey, 64 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    makeCfg(PolicyKind pk)
    {
        MachineConfig cfg;
        cfg.numNodes = 2;
        cfg.procsPerNode = 1;
        cfg.policy = pk;
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

    Machine m;
    std::uint64_t gsid = 0;
};

TEST(ControllerUnit, LaNumaDirtyEvictionWritesBack)
{
    Rig rig(PolicyKind::LaNuma);
    // Node 1 writes many lines of node-0-homed pages so its tiny L2
    // (32 KB = 512 lines) evicts dirty LA-NUMA lines.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 1)
                co_return;
            for (std::uint64_t pg = 0; pg < 20; pg += 2) {
                for (std::uint64_t l = 0; l < 64; ++l)
                    co_await pp.write(r.va(pg, l * 64));
            }
        }(p, rig);
    });
    auto &c1 = rig.m.node(1).controller();
    EXPECT_GT(c1.stats().writebacksSent, 100u);
    // The written-back lines are Uncached at the home again.
    std::uint32_t uncached = 0;
    auto &home = rig.m.node(0).controller();
    ASSERT_TRUE(home.isDynHome(rig.gp(0)));
    for (std::uint32_t li = 0; li < home.geometry().linesPerPage(); ++li) {
        if (home.dirLine(rig.gp(0), li).state() == DirState::Uncached)
            ++uncached;
    }
    EXPECT_GT(uncached, 0u);
}

TEST(ControllerUnit, LaNumaCleanExclusiveEvictionSendsHint)
{
    Rig rig(PolicyKind::LaNuma);
    // Node 1 writes lines (evictions write them back, leaving the
    // directory Uncached), then re-reads them: those reads are
    // granted Exclusive, and their clean evictions must send
    // replacement hints so the full-map directory stays in sync.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 1)
                co_return;
            for (std::uint64_t pg = 0; pg < 20; pg += 2) {
                for (std::uint64_t l = 0; l < 64; ++l)
                    co_await pp.write(r.va(pg, l * 64));
            }
            for (std::uint64_t pg = 0; pg < 20; pg += 2) {
                for (std::uint64_t l = 0; l < 64; ++l)
                    co_await pp.read(r.va(pg, l * 64));
            }
        }(p, rig);
    });
    auto &c1 = rig.m.node(1).controller();
    EXPECT_GT(c1.stats().replaceHintsSent, 50u);
    EXPECT_GT(c1.stats().writebacksSent, 100u); // from the write pass
}

TEST(ControllerUnit, ScomaEvictionsStayLocal)
{
    Rig rig(PolicyKind::Scoma);
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 1)
                co_return;
            for (std::uint64_t pg = 0; pg < 20; pg += 2) {
                for (std::uint64_t l = 0; l < 64; ++l)
                    co_await pp.write(r.va(pg, l * 64));
            }
        }(p, rig);
    });
    // Dirty victims land in the local page cache; no network
    // writebacks, no replacement hints.
    auto &c1 = rig.m.node(1).controller();
    EXPECT_EQ(c1.stats().writebacksSent, 0u);
    EXPECT_EQ(c1.stats().replaceHintsSent, 0u);
    // And the node still owns every line it wrote (tags Exclusive).
    FrameNum f = c1.pit().frameOf(rig.gp(0));
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_EQ(c1.pit().entry(f)->tags.count(FgTag::Exclusive), 64u);
}

TEST(ControllerUnit, MostInvalidFramePrefersSparseFrames)
{
    Rig rig(PolicyKind::Scoma);
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() != 1)
                co_return;
            // Page 0: dense (48 lines); page 2: sparse (2 lines).
            for (std::uint64_t l = 0; l < 48; ++l)
                co_await pp.read(r.va(0, l * 64));
            co_await pp.read(r.va(2, 0));
            co_await pp.read(r.va(2, 64));
        }(p, rig);
    });
    EXPECT_EQ(rig.m.node(1).kernel().mostInvalidClientPage(), rig.gp(2));
}

TEST(ControllerUnit, StatsReachTheReportPerNode)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 1)
                co_await pp.read(r.va(0));
            co_return;
        }(p, rig);
    });
    const RunReport r = rig.m.report();
    auto total = [&r](const std::string &name, std::int32_t only = -1) {
        std::uint64_t sum = 0;
        for (const auto &node : r.nodes) {
            for (const auto &v : node.counters) {
                if (v.name == name && (only < 0 || node.id == only))
                    sum += v.value;
            }
        }
        return sum;
    };
    EXPECT_EQ(total("ctrl.remoteMisses", 1), 1u);
    EXPECT_EQ(total("ctrl.remoteMisses"), 1u);
    // One processor fault at the client; the home map-in was served
    // by the page-in protocol, not a local fault.
    EXPECT_EQ(total("kernel.faults"), 1u);
    EXPECT_EQ(total("kernel.pageInRequestsServed"), 1u);
    // Each node's one processor reports under lane 0; references sum
    // the loads and stores of every processor.
    EXPECT_GT(total("proc.p0.loads"), 0u);
    EXPECT_EQ(total("proc.p0.loads") + total("proc.p0.stores"),
              r.metrics.references);
    // Gauges read their module's accessor when the report is built.
    std::map<std::string, double> g1;
    for (const auto &g : r.nodes[1].gauges)
        g1[g.name] = g.value;
    EXPECT_EQ(g1.size(), 8u);
    EXPECT_EQ(g1["footprint.pitEntries"],
              static_cast<double>(rig.m.node(1).controller().pit().size()));
    EXPECT_EQ(g1["kernel.realFramesPeak"],
              static_cast<double>(rig.m.node(1).kernel().realFramesPeak()));
    EXPECT_GT(g1["kernel.realFramesPeak"], 0.0);
}

TEST(ControllerUnit, UpgradeCountsSeparatelyFromRemoteMisses)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0)); // home takes the line
            co_await pp.barrier(1);
            if (pp.id() == 1) {
                co_await pp.read(r.va(0));  // remote miss (data moves)
                co_await pp.write(r.va(0)); // upgrade (no data)
            }
        }(p, rig);
    });
    auto &c1 = rig.m.node(1).controller();
    EXPECT_EQ(c1.stats().remoteMisses, 1u);
    EXPECT_EQ(c1.stats().upgrades, 1u);
}

TEST(ControllerUnit, DirClientFrameHintsSpeedInvalidations)
{
    // Section 4.3 design option: with client frame numbers cached in
    // the directory, invalidations carry a reverse-translation hint.
    // The protocol must stay correct, and the invalidation path gets
    // cheaper (hint hit instead of hash walk).
    auto run = [](bool hints) {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.procsPerNode = 1;
        cfg.dirClientFrameHints = hints;
        Machine m(cfg);
        std::uint64_t gsid = m.shmget(0xD1, 16 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
        m.run([&](Proc &p) -> CoTask {
            return [](Proc &pp) -> CoTask {
                auto va = [](std::uint64_t off) {
                    return makeVAddr(kSharedVsid, 0, off);
                };
                // All nodes share many lines; node 3 then writes them.
                for (int l = 0; l < 32; ++l)
                    co_await pp.read(va(static_cast<std::uint64_t>(l) *
                                        64));
                co_await pp.barrier(1);
                if (pp.id() == 3) {
                    for (int l = 0; l < 32; ++l)
                        co_await pp.write(
                            va(static_cast<std::uint64_t>(l) * 64));
                }
            }(p);
        });
        // Correctness: node 3 owns every line.
        auto &home = m.node(0).controller();
        GPage gp0 = gsid << kPageNumBits;
        for (std::uint32_t li = 0; li < 32; ++li) {
            auto d = home.dirLine(gp0, li);
            EXPECT_EQ(d.state(), DirState::Owned);
            EXPECT_EQ(d.owner(), 3u);
        }
        return m.metrics().totalCycles;
    };
    Tick without = run(false);
    Tick with = run(true);
    // The hinted run is never slower (it skips PIT hash walks on the
    // invalidation path).
    EXPECT_LE(with, without);
}

} // namespace
} // namespace prism
