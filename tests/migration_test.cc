/**
 * @file
 * Lazy page migration tests (paper Section 3.5).
 *
 * The dynamic home of a page moves without any global coordination:
 * the static home coordinates only with the old and new dynamic
 * homes, misdirected requests are forwarded through the static home,
 * and clients lazily update their PIT hints from responses.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/oracle.hh"
#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0x316;

struct Rig {
    explicit Rig(MachineConfig cfg, std::uint64_t pages = 64) : m(cfg)
    {
        gsid = m.shmget(kKey, pages * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
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

MachineConfig
migCfg()
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    cfg.migrationEnabled = true;
    cfg.migrationThreshold = 32;
    return cfg;
}

TEST(Migration, DominantRemoteAccessorBecomesHome)
{
    Rig rig(migCfg());
    // Page 0 is statically homed at node 0.  Node 1 hammers it with
    // writes that keep missing (large stride across many lines and
    // alternating lines to defeat the cache).
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0) {
                co_await pp.write(r.va(0)); // materialize at home 0
            }
            co_await pp.barrier(1);
            if (pp.id() / 2 == 1) { // both procs of node 1
                for (int rep = 0; rep < 40; ++rep) {
                    for (int l = 0; l < 64; l += 2) {
                        co_await pp.write(
                            r.va(0, static_cast<std::uint64_t>(l) * 64));
                        co_await pp.write(r.va(
                            1, static_cast<std::uint64_t>(l) * 64));
                    }
                }
            }
        }(p, rig);
    });

    // Node 1 should have become the dynamic home of page 0.
    EXPECT_TRUE(rig.m.node(1).controller().isDynHome(rig.gp(0)))
        << "page did not migrate to the dominant accessor";
    EXPECT_FALSE(rig.m.node(0).controller().isDynHome(rig.gp(0)));
    EXPECT_GE(rig.m.node(0).controller().stats().migrationsOut, 1u);
    EXPECT_GE(rig.m.node(1).controller().stats().migrationsIn, 1u);
    // The static home's registry points at the new dynamic home.
    EXPECT_EQ(rig.m.node(0).controller().registryLookup(rig.gp(0)), 1u);
}

TEST(Migration, StaleClientsAreForwardedAndRecover)
{
    Rig rig(migCfg());
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            // Node 2 reads the page early (PIT hint: dyn home = 0).
            if (pp.id() == 4)
                co_await pp.read(r.va(0));
            co_await pp.barrier(1);
            // Node 1 hammers until migration triggers.
            if (pp.id() / 2 == 1) {
                for (int rep = 0; rep < 40; ++rep) {
                    for (int l = 0; l < 64; l += 2) {
                        co_await pp.write(
                            r.va(0, static_cast<std::uint64_t>(l) * 64));
                        co_await pp.write(r.va(
                            1, static_cast<std::uint64_t>(l) * 64));
                    }
                }
            }
            co_await pp.barrier(2);
            // Node 2 accesses again through its stale hint.
            if (pp.id() == 4) {
                for (int l = 0; l < 64; ++l) {
                    co_await pp.read(
                        r.va(0, static_cast<std::uint64_t>(l) * 64));
                }
            }
        }(p, rig);
    });

    // The page migrated away from its static home (possibly more than
    // once — node 2's second burst may pull it again); exactly one
    // node is the dynamic home, and misdirected requests were
    // forwarded through the static home.
    std::uint32_t homes = 0;
    NodeId dyn_home = kInvalidNode;
    std::uint64_t fwd = 0;
    std::uint64_t migrations = 0;
    for (NodeId n = 0; n < 4; ++n) {
        auto &c = rig.m.node(n).controller();
        if (c.isDynHome(rig.gp(0))) {
            ++homes;
            dyn_home = n;
        }
        fwd += c.stats().forwards;
        migrations += c.stats().migrationsOut;
    }
    ASSERT_EQ(homes, 1u);
    EXPECT_NE(dyn_home, 0u) << "page never migrated";
    EXPECT_GE(migrations, 1u);
    EXPECT_GE(fwd, 1u);
    // The static home's registry tracks the current dynamic home.
    EXPECT_EQ(rig.m.node(0).controller().registryLookup(rig.gp(0)),
              dyn_home);
}

TEST(Migration, DisabledByDefault)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    ASSERT_FALSE(cfg.migrationEnabled);
    Rig rig(cfg);
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() / 2 == 1) {
                for (int rep = 0; rep < 60; ++rep) {
                    for (int l = 0; l < 64; l += 4) {
                        co_await pp.write(
                            r.va(0, static_cast<std::uint64_t>(l) * 64));
                    }
                }
            }
            co_return;
        }(p, rig);
    });
    EXPECT_TRUE(rig.m.node(0).controller().isDynHome(rig.gp(0)));
    EXPECT_EQ(rig.m.node(0).controller().stats().migrationsOut, 0u);
}

TEST(Migration, ExplicitRequestMovesCleanPage)
{
    Rig rig(migCfg());
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_return;
        }(p, rig);
    });
    // Directly request a migration of page 0 to node 3.
    rig.m.node(0).controller().requestMigration(rig.gp(0), 3);
    rig.m.eventQueue().runAll();
    EXPECT_TRUE(rig.m.node(3).controller().isDynHome(rig.gp(0)));
    EXPECT_FALSE(rig.m.node(0).controller().isDynHome(rig.gp(0)));
    EXPECT_EQ(rig.m.node(0).controller().registryLookup(rig.gp(0)), 3u);
    // And it can be used afterwards: a later access works fine.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 4)
                co_await pp.read(r.va(0));
            co_return;
        }(p, rig);
    });
}

/**
 * Node 0 maps page P (static home node 1) LA-NUMA and misses on line
 * 0 while node 1 migrates P to node 0.  At the shorter lags the miss
 * is forwarded to node 0 as the new home after handleMigrateData
 * retired node 0's LA-NUMA frame: the grant must land on the home
 * frame's tag and the access re-translate, or the retried miss asks
 * the home for a line its directory says node 0 already owns.
 */
TEST(Migration, GrantLandingOnAPageThatMigratedHereRetranslates)
{
    // With node 2 sharing line 0 the read is granted shared, else
    // exclusive: both landings occur.
    for (bool shared : {false, true}) {
        const ClientEvent grant = shared ? ClientEvent::GrantShared
                                         : ClientEvent::GrantExclusive;
        std::uint64_t landed = 0;
        for (Cycles lag = 0; lag <= 150; lag += 25) {
            MachineConfig cfg;
            cfg.numNodes = 4;
            cfg.procsPerNode = 2;
            cfg.policy = PolicyKind::LaNuma;
            cfg.oracleMode = OracleMode::Continuous;
            Rig rig(cfg);
            std::uint64_t pnum = 0;
            while (rig.gp(pnum) % cfg.numNodes != 1)
                ++pnum;
            rig.m.run([&](Proc &p) -> CoTask {
                return [](Proc &pp, Rig &r, std::uint64_t pn, Cycles lag,
                          bool sh) -> CoTask {
                    if (pp.id() == 0)
                        co_await pp.read(r.va(pn, 64));
                    if (pp.id() == 4 && sh)
                        co_await pp.read(r.va(pn));
                    co_await pp.barrier(1);
                    if (pp.id() == 0)
                        co_await pp.read(r.va(pn));
                    if (pp.id() == 2) {
                        pp.compute(lag);
                        co_await pp.fence();
                        r.m.node(1).controller().requestMigration(
                            r.gp(pn), 0);
                    }
                }(p, rig, pnum, lag, shared);
            });
            const CoherenceController &c0 = rig.m.node(0).controller();
            EXPECT_TRUE(c0.isDynHome(rig.gp(pnum))) << "lag " << lag;
            EXPECT_EQ(rig.m.oracle()->violationCount(), 0u)
                << "lag " << lag;
            landed += c0.clientCellHits(ClientView::Invalid, grant);
        }
        EXPECT_GT(landed, 0u) << enumName(grant);
    }
}

/** Page of @p rig's segment statically homed at node 0. */
std::uint64_t
pageHomedAtNode0(const Rig &rig)
{
    const std::uint64_t n = rig.m.numNodes();
    return (n - rig.gp(0) % n) % n;
}

/** Nodes whose bit is set in line @p li of @p gp's directory at @p at. */
std::set<NodeId>
sharersAt(Rig &rig, NodeId at, GPage gp, std::uint32_t li)
{
    const Directory::LineRef d = rig.m.node(at).controller().dirLine(gp, li);
    std::set<NodeId> out;
    for (NodeId n = 0; d && n < rig.m.numNodes(); ++n) {
        if (d.isSharer(n))
            out.insert(n);
    }
    return out;
}

/**
 * A 130-node machine keeps three sharer words per line.  A line read
 * by nodes on both sides of 64 keeps exactly those sharers when its
 * page migrates, less the old home, which flushed its own copy; an
 * owner past 64 stays the owner.  The parameter is the new home: node
 * 129 holds a client S-COMA copy and is promoted in place, node 70
 * maps nothing and gets a fresh home frame.
 */
class WideMigration : public ::testing::TestWithParam<NodeId>
{
};

TEST_P(WideMigration, SharersPast64SurviveMigration)
{
    MachineConfig cfg;
    cfg.numNodes = 130;
    cfg.procsPerNode = 1;
    cfg.oracleMode = OracleMode::Continuous;
    cfg.oracleFatal = false;
    Rig rig(cfg, 130);
    const std::uint64_t pn = pageHomedAtNode0(rig);
    const GPage gp = rig.gp(pn);
    const NodeId target = GetParam();
    const std::set<NodeId> readers = {3, 64, 100, 129};
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r, std::uint64_t page,
                  const std::set<NodeId> &rd) -> CoTask {
            if (pp.id() == 0) {
                co_await pp.write(r.va(page, 5 * 64));
                co_await pp.write(r.va(page, 9 * 64));
            }
            co_await pp.barrier(1);
            if (rd.count(pp.id()))
                co_await pp.read(r.va(page, 5 * 64));
            if (pp.id() == 100)
                co_await pp.write(r.va(page, 9 * 64));
        }(p, rig, pn, readers);
    });
    ASSERT_TRUE(rig.m.node(0).controller().isDynHome(gp));
    std::set<NodeId> before = readers;
    before.insert(0); // the home kept a copy when it served the reads
    ASSERT_EQ(sharersAt(rig, 0, gp, 5), before);

    rig.m.node(0).controller().requestMigration(gp, target);
    rig.m.eventQueue().runAll();
    auto &home = rig.m.node(target).controller();
    ASSERT_TRUE(home.isDynHome(gp));
    EXPECT_FALSE(rig.m.node(0).controller().isDynHome(gp));
    EXPECT_EQ(home.dirLine(gp, 5).state(), DirState::Shared);
    EXPECT_EQ(sharersAt(rig, target, gp, 5), readers);
    EXPECT_EQ(home.dirLine(gp, 9).state(), DirState::Owned);
    EXPECT_EQ(home.dirLine(gp, 9).owner(), 100u);

    // The new home serves both lines: a write invalidates every
    // sharer, a read recalls the owner's copy.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r, std::uint64_t page) -> CoTask {
            if (pp.id() == 127)
                co_await pp.write(r.va(page, 5 * 64));
            if (pp.id() == 64)
                co_await pp.read(r.va(page, 9 * 64));
        }(p, rig, pn);
    });
    EXPECT_EQ(home.dirLine(gp, 5).owner(), 127u);
    EXPECT_EQ(sharersAt(rig, target, gp, 9), (std::set<NodeId>{64, 100}));
    EXPECT_EQ(rig.m.oracle()->violationCount(), 0u)
        << rig.m.oracle()->violations().front().what;
}

INSTANTIATE_TEST_SUITE_P(NewHome, WideMigration,
                         ::testing::Values(NodeId{129}, NodeId{70}));

TEST(MigrationDeath, DirLineUsedAfterPageMigratedPanics)
{
    // The old home keeps the page's record as a migration tombstone,
    // but a directory view taken while it was home must not read the
    // block that moved away.
    EXPECT_DEATH(
        {
            Rig rig(migCfg());
            rig.m.run([&](Proc &p) -> CoTask {
                return [](Proc &pp, Rig &r) -> CoTask {
                    if (pp.id() == 0)
                        co_await pp.write(r.va(0));
                }(p, rig);
            });
            auto &c0 = rig.m.node(0).controller();
            const Directory::LineRef d = c0.dirLine(rig.gp(0), 0);
            c0.requestMigration(rig.gp(0), 3);
            rig.m.eventQueue().runAll();
            if (c0.pages().find(rig.gp(0))->movedTo != 3)
                return; // no tombstone: the death test fails
            (void)d.state();
        },
        "directory LineRef outlived its page's home block");
}

} // namespace
} // namespace prism
