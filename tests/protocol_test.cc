/**
 * @file
 * Protocol-level tests: directed coherence scenarios on a small
 * machine, verified against directory, fine-grain-tag and counter
 * state.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0x7E57;

/** Test machine with a shared segment attached on every node. */
struct Rig {
    explicit Rig(MachineConfig cfg = {}) : m(normalize(cfg))
    {
        gsid = m.shmget(kKey, 64 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    normalize(MachineConfig cfg)
    {
        cfg.numNodes = 4;
        cfg.procsPerNode = 2;
        return cfg;
    }

    /** VA of byte @p off within shared page @p pnum. */
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

    /**
     * Run one coroutine per processor; @p progs maps ProcId to a
     * program, missing entries idle (but still hit barriers used by
     * the programs via Proc::barrier — idle programs just return).
     */
    void
    run(std::function<CoTask(Proc &)> make)
    {
        m.run(make);
    }

    Machine m;
    std::uint64_t gsid = 0;
};

CoTask
idle(Proc &)
{
    co_return;
}

TEST(Protocol, HomeFaultGivesExclusiveTags)
{
    Rig rig;
    // Page 0 is homed at node 0 (round robin); proc 0 lives there.
    rig.run([&](Proc &p) -> CoTask {
        if (p.id() != 0)
            return idle(p);
        return [](Proc &pp, Rig &r) -> CoTask {
            co_await pp.write(r.va(0));
            co_await pp.read(r.va(0, 64));
        }(p, rig);
    });

    auto &ctrl = rig.m.node(0).controller();
    EXPECT_TRUE(ctrl.isDynHome(rig.gp(0)));
    FrameNum hf = ctrl.pit().frameOf(rig.gp(0));
    ASSERT_NE(hf, kInvalidFrame);
    const Pit::Ref e = ctrl.pit().entry(hf);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->mode, PageMode::Scoma);
    EXPECT_EQ(e->tags.get(0), FgTag::Exclusive);
    EXPECT_EQ(ctrl.stats().remoteMisses, 0u);
    // Home kernel recorded a home fault, not a client fault.
    EXPECT_EQ(rig.m.node(0).kernel().stats().faultsHome, 1u);
}

TEST(Protocol, RemoteReadCreatesSharers)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0) {
                co_await pp.write(r.va(0)); // home copy, Owned(0)
            }
            co_await pp.barrier(1);
            if (pp.id() == 2) { // node 1
                co_await pp.read(r.va(0));
            }
        }(p, rig);
    });

    auto &home = rig.m.node(0).controller();
    auto d = home.dirLine(rig.gp(0), 0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d.state(), DirState::Shared);
    EXPECT_TRUE(d.isSharer(0));
    EXPECT_TRUE(d.isSharer(1));
    // Client node 1 holds the page S-COMA with a Shared tag.
    auto &c1 = rig.m.node(1).controller();
    FrameNum f = c1.pit().frameOf(rig.gp(0));
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_EQ(c1.pit().entry(f)->tags.get(0), FgTag::Shared);
    EXPECT_EQ(c1.stats().remoteMisses, 1u);
    EXPECT_EQ(rig.m.node(1).kernel().stats().faultsClient, 1u);
}

TEST(Protocol, WriteInvalidatesAllSharers)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_await pp.barrier(1);
            if (pp.id() == 2 || pp.id() == 4) // nodes 1 and 2 read
                co_await pp.read(r.va(0));
            co_await pp.barrier(2);
            if (pp.id() == 6) // node 3 writes
                co_await pp.write(r.va(0));
        }(p, rig);
    });

    auto d = rig.m.node(0).controller().dirLine(rig.gp(0), 0);
    EXPECT_EQ(d.state(), DirState::Owned);
    EXPECT_EQ(d.owner(), 3u);
    // Every former sharer's tag is Invalid.
    for (NodeId n : {0u, 1u, 2u}) {
        auto &c = rig.m.node(n).controller();
        FrameNum f = c.pit().frameOf(rig.gp(0));
        if (f == kInvalidFrame)
            continue;
        EXPECT_EQ(c.pit().entry(f)->tags.get(0), FgTag::Invalid)
            << "node " << n;
    }
    EXPECT_GE(rig.m.node(0).controller().stats().invalsSent, 2u);
    // Writer's tag is Exclusive.
    auto &c3 = rig.m.node(3).controller();
    FrameNum f3 = c3.pit().frameOf(rig.gp(0));
    ASSERT_NE(f3, kInvalidFrame);
    EXPECT_EQ(c3.pit().entry(f3)->tags.get(0), FgTag::Exclusive);
}

TEST(Protocol, ThreePartyReadFetchesFromOwner)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 2) // node 1 becomes owner of page 0's line
                co_await pp.write(r.va(0));
            co_await pp.barrier(1);
            if (pp.id() == 4) // node 2 reads: home 0 must fetch from 1
                co_await pp.read(r.va(0));
        }(p, rig);
    });

    auto d = rig.m.node(0).controller().dirLine(rig.gp(0), 0);
    EXPECT_EQ(d.state(), DirState::Shared);
    EXPECT_TRUE(d.isSharer(1));
    EXPECT_TRUE(d.isSharer(2));
    EXPECT_GE(rig.m.node(1).controller().stats().fetchesServed, 1u);
}

TEST(Protocol, UpgradeAvoidsDataFetch)
{
    Rig rig;
    std::uint64_t rm_before = 0;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r, std::uint64_t &rm) -> CoTask {
            if (pp.id() == 2)
                co_await pp.read(r.va(0)); // node 1 shares
            co_await pp.barrier(1);
            if (pp.id() == 2) {
                rm = r.m.node(1).controller().stats().remoteMisses;
                co_await pp.write(r.va(0)); // upgrade in place
            }
        }(p, rig, rm_before);
    });

    auto &c1 = rig.m.node(1).controller();
    EXPECT_GE(c1.stats().upgrades, 1u);
    EXPECT_EQ(c1.stats().remoteMisses, rm_before); // no data moved
    auto d = rig.m.node(0).controller().dirLine(rig.gp(0), 0);
    EXPECT_EQ(d.state(), DirState::Owned);
    EXPECT_EQ(d.owner(), 1u);
}

TEST(Protocol, LaNumaClientMapsImaginaryFrame)
{
    MachineConfig cfg;
    cfg.policy = PolicyKind::LaNuma;
    Rig rig(cfg);
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 2)
                co_await pp.read(r.va(1)); // page 1 homed at node 1?? no:
            co_return;
        }(p, rig);
    });
    // Page 1 is homed at node 1; proc 2 lives at node 1, so that was a
    // home fault.  Use page 2 at node 1 instead for a client mapping.
    Rig rig2(cfg);
    rig2.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 2) // node 1; page 0 homed at node 0
                co_await pp.read(r.va(0));
            co_return;
        }(p, rig2);
    });
    auto &c1 = rig2.m.node(1).controller();
    FrameNum f = c1.pit().frameOf(rig2.gp(0));
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_GE(f, kImaginaryFrameBase);
    EXPECT_EQ(c1.pit().entry(f)->mode, PageMode::LaNuma);
    EXPECT_EQ(c1.pit().entry(f)->tags.lines(), 0u);
}

TEST(Protocol, ClientPageOutWritesBackAndUnmaps)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 2) {
                co_await pp.write(r.va(0));      // node 1 owns the line
                co_await pp.write(r.va(0, 128)); // and another line
            }
            co_return;
        }(p, rig);
    });
    Kernel &k1 = rig.m.node(1).kernel();
    // Drive the page-out directly.
    bool done = false;
    auto drive = [&]() -> FireAndForget {
        co_await k1.pageOutClient(rig.gp(0), false);
        done = true;
    };
    drive();
    rig.m.eventQueue().runAll();
    ASSERT_TRUE(done);
    EXPECT_EQ(k1.stats().clientPageOuts, 1u);
    EXPECT_EQ(rig.m.node(1).controller().pit().frameOf(rig.gp(0)),
              kInvalidFrame);
    // Home directory no longer lists node 1 anywhere on that page.
    auto &home = rig.m.node(0).controller();
    ASSERT_TRUE(home.isDynHome(rig.gp(0)));
    for (std::uint32_t li = 0; li < home.geometry().linesPerPage(); ++li) {
        auto d = home.dirLine(rig.gp(0), li);
        EXPECT_FALSE(d.state() == DirState::Owned && d.owner() == 1);
        EXPECT_FALSE(d.isSharer(1));
    }
    EXPECT_GE(rig.m.node(1).controller().stats().writebacksSent, 2u);
}

TEST(Protocol, HomePageStatusFlagSkipsSecondPageIn)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 2)
                co_await pp.read(r.va(0));
            co_return;
        }(p, rig);
    });
    Kernel &k1 = rig.m.node(1).kernel();
    const std::uint64_t served_before =
        rig.m.node(0).kernel().stats().pageInRequestsServed;

    // Page out, then refault: the cached home info must be used.
    bool done = false;
    auto drive = [&]() -> FireAndForget {
        co_await k1.pageOutClient(rig.gp(0), false);
        FrameNum f = kInvalidFrame;
        co_await k1.handleFault(k1.vpageOf(rig.gp(0)), &f);
        EXPECT_NE(f, kInvalidFrame);
        done = true;
    };
    drive();
    rig.m.eventQueue().runAll();
    ASSERT_TRUE(done);
    EXPECT_EQ(k1.stats().faultsCachedHome, 1u);
    EXPECT_EQ(rig.m.node(0).kernel().stats().pageInRequestsServed,
              served_before);
}

TEST(Protocol, FirewallRejectsWildWriteback)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_return;
        }(p, rig);
    });
    auto &home = rig.m.node(0).controller();
    FrameNum hf = home.pit().frameOf(rig.gp(0));
    ASSERT_NE(hf, kInvalidFrame);
    // Allow only nodes 0 and 1 to write this page remotely.
    home.pit().entry(hf)->capabilities.add(0);
    home.pit().entry(hf)->capabilities.add(1);

    // Craft a forged ownership-less writeback from node 2.
    Msg wild;
    wild.type = MsgType::Writeback;
    wild.src = 2;
    wild.dst = 0;
    wild.gpage = rig.gp(0);
    wild.lineIdx = 0;
    wild.dirty = true;
    rig.m.route(std::move(wild));
    rig.m.eventQueue().runAll();

    EXPECT_EQ(home.stats().firewallRejects, 1u);
    // Directory state is untouched (still Owned by home node 0).
    auto d = home.dirLine(rig.gp(0), 0);
    EXPECT_EQ(d.state(), DirState::Owned);
    EXPECT_EQ(d.owner(), 0u);
}

TEST(Protocol, PrivatePagesStayLocal)
{
    Rig rig;
    rig.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            PrivArena priv(pp.id());
            SimArray a{priv.alloc(4 * kPageBytes), 8};
            for (int i = 0; i < 100; ++i)
                co_await pp.write(a.at(i * 67 % 2048));
        }(p);
    });
    std::uint64_t total_net = rig.m.network().stats().messages;
    EXPECT_EQ(total_net, 0u); // purely node-local activity
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(rig.m.node(n).controller().stats().remoteMisses, 0u);
}

} // namespace
} // namespace prism
