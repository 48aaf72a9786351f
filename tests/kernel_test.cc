/**
 * @file
 * Kernel paging-path tests: home page-outs with client fan-out, disk
 * refaults, deferred page-ins, segment binding and address math.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0x05;

struct Rig {
    Rig()
        : m(makeCfg())
    {
        gsid = m.shmget(kKey, 64 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
    }

    static MachineConfig
    makeCfg()
    {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.procsPerNode = 2;
        cfg.diskLatency = 500; // keep tests fast
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

TEST(Kernel, BindingRoundTrips)
{
    Rig rig;
    Kernel &k = rig.m.node(2).kernel();
    GPage gp = kInvalidGPage;
    VPage vp = rig.va(7).page();
    ASSERT_TRUE(k.globalPageOf(vp, &gp));
    EXPECT_EQ(gp, rig.gp(7));
    EXPECT_EQ(k.vpageOf(gp), vp);
    // Private pages are not global.
    GPage dummy;
    EXPECT_FALSE(k.globalPageOf(makeVAddr(0x123, 0, 0).page(), &dummy));
}

TEST(Kernel, HomePageOutFlushesClientsAndGoesToDisk)
{
    Rig rig;
    // Node 0 (home of page 0) writes; nodes 1 and 2 share the page.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_await pp.barrier(1);
            if (pp.id() == 2 || pp.id() == 4)
                co_await pp.read(r.va(0));
        }(p, rig);
    });
    Kernel &home = rig.m.node(0).kernel();
    bool done = false;
    auto drive = [&]() -> FireAndForget {
        co_await home.pageOutHome(rig.gp(0));
        done = true;
    };
    drive();
    rig.m.eventQueue().runAll();
    ASSERT_TRUE(done);
    EXPECT_EQ(home.stats().homePageOuts, 1u);
    // The page is gone everywhere.
    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_EQ(rig.m.node(n).controller().pit().frameOf(rig.gp(0)),
                  kInvalidFrame)
            << "node " << n;
    }
    EXPECT_FALSE(rig.m.node(0).controller().isDynHome(rig.gp(0)));
    // Clients performed page-outs in response to the fan-out.
    std::uint64_t client_outs =
        rig.m.node(1).kernel().stats().clientPageOuts +
        rig.m.node(2).kernel().stats().clientPageOuts;
    EXPECT_EQ(client_outs, 2u);
}

TEST(Kernel, RefaultAfterHomePageOutPaysDiskAndWorks)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_return;
        }(p, rig);
    });
    Kernel &home = rig.m.node(0).kernel();
    auto drive = [&]() -> FireAndForget {
        co_await home.pageOutHome(rig.gp(0));
    };
    drive();
    rig.m.eventQueue().runAll();

    // A client fault now pages the home copy back in from disk.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 2)
                co_await pp.read(r.va(0));
            co_return;
        }(p, rig);
    });
    EXPECT_TRUE(rig.m.node(0).controller().isDynHome(rig.gp(0)));
    FrameNum f = rig.m.node(1).controller().pit().frameOf(rig.gp(0));
    EXPECT_NE(f, kInvalidFrame);
}

TEST(Kernel, FaultsFromAllProcsOfANodeShareOneMapping)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            // Both procs of node 1 fault page 0 simultaneously.
            if (pp.id() / 2 == 1)
                co_await pp.read(r.va(0, pp.id() * 128));
            co_return;
        }(p, rig);
    });
    Kernel &k = rig.m.node(1).kernel();
    EXPECT_EQ(k.stats().faultsClient, 1u)
        << "second faulting processor must reuse the mapping";
    EXPECT_EQ(k.realFramesLive(), 1u);
}

TEST(Kernel, PrivateFramesAreNodeLocalAndCounted)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            PrivArena priv(pp.id());
            SimArray a{priv.alloc(2 * kPageBytes, kPageBytes), 8};
            co_await pp.write(a.at(0));
            co_await pp.write(a.at(kPageBytes / 8));
        }(p);
    });
    for (NodeId n = 0; n < 4; ++n) {
        Kernel &k = rig.m.node(n).kernel();
        EXPECT_EQ(k.stats().faultsPrivate, 4u); // 2 procs x 2 pages
        EXPECT_EQ(k.realFramesLive(), 4u);
    }
}

TEST(Kernel, ShootdownClearsMicroTranslationCache)
{
    Rig rig;
    // Warm p0's one-entry translation cache (and TLB) on page 0.
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_return;
        }(p, rig);
    });
    Proc &p0 = rig.m.node(0).proc(0);
    const std::uint64_t refills = p0.stats().tlbRefills;

    // A kernel-style remap that keeps the frame (page-mode change)
    // shoots the translation down without touching the caches.  The
    // next access must re-walk the page table; a stale micro-TLB
    // would instead translate silently -- and, when the frame DOES
    // change, commit to dead memory.
    p0.shootdown(rig.va(0).page());
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.read(r.va(0));
            co_return;
        }(p, rig);
    });
    EXPECT_EQ(p0.stats().tlbRefills, refills + 1)
        << "access after shootdown skipped the page-table walk";
}

TEST(Kernel, ReaccessAfterPageOutTakesAFreshFault)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_return;
        }(p, rig);
    });
    Kernel &home = rig.m.node(0).kernel();
    auto drive = [&]() -> FireAndForget {
        co_await home.pageOutHome(rig.gp(0));
    };
    drive();
    rig.m.eventQueue().runAll();

    // The mapping is gone; the re-access must fault and install a
    // fresh translation rather than ride any cached one.
    Proc &p0 = rig.m.node(0).proc(0);
    const std::uint64_t faults = p0.stats().pageFaults;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(r.va(0));
            co_return;
        }(p, rig);
    });
    EXPECT_EQ(p0.stats().pageFaults, faults + 1);
    EXPECT_TRUE(home.pageTable().mapped(rig.va(0).page()));
}

TEST(Kernel, UtilizationReflectsTouchedLines)
{
    Rig rig;
    rig.m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp, Rig &r) -> CoTask {
            if (pp.id() == 0) {
                // Touch exactly 8 of 64 lines of page 0.
                for (int l = 0; l < 8; ++l)
                    co_await pp.write(
                        r.va(0, static_cast<std::uint64_t>(l) * 64));
            }
            co_return;
        }(p, rig);
    });
    double util = rig.m.node(0).kernel().averageUtilization();
    EXPECT_NEAR(util, 8.0 / 64.0, 1e-9);
}

} // namespace
} // namespace prism
