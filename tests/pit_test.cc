/**
 * @file
 * Unit tests for the Page Information Table: translation, the memory
 * firewall, and the page-cache LRU's victim rule (pit.hh), directed
 * and against a reference scan under seeded random operation mixes.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "coherence/pit.hh"
#include "sim/rng.hh"
#include "sim/task.hh"

namespace prism {
namespace {

constexpr std::uint32_t kLines = 64;

/** A PIT over its own page records, as a controller builds it. */
struct PitRig {
    EventQueue eq;
    PageRecords pages{eq, kLines, 8};
    Pit pit{pages, 2, 18};

    /** Install a client S-COMA mapping of @p gp and link it. */
    Pit::Ref
    client(FrameNum f, GPage gp)
    {
        Pit::Ref e = pit.install(f, gp, 1, 1, 9, PageMode::Scoma, kLines,
                                 FgTag::Invalid);
        pit.lruInsert(f);
        return e;
    }

    FrameNum
    victim() const
    {
        const Pit::Ref e = pit.lruVictim();
        return e ? e->frame : kInvalidFrame;
    }
};

/** Take @p m now (it must be free) and keep it: the kernel's hold. */
FireAndForget
hold(CoMutex &m)
{
    co_await m.acquire();
}

TEST(Pit, InstallAndForwardLookup)
{
    PitRig r;
    Pit::Ref e = r.pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                               FgTag::Invalid);
    EXPECT_EQ(e->gpage, 0x100u);
    EXPECT_EQ(e->dynHome, 1u);
    EXPECT_EQ(e->homeFrameHint, 9u);
    ASSERT_TRUE(r.pit.entry(5));
    EXPECT_EQ(r.pit.entry(5)->mode, PageMode::Scoma);
    EXPECT_EQ(r.pit.entry(5)->tags.lines(), kLines);
    EXPECT_EQ(r.pit.entry(5)->tags.get(0), FgTag::Invalid);
    EXPECT_EQ(r.pit.frameOf(0x100), 5u);
}

TEST(Pit, ImaginaryFramesIndexTheirOwnRange)
{
    PitRig r;
    const FrameNum imag = kImaginaryFrameBase + 3;
    r.pit.install(3, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                  FgTag::Invalid);
    r.pit.install(imag, 0x200, 2, 2, 3, PageMode::LaNuma, kLines,
                  FgTag::Invalid);
    EXPECT_EQ(r.pit.entry(3)->gpage, 0x100u);
    EXPECT_EQ(r.pit.entry(imag)->gpage, 0x200u);
    EXPECT_EQ(r.pit.frameOf(0x200), imag);
    EXPECT_EQ(r.pit.size(), 2u);
    EXPECT_EQ(r.pit.allFrames(), (std::vector<FrameNum>{3, imag}));
    EXPECT_FALSE(r.pit.entry(kImaginaryFrameBase + 4));
    EXPECT_FALSE(r.pit.entry(kInvalidFrame));
}

TEST(Pit, LaNumaEntriesHaveNoTags)
{
    PitRig r;
    r.pit.install(7, 0x200, 2, 2, 3, PageMode::LaNuma, kLines,
                  FgTag::Invalid);
    EXPECT_EQ(r.pit.entry(7)->tags.lines(), 0u);
}

TEST(Pit, ReverseWithMatchingHintAvoidsHash)
{
    PitRig r;
    r.pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                  FgTag::Invalid);
    bool hash = true;
    EXPECT_EQ(r.pit.reverse(0x100, 5, hash), 5u);
    EXPECT_FALSE(hash);
    EXPECT_EQ(r.pit.reverseCycles(false), 2u);
}

TEST(Pit, ReverseWithWrongHintFallsBackToHash)
{
    PitRig r;
    r.pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                  FgTag::Invalid);
    r.pit.install(6, 0x101, 1, 1, 9, PageMode::Scoma, kLines,
                  FgTag::Invalid);
    bool hash = false;
    EXPECT_EQ(r.pit.reverse(0x100, 6, hash), 5u); // hint points elsewhere
    EXPECT_TRUE(hash);
    EXPECT_EQ(r.pit.reverseCycles(true), 20u);
}

TEST(Pit, ReverseMissingPage)
{
    PitRig r;
    bool hash = false;
    EXPECT_EQ(r.pit.reverse(0x999, kInvalidFrame, hash), kInvalidFrame);
    EXPECT_TRUE(hash);
}

TEST(Pit, RemoveClearsBothDirectionsAndFreesTheRecord)
{
    PitRig r;
    r.pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                  FgTag::Invalid);
    EXPECT_TRUE(r.pages.find(0x100));
    r.pit.remove(5);
    EXPECT_FALSE(r.pit.entry(5));
    bool hash = false;
    EXPECT_EQ(r.pit.reverse(0x100, 5, hash), kInvalidFrame);
    EXPECT_EQ(r.pit.frameOf(0x100), kInvalidFrame);
    EXPECT_FALSE(r.pages.find(0x100)); // nothing else kept it
    EXPECT_EQ(r.pit.size(), 0u);
}

TEST(Pit, FirewallDefaultsOpen)
{
    PitRig r;
    r.pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                  FgTag::Invalid);
    EXPECT_TRUE(r.pit.writeAllowed(5, 3));
    EXPECT_TRUE(r.pit.writeAllowed(99, 3)); // unknown frame: permissive
}

TEST(Pit, FirewallFiltersWildWrites)
{
    PitRig r;
    Pit::Ref e = r.pit.install(5, 0x100, 1, 1, 9, PageMode::Scoma, kLines,
                               FgTag::Invalid);
    e->capabilities.add(1);
    e->capabilities.add(2);
    EXPECT_TRUE(r.pit.writeAllowed(5, 1));
    EXPECT_TRUE(r.pit.writeAllowed(5, 2));
    EXPECT_FALSE(r.pit.writeAllowed(5, 3));
}

TEST(Pit, LocalEntriesExcludedFromGlobalFrames)
{
    PitRig r;
    r.pit.installLocal(1, kLines);
    r.pit.install(2, 0x100, 0, 0, 2, PageMode::Scoma, kLines,
                  FgTag::Exclusive);
    EXPECT_EQ(r.pit.globalFrames().size(), 1u);
    EXPECT_EQ(r.pit.allFrames().size(), 2u);
    EXPECT_EQ(r.pit.globalFrames()[0], 2u);
}

TEST(LineMaskTest, PopcountTracksDistinctLines)
{
    LineMask m(128);
    EXPECT_EQ(m.popcount(), 0u);
    m.set(0);
    m.set(0);
    m.set(64);
    m.set(127);
    EXPECT_EQ(m.popcount(), 3u);
    EXPECT_TRUE(m.test(64));
    EXPECT_FALSE(m.test(65));
}

// ---------------------------------------------------------------------
// Page-cache LRU: the victim rule
// ---------------------------------------------------------------------

TEST(PitLru, OnlyLinkedClientFramesAreCandidates)
{
    PitRig r;
    r.pit.installLocal(1, kLines);
    r.pit.install(2, 0x100, 0, 0, 2, PageMode::Scoma, kLines,
                  FgTag::Exclusive); // a home frame: never linked
    r.pit.install(kImaginaryFrameBase, 0x101, 1, 1, 9, PageMode::LaNuma,
                  kLines, FgTag::Invalid);
    EXPECT_EQ(r.victim(), kInvalidFrame);
    r.client(3, 0x102);
    EXPECT_EQ(r.victim(), 3u);
    EXPECT_EQ(r.pit.lruFrames(), (std::vector<FrameNum>{3}));
}

TEST(PitLru, TouchedFramesLeaveInOrderOfLastTouch)
{
    PitRig r;
    Pit::Ref a = r.client(1, 0x100);
    Pit::Ref b = r.client(2, 0x101);
    Pit::Ref c = r.client(3, 0x102);
    r.pit.touch(b, 10);
    r.pit.touch(a, 20);
    r.pit.touch(c, 30);
    EXPECT_EQ(r.victim(), 2u);
    r.pit.touch(b, 40);
    EXPECT_EQ(r.victim(), 1u);
    EXPECT_EQ(a->lastAccess, 20u);
}

TEST(PitLru, NeverTouchedFrameIsColderThanAnyTouchedOne)
{
    PitRig r;
    Pit::Ref a = r.client(1, 0x100);
    r.pit.touch(a, 5);
    r.client(2, 0x101); // installed later, never touched
    EXPECT_EQ(r.victim(), 2u);
    // Never-touched frames leave in install order.
    r.client(3, 0x102);
    EXPECT_EQ(r.victim(), 2u);
    r.pit.remove(2);
    EXPECT_EQ(r.victim(), 3u);
}

TEST(PitLru, LastAccessTieGoesToTheFrameTouchedFirst)
{
    PitRig r;
    Pit::Ref a = r.client(1, 0x100);
    Pit::Ref b = r.client(2, 0x101);
    r.pit.touch(b, 7);
    r.pit.touch(a, 7);
    EXPECT_EQ(a->lastAccess, b->lastAccess);
    EXPECT_EQ(r.victim(), 2u); // b reached 7 first
    r.pit.touch(b, 7);
    EXPECT_EQ(r.victim(), 1u); // now a did
}

TEST(PitLru, SkipsPageWhoseKernelLockIsHeld)
{
    PitRig r;
    Pit::Ref a = r.client(1, 0x100);
    Pit::Ref b = r.client(2, 0x101);
    r.pit.touch(a, 1);
    r.pit.touch(b, 2);
    hold(a->page->pageLock);
    EXPECT_EQ(r.victim(), 2u);
    hold(b->page->pageLock);
    EXPECT_EQ(r.victim(), kInvalidFrame);
    a->page->pageLock.release();
    EXPECT_EQ(r.victim(), 1u);
    b->page->pageLock.release();
}

TEST(PitLru, SkipsFrameWithATransitLine)
{
    PitRig r;
    Pit::Ref a = r.client(1, 0x100);
    Pit::Ref b = r.client(2, 0x101);
    r.pit.touch(a, 1);
    r.pit.touch(b, 2);
    a->tags.set(17, FgTag::Transit);
    EXPECT_EQ(r.victim(), 2u);
    a->tags.set(17, FgTag::Shared);
    EXPECT_EQ(r.victim(), 1u);
}

TEST(PitLru, EraseAndRemoveUnlink)
{
    PitRig r;
    Pit::Ref a = r.client(1, 0x100);
    r.client(2, 0x101);
    r.client(3, 0x102);
    r.pit.touch(a, 4);
    EXPECT_TRUE(r.pit.lruErase(2)); // e.g. promoted to a home frame
    EXPECT_FALSE(r.pit.lruErase(2));
    EXPECT_EQ(r.pit.lruFrames(), (std::vector<FrameNum>{1, 3}));
    EXPECT_TRUE(r.pit.entry(2)); // still mapped, just not a candidate
    EXPECT_EQ(r.victim(), 3u);
    r.pit.remove(3);
    EXPECT_EQ(r.victim(), 1u);
    r.pit.remove(1);
    EXPECT_EQ(r.victim(), kInvalidFrame);
    EXPECT_TRUE(r.pit.lruFrames().empty());
}

/**
 * Seeded property test: random install / touch / remove / erase /
 * busy / Transit sequences, each step's victim compared with a
 * reference scan over every client frame.  The reference is the
 * page-out rule the LRU list replaced (the least lastAccess among
 * frames neither locked nor in Transit, never-touched frames at
 * lastAccess 0) plus the written tie rule: among equal lastAccess the
 * frame that reached it first wins.
 */
class PitLruProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PitLruProperty, VictimMatchesReferenceScan)
{
    struct Model {
        GPage gp;
        Tick last = 0;
        std::uint64_t seq = 0; //!< when `last` was set
        bool busy = false;
        bool transit = false;
        bool linked = true;
    };
    constexpr FrameNum kFrames = 24;
    Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
    PitRig r;
    std::map<FrameNum, Model> live;
    std::uint64_t seq = 0;
    Tick now = 1; // the controller never touches at tick 0
    GPage next_gp = 0x1000;

    auto pick = [&]() {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.below(live.size())));
        return it;
    };
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t op = rng.below(100);
        if (live.empty() || (op < 20 && live.size() < kFrames)) {
            FrameNum f;
            do {
                f = rng.below(kFrames); // reuse frame numbers
            } while (live.count(f));
            r.client(f, next_gp);
            live[f] = Model{next_gp++, 0, ++seq};
        } else if (op < 60) {
            auto it = pick();
            now += rng.below(3); // 0: a same-tick tie
            r.pit.touch(r.pit.entry(it->first), now);
            if (it->second.linked) {
                it->second.last = now;
                it->second.seq = ++seq;
            }
        } else if (op < 70) {
            auto it = pick();
            Pit::Ref e = r.pit.entry(it->first);
            if (it->second.busy)
                e->page->pageLock.release();
            r.pit.remove(it->first);
            live.erase(it);
        } else if (op < 73) {
            auto it = pick();
            EXPECT_EQ(r.pit.lruErase(it->first), it->second.linked);
            it->second.linked = false;
        } else if (op < 87) {
            auto it = pick();
            CoMutex &lk = r.pit.entry(it->first)->page->pageLock;
            if (it->second.busy)
                lk.release();
            else
                hold(lk);
            it->second.busy = !it->second.busy;
        } else {
            auto it = pick();
            it->second.transit = !it->second.transit;
            r.pit.entry(it->first)->tags.set(
                5, it->second.transit ? FgTag::Transit : FgTag::Shared);
        }

        FrameNum want = kInvalidFrame;
        std::tuple<Tick, std::uint64_t> best{};
        std::vector<FrameNum> linked;
        for (const auto &[f, m] : live) {
            if (!m.linked)
                continue;
            linked.push_back(f);
            if (m.busy || m.transit)
                continue;
            const std::tuple<Tick, std::uint64_t> key{m.last, m.seq};
            if (want == kInvalidFrame || key < best) {
                want = f;
                best = key;
            }
        }
        ASSERT_EQ(r.victim(), want) << "seed " << GetParam() << " step "
                                    << step;
        ASSERT_EQ(r.pit.lruFrames(), linked);
    }
    for (const auto &[f, m] : live) {
        if (m.busy)
            r.pit.entry(f)->page->pageLock.release();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PitLruProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace prism
