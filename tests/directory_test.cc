/**
 * @file
 * Unit tests for the full-map directory (the line view over a page
 * record's home block, and the directory-cache timing filter) and
 * fine-grain tags.
 */

#include <gtest/gtest.h>

#include "coherence/directory.hh"
#include "coherence/fine_grain_tags.hh"
#include "coherence/page_record.hh"
#include "sim/event_queue.hh"

namespace prism {
namespace {

/** Page records of an @p nodes -wide machine, 64 lines per page. */
struct Homes {
    explicit Homes(std::uint32_t nodes) : pages(eq, 64, nodes) {}

    /** Home @p gp here with a fresh block. */
    PageRecords::Ref
    home(GPage gp)
    {
        PageRecords::Ref r = pages.get(gp);
        pages.setHome(r, pages.newHome());
        return r;
    }

    EventQueue eq;
    PageRecords pages;
};

TEST(Directory, NewHomeBlockIsUncached)
{
    Homes h(8);
    auto r = h.home(0x10);
    for (std::uint32_t li : {0u, 63u}) {
        Directory::LineRef d(*r, li);
        ASSERT_TRUE(d);
        EXPECT_EQ(d.state(), DirState::Uncached);
        EXPECT_EQ(d.owner(), kInvalidNode);
        EXPECT_TRUE(d.noSharers());
    }
}

TEST(Directory, LineRefWritesTheRecord)
{
    Homes h(8);
    auto r = h.home(0x10);
    Directory::LineRef d(*r, 7);
    d.setState(DirState::Shared);
    d.addSharer(0);
    d.addSharer(5);
    d.addSharer(7);
    EXPECT_TRUE(d.isSharer(5));
    EXPECT_FALSE(d.isSharer(4));
    EXPECT_EQ(d.sharerCount(), 3u);
    d.removeSharer(5);
    EXPECT_FALSE(d.isSharer(5));
    // A second view of the same line sees the writes; its neighbours
    // are untouched.
    EXPECT_EQ(Directory::LineRef(*r, 7).sharers().lowWord(), 0x81u);
    EXPECT_EQ(Directory::LineRef(*r, 7).state(), DirState::Shared);
    EXPECT_TRUE(Directory::LineRef(*r, 6).noSharers());
    EXPECT_TRUE(Directory::LineRef(*r, 8).noSharers());
}

TEST(Directory, DroppedHomeLeavesTheRecordUnhomed)
{
    Homes h(8);
    auto r = h.home(0x10);
    EXPECT_EQ(h.pages.homePages(), 1u);
    r->registry = 2; // keeps the record live without the block
    auto block = h.pages.setHome(r, nullptr);
    EXPECT_TRUE(block);
    EXPECT_FALSE(r->home);
    EXPECT_EQ(h.pages.homePages(), 0u);
}

TEST(Directory, HomeBlockMovesVerbatim)
{
    // Migration hands the block itself to the new home's record.
    Homes a(8), b(8);
    auto ra = a.home(0x10);
    Directory::LineRef(*ra, 0).setState(DirState::Owned);
    Directory::LineRef(*ra, 0).setOwner(2);
    Directory::LineRef l7(*ra, 7);
    l7.setState(DirState::Shared);
    l7.addSharer(0);
    l7.addSharer(2);
    l7.addSharer(4);
    ra->movedTo = 3;
    auto rb = b.pages.get(0x10);
    b.pages.setHome(rb, a.pages.setHome(ra, nullptr));
    EXPECT_FALSE(ra->home);
    EXPECT_EQ(Directory::LineRef(*rb, 7).sharers().lowWord(), 0x15u);
    EXPECT_EQ(Directory::LineRef(*rb, 0).state(), DirState::Owned);
    EXPECT_EQ(Directory::LineRef(*rb, 0).owner(), 2u);
}

TEST(Directory, LineRefStableAcrossGrowth)
{
    // Records sit in fixed chunks and a home block never resizes, so a
    // view taken early stays valid while hundreds of later pages are
    // homed (forcing the record arena past several chunks).
    Homes h(8);
    Directory::LineRef e(*h.home(1), 3);
    e.setState(DirState::Owned);
    e.setOwner(5);
    for (GPage gp = 2; gp < 800; ++gp)
        h.home(gp);
    EXPECT_EQ(e.state(), DirState::Owned);
    EXPECT_EQ(e.owner(), 5u);
    e.addSharer(7);
    EXPECT_TRUE(Directory::LineRef(*h.pages.find(1), 3).isSharer(7));
}

TEST(Directory, FootprintAccounting)
{
    // 8 nodes -> one sharer word: 1 (state) + 4 (owner) + 8 (word).
    Homes h(8);
    EXPECT_EQ(h.pages.homeBytes(), 0u);
    h.home(0x10);
    EXPECT_EQ(h.pages.homeBytes(), 64u * (1u + sizeof(NodeId) + 8u));
    // 1024 nodes -> sixteen sharer words per line.
    Homes big(1024);
    big.home(0x10);
    big.home(0x11);
    EXPECT_EQ(big.pages.homeBytes(),
              2u * 64u * (1u + sizeof(NodeId) + 16u * 8u));
}

TEST(Directory, CacheTimingHitAfterMiss)
{
    Directory d(8, 2, 22); // tiny cache: 8 entries
    EXPECT_EQ(d.access(100), 22u); // cold miss
    EXPECT_EQ(d.access(100), 2u);  // now cached
    EXPECT_EQ(d.access(108), 22u); // conflicting index (100 & 7 == 108 & 7 ? no)
    EXPECT_EQ(d.lookups(), 3u);
    EXPECT_EQ(d.cacheHits(), 1u);
}

TEST(Directory, CacheConflictEvicts)
{
    Directory d(8, 2, 22);
    EXPECT_EQ(d.access(0), 22u);
    EXPECT_EQ(d.access(8), 22u); // same index, evicts tag 0
    EXPECT_EQ(d.access(0), 22u); // miss again
}

TEST(FineGrainTags, InitAndCount)
{
    FrameTags t(64, FgTag::Invalid);
    EXPECT_EQ(t.lines(), 64u);
    EXPECT_EQ(t.count(FgTag::Invalid), 64u);
    t.set(3, FgTag::Exclusive);
    t.set(9, FgTag::Shared);
    EXPECT_EQ(t.count(FgTag::Invalid), 62u);
    EXPECT_EQ(t.count(FgTag::Exclusive), 1u);
    EXPECT_FALSE(t.anyTransit());
    t.set(10, FgTag::Transit);
    EXPECT_TRUE(t.anyTransit());
}

TEST(FineGrainTags, FillResets)
{
    FrameTags t(32, FgTag::Exclusive);
    EXPECT_EQ(t.count(FgTag::Exclusive), 32u);
    t.fill(FgTag::Invalid);
    EXPECT_EQ(t.count(FgTag::Invalid), 32u);
}

TEST(DirectoryNames, StateNames)
{
    EXPECT_STREQ(enumName(DirState::Uncached), "U");
    EXPECT_STREQ(enumName(DirState::Shared), "S");
    EXPECT_STREQ(enumName(DirState::Owned), "O");
    EXPECT_STREQ(enumName(FgTag::Transit), "T");
}

} // namespace
} // namespace prism
