/**
 * @file
 * Unit tests for the set-associative MESI cache model.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace prism {
namespace {

TEST(Cache, MissOnEmpty)
{
    SetAssocCache c(1024, 2, 64);
    EXPECT_EQ(c.lookup(0x1000), Mesi::Invalid);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, InsertThenHitAnywhereInLine)
{
    SetAssocCache c(1024, 2, 64);
    c.insert(0x1000, Mesi::Shared);
    EXPECT_EQ(c.lookup(0x1000), Mesi::Shared);
    EXPECT_EQ(c.lookup(0x103F), Mesi::Shared); // same line
    EXPECT_EQ(c.lookup(0x1040), Mesi::Invalid); // next line
}

TEST(Cache, SetStateAndInvalidate)
{
    SetAssocCache c(1024, 2, 64);
    c.insert(0x2000, Mesi::Exclusive);
    c.setState(0x2000, Mesi::Modified);
    EXPECT_EQ(c.lookup(0x2000), Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x2000), Mesi::Modified);
    EXPECT_EQ(c.lookup(0x2000), Mesi::Invalid);
    EXPECT_EQ(c.invalidate(0x2000), Mesi::Invalid); // idempotent
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 64B lines, 2 sets (256 B).
    SetAssocCache c(256, 2, 64);
    // All three map to set 0 (stride = 128).
    c.insert(0x0000, Mesi::Shared);
    c.insert(0x0080, Mesi::Shared);
    c.touch(0x0000); // 0x0000 is now MRU
    auto v = c.insert(0x0100, Mesi::Shared);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->lineAddr, 0x0080u);
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_TRUE(c.contains(0x0100));
}

TEST(Cache, DirectMappedConflicts)
{
    SetAssocCache c(512, 1, 64); // 8 sets
    c.insert(0x0000, Mesi::Modified);
    auto v = c.insert(0x0200, Mesi::Shared); // same set (stride 512)
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->lineAddr, 0x0000u);
    EXPECT_EQ(v->state, Mesi::Modified);
}

TEST(Cache, OverwriteSameLineNoVictim)
{
    SetAssocCache c(256, 2, 64);
    c.insert(0x0000, Mesi::Shared);
    auto v = c.insert(0x0000, Mesi::Modified);
    EXPECT_FALSE(v.has_value());
    EXPECT_EQ(c.lookup(0x0000), Mesi::Modified);
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(Cache, PeekVictimDoesNotEvict)
{
    SetAssocCache c(256, 2, 64);
    c.insert(0x0000, Mesi::Shared);
    c.insert(0x0080, Mesi::Exclusive);
    auto v = c.peekVictim(0x0100);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->lineAddr, 0x0000u);
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_TRUE(c.contains(0x0080));
    EXPECT_FALSE(c.peekVictim(0x0000).has_value()); // present: no victim
}

TEST(Cache, InvalidateFrameSweepsAllLinesOfPage)
{
    SetAssocCache c(16 * 1024, 4, 64);
    const FrameNum frame = 3;
    for (std::uint64_t off = 0; off < kPageBytes; off += 64)
        c.insert((frame << kPageShift) | off, Mesi::Shared);
    c.insert(4ULL << kPageShift, Mesi::Modified); // another frame
    auto victims = c.invalidateFrame(frame);
    EXPECT_EQ(victims.size(), kPageBytes / 64);
    EXPECT_EQ(c.validLines(), 1u);
    EXPECT_TRUE(c.contains(4ULL << kPageShift));
}

class CacheParamTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheParamTest, CapacityIsRespected)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache c(size, assoc, 64);
    const std::uint32_t lines = size / 64;
    // Insert twice the capacity; valid lines never exceed capacity.
    for (std::uint32_t i = 0; i < 2 * lines; ++i) {
        c.insert(static_cast<std::uint64_t>(i) * 64, Mesi::Shared);
        EXPECT_LE(c.validLines(), lines);
    }
    EXPECT_EQ(c.validLines(), lines);
}

TEST_P(CacheParamTest, SequentialFillThenFullHit)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache c(size, assoc, 64);
    const std::uint32_t lines = size / 64;
    for (std::uint32_t i = 0; i < lines; ++i)
        c.insert(static_cast<std::uint64_t>(i) * 64, Mesi::Exclusive);
    for (std::uint32_t i = 0; i < lines; ++i)
        EXPECT_EQ(c.lookup(static_cast<std::uint64_t>(i) * 64),
                  Mesi::Exclusive);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheParamTest,
    ::testing::Values(std::make_tuple(8u * 1024, 1u),
                      std::make_tuple(8u * 1024, 2u),
                      std::make_tuple(32u * 1024, 4u),
                      std::make_tuple(32u * 1024, 8u)));

TEST(Cache, MesiNames)
{
    EXPECT_STREQ(enumName(Mesi::Invalid), "I");
    EXPECT_STREQ(enumName(Mesi::Modified), "M");
    EXPECT_STREQ(enumName(Mesi::Owned), "O");
    EXPECT_STREQ(enumName(Mesi::Forward), "F");
}

// The tag store is protocol-agnostic payload storage: the widened
// states (Owned from MOESI, Forward from MESIF) must round-trip
// through every accessor exactly like the classic three.
TEST(Cache, WidenedStatesRoundTrip)
{
    SetAssocCache c(512, 1, 64); // direct-mapped, 8 sets
    c.insert(0x0000, Mesi::Owned);
    c.insert(0x0080, Mesi::Forward);
    EXPECT_EQ(c.lookup(0x0000), Mesi::Owned);
    EXPECT_EQ(c.lookup(0x0080), Mesi::Forward);

    c.setState(0x0080, Mesi::Owned);
    EXPECT_EQ(c.lookup(0x0080), Mesi::Owned);
    c.setState(0x0080, Mesi::Forward);

    // Victims carry the widened state out (stride 512 conflicts).
    auto v = c.insert(0x0200, Mesi::Shared);
    ASSERT_TRUE(v);
    EXPECT_EQ(v->lineAddr, 0x0000u);
    EXPECT_EQ(v->state, Mesi::Owned);

    // Frame sweeps report them too.
    auto victims = c.invalidateFrame(0);
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_EQ(c.validLines(), 0u);

    c.insert(0x0040, Mesi::Forward);
    EXPECT_EQ(c.invalidate(0x0040), Mesi::Forward);
}

// The permission-strength helpers order states for merging split
// L1/L2 views; numeric enum order is NOT the permission order once
// Owned/Forward exist.
TEST(Cache, LineStrengthHelpers)
{
    // I < S < F < E < O < M.
    EXPECT_LT(lineStrength(Mesi::Invalid), lineStrength(Mesi::Shared));
    EXPECT_LT(lineStrength(Mesi::Shared), lineStrength(Mesi::Forward));
    EXPECT_LT(lineStrength(Mesi::Forward),
              lineStrength(Mesi::Exclusive));
    EXPECT_LT(lineStrength(Mesi::Exclusive), lineStrength(Mesi::Owned));
    EXPECT_LT(lineStrength(Mesi::Owned), lineStrength(Mesi::Modified));

    EXPECT_EQ(strongerLine(Mesi::Owned, Mesi::Shared), Mesi::Owned);
    EXPECT_EQ(strongerLine(Mesi::Shared, Mesi::Owned), Mesi::Owned);
    EXPECT_EQ(strongerLine(Mesi::Forward, Mesi::Exclusive),
              Mesi::Exclusive);
    // Ties keep the first argument.
    EXPECT_EQ(strongerLine(Mesi::Shared, Mesi::Shared), Mesi::Shared);

    EXPECT_TRUE(ownerClass(Mesi::Modified));
    EXPECT_TRUE(ownerClass(Mesi::Exclusive));
    EXPECT_TRUE(ownerClass(Mesi::Owned));
    EXPECT_FALSE(ownerClass(Mesi::Forward));
    EXPECT_FALSE(ownerClass(Mesi::Shared));
    EXPECT_FALSE(ownerClass(Mesi::Invalid));

    EXPECT_TRUE(dirtyLine(Mesi::Modified));
    EXPECT_TRUE(dirtyLine(Mesi::Owned));
    EXPECT_FALSE(dirtyLine(Mesi::Exclusive));
    EXPECT_FALSE(dirtyLine(Mesi::Forward));
    EXPECT_FALSE(dirtyLine(Mesi::Shared));
}

} // namespace
} // namespace prism
