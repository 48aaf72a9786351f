/**
 * @file
 * FlatMap against std::unordered_map as the reference: seeded random
 * insert/find/erase sequences over clustered and scattered keys from
 * an empty table through many doublings, a backward-shift erase that
 * wraps past the table's end, and the reserved empty-slot key.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "sim/flat_map.hh"

namespace prism {

struct FlatMapProbe {
    template <typename V>
    static std::size_t
    capacity(const FlatMap<V> &m)
    {
        return m.slots_.size();
    }

    template <typename V>
    static std::size_t
    home(const FlatMap<V> &m, std::uint64_t key)
    {
        return m.home(key);
    }

    /** Slot holding @p key (capacity() if absent). */
    template <typename V>
    static std::size_t
    slotOf(const FlatMap<V> &m, std::uint64_t key)
    {
        for (std::size_t i = 0; i < m.slots_.size(); ++i) {
            if (m.slots_[i].key == key)
                return i;
        }
        return m.slots_.size();
    }
};

namespace {

using Ref = std::unordered_map<std::uint64_t, std::uint64_t>;

void
expectSame(const FlatMap<std::uint64_t> &m, const Ref &ref)
{
    ASSERT_EQ(m.size(), ref.size());
    std::size_t seen = 0;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "key " << k << " not in reference";
        EXPECT_EQ(v, it->second) << "key " << k;
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint64_t *got = m.find(k);
        ASSERT_NE(got, nullptr) << "key " << k << " lost";
        EXPECT_EQ(*got, v);
    }
}

/**
 * One seeded sequence.  @p span bounds the live key population, so a
 * small span keeps the table small (probe runs wrap its end often)
 * and a large one drives growth.
 */
void
randomSequence(std::uint64_t seed, std::uint64_t span, int ops,
               std::size_t *max_size)
{
    std::mt19937_64 rng(seed);
    FlatMap<std::uint64_t> m("test map");
    Ref ref;
    // Key shapes: consecutive lines of a few pages (GLine-like, dense
    // clusters), page numbers with a segment id in the high bits, and
    // scattered 64-bit values (never the reserved ~0).
    auto draw = [&]() -> std::uint64_t {
        const std::uint64_t r = rng() % span;
        switch (rng() % 3) {
          case 0:
            return (std::uint64_t{0x7E57} << 40) | r;
          case 1:
            return (std::uint64_t{3} << kPageNumBits) | (r << 6);
          default:
            return (r * 0xD1B54A32D192ED03ULL) >> 1;
        }
    };
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t k = draw();
        const unsigned op = rng() % 10;
        if (op < 5) {
            const std::uint64_t v = rng();
            auto [slot, fresh] = m.insert(k, v);
            auto [it, ref_fresh] = ref.try_emplace(k, v);
            ASSERT_EQ(fresh, ref_fresh) << "insert of " << k;
            EXPECT_EQ(*slot, it->second);
        } else if (op < 8) {
            ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "erase of " << k;
        } else {
            const std::uint64_t *got = m.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "find of " << k;
            if (got) {
                EXPECT_EQ(*got, it->second);
            }
            EXPECT_EQ(m.count(k), ref.count(k));
        }
        if (i % 997 == 0)
            expectSame(m, ref);
        *max_size = std::max(*max_size, m.size());
    }
    expectSame(m, ref);
    // Drain through erase: every backward shift must keep the rest.
    std::vector<std::uint64_t> keys;
    for (const auto &[k, v] : ref)
        keys.push_back(k);
    for (std::uint64_t k : keys) {
        ASSERT_TRUE(m.erase(k));
        ref.erase(k);
        ASSERT_EQ(m.size(), ref.size());
    }
    expectSame(m, ref);
}

TEST(FlatMap, RandomSequencesMatchUnorderedMap)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::size_t small = 0;
        randomSequence(seed, 4, 20000, &small); // 16-32 slot tables
        std::size_t large = 0;
        randomSequence(seed + 100, 4096, 60000, &large);
        EXPECT_GT(large, 2000u) << "the large sequence must grow the "
                                   "table through many doublings";
    }
}

TEST(FlatMap, BackwardShiftWrapsPastTheEnd)
{
    FlatMap<std::uint64_t> m("wrap map");
    const std::size_t cap = FlatMapProbe::capacity(m);
    ASSERT_GE(cap, 8u);
    // Keys whose home is the last slot, and keys whose home is slot 0.
    std::vector<std::uint64_t> last, first;
    for (std::uint64_t k = 1; last.size() < 3 || first.size() < 2; ++k) {
        const std::size_t h = FlatMapProbe::home(m, k);
        if (h == cap - 1 && last.size() < 3)
            last.push_back(k);
        else if (h == 0 && first.size() < 2)
            first.push_back(k);
    }
    // Layout: last[0] at cap-1, first[0] at 0, last[1] at 1, last[2]
    // at 2, first[1] at 3 -- one probe run wrapping the end.
    m.insert(last[0], 10);
    m.insert(first[0], 20);
    m.insert(last[1], 11);
    m.insert(last[2], 12);
    m.insert(first[1], 21);
    ASSERT_EQ(FlatMapProbe::capacity(m), cap) << "no growth expected";
    ASSERT_EQ(FlatMapProbe::slotOf(m, last[0]), cap - 1);
    ASSERT_EQ(FlatMapProbe::slotOf(m, last[1]), 1u);
    ASSERT_EQ(FlatMapProbe::slotOf(m, first[1]), 3u);

    // Erasing the run's head pulls last[1] back across the end into
    // the hole; first[0] sits at its home and stays.
    ASSERT_TRUE(m.erase(last[0]));
    EXPECT_EQ(FlatMapProbe::slotOf(m, last[1]), cap - 1);
    EXPECT_EQ(FlatMapProbe::slotOf(m, first[0]), 0u);
    EXPECT_EQ(FlatMapProbe::slotOf(m, last[2]), 1u);
    EXPECT_EQ(FlatMapProbe::slotOf(m, first[1]), 2u);
    Ref ref{{first[0], 20}, {last[1], 11}, {last[2], 12}, {first[1], 21}};
    expectSame(m, ref);

    // And erasing at slot 0 shifts the wrapped rest back again.
    ASSERT_TRUE(m.erase(first[0]));
    ref.erase(first[0]);
    expectSame(m, ref);
}

TEST(FlatMap, ReservedKeyIsNeverPresent)
{
    static_assert(FlatMap<int>::kEmptyKey == kInvalidGPage,
                  "the empty-slot key is the invalid page id");
    FlatMap<std::uint32_t> m("page records");
    EXPECT_EQ(m.find(kInvalidGPage), nullptr) << "empty map";
    EXPECT_EQ(m.count(kInvalidGPage), 0u);
    for (std::uint64_t k = 0; k < 100; ++k)
        m.insert(k, static_cast<std::uint32_t>(k));
    EXPECT_EQ(m.find(kInvalidGPage), nullptr) << "after growth";
    EXPECT_EQ(m.count(kInvalidGPage), 0u);
    EXPECT_FALSE(m.erase(kInvalidGPage));
    EXPECT_EQ(m.size(), 100u);
}

TEST(FlatMapDeathTest, InsertingTheReservedKeyNamesTheMap)
{
    FlatMap<std::uint32_t> m("page records");
    EXPECT_DEATH(m.insert(kInvalidGPage, 1), "page records");
    EXPECT_DEATH(m[kInvalidGPage] = 1, "page records");
}

} // namespace
} // namespace prism
