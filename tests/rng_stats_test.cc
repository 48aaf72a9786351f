/**
 * @file
 * Unit tests for the deterministic RNG, the metric tables and catalog,
 * and the histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "core/machine.hh"
#include "obs/metrics.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace prism {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(37), 37u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.range(5, 8));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{5, 6, 7, 8}));
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

/** A walk that collects every metric's full name, by kind. */
struct NameWalk : MetricVisitor {
    std::vector<std::string> counters, histograms, gauges;
    void
    counter(const MetricLabels &at, std::uint64_t) override
    {
        counters.push_back(at.fullName());
    }
    void
    histogram(const MetricLabels &at, const Histogram &) override
    {
        histograms.push_back(at.fullName());
    }
    void
    gauge(const MetricLabels &at, double) override
    {
        gauges.push_back(at.fullName());
    }
};

struct Pair {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

constexpr CounterRow<Pair> kDistinctRows[] = {
    {"a", "count", "", &Pair::a},
    {"b", "count", "", &Pair::b},
};
constexpr CounterRow<Pair> kDuplicateRows[] = {
    {"a", "count", "", &Pair::a},
    {"a", "count", "", &Pair::b},
};

TEST(MetricTables, DuplicateNameIsRejected)
{
    // Each component static_asserts distinctNames over its tables, so
    // a name used twice in one component fails the build.
    static_assert(distinctNames(kDistinctRows));
    static_assert(!distinctNames(kDuplicateRows));
    static_assert(!distinctNames(kDistinctRows, kDistinctRows));
    EXPECT_FALSE(distinctNames(kDuplicateRows));
}

TEST(MetricTables, FullNamesLabelNodeAndLane)
{
    MetricLabels at{"proc", 3, 1};
    at.name = "loads";
    EXPECT_EQ(at.key(), "proc.p1.loads");
    EXPECT_EQ(at.fullName(), "node3.proc.p1.loads");
    MetricLabels net{"net"};
    net.name = "messages";
    EXPECT_EQ(net.fullName(), "net.messages");
}

TEST(MetricRegistry, CatalogOfAnEightByFourMachine)
{
    MachineConfig cfg; // 8x4
    Machine m(cfg);
    NameWalk w;
    m.visitMetrics(w);
    // Per node 15 ctrl + 10 kernel + 4 x 9 proc counters, plus 2 net.
    EXPECT_EQ(w.counters.size(), 8u * (15 + 10 + 4 * 9) + 2);
    EXPECT_EQ(w.histograms.size(), 8u * (5 + 2) + 3);
    EXPECT_EQ(w.gauges.size(), 8u * (4 + 4));
    EXPECT_EQ(w.counters.front(), "node0.ctrl.remoteMisses");
    EXPECT_EQ(w.counters.back(), "net.trafficProxy");
    EXPECT_EQ(w.gauges.front(), "node0.footprint.dirBytes");

    // The KV histograms join the catalog once a workload takes them.
    m.kvLatency().read.sample(40);
    NameWalk kv;
    m.visitMetrics(kv);
    ASSERT_EQ(kv.histograms.size(), w.histograms.size() + 4);
    EXPECT_EQ(kv.histograms.back(), "workload.kv.scan.latency");
    const auto hists = m.metricRegistry().histograms();
    const auto &read = hists[hists.size() - 4];
    EXPECT_EQ(read.labels.component + "." + read.labels.name,
              "workload.kv.read.latency");
    EXPECT_EQ(read.histogram().count(), 1u);

    // No full name repeats across components, nodes and lanes.
    std::set<std::string> names;
    for (const auto *list : {&kv.counters, &kv.histograms, &kv.gauges}) {
        for (const std::string &n : *list)
            EXPECT_TRUE(names.insert(n).second) << n;
    }
}

TEST(MetricRegistry, DumpPrintsEveryCounterWithItsDescription)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 2;
    Machine m(cfg);
    std::ostringstream os;
    m.metricRegistry().dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("node0.ctrl.remoteMisses 0  # misses that fetched "
                       "data from a remote node\n"),
              std::string::npos);
    EXPECT_NE(out.find("node1.proc.p1.loads 0\n"), std::string::npos);
    EXPECT_NE(out.find("net.messages 0  # messages sent through the "
                       "fabric\n"),
              std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              2 * (15 + 10 + 2 * 9) + 2);
}

TEST(Histogram, BucketsAndMoments)
{
    Histogram h({10, 100, 1000});
    h.sample(5);
    h.sample(50);
    h.sample(500);
    h.sample(5000);
    h.sample(7);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.max(), 5000u);
    EXPECT_EQ(h.counts()[0], 2u); // [0,10)
    EXPECT_EQ(h.counts()[1], 1u); // [10,100)
    EXPECT_EQ(h.counts()[2], 1u); // [100,1000)
    EXPECT_EQ(h.counts()[3], 1u); // [1000,inf)
    EXPECT_NEAR(h.mean(), (5 + 50 + 500 + 5000 + 7) / 5.0, 1e-9);
}

TEST(Histogram, QuantileEmptyIsZero)
{
    Histogram h({10, 100});
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileInterpolatesWithinBucket)
{
    Histogram h({10, 100, 1000});
    // 10 samples all in [10, 100), spanning the bucket.
    h.sample(10);
    h.sample(99);
    for (int i = 0; i < 8; ++i)
        h.sample(50);
    // Median rank 5 of 10 -> halfway through the bucket [10, 100).
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 55.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
    // Interpolation toward the bucket's upper bound (100) is clamped
    // to the largest observed sample.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
    // The error bound: the true p50 (50) is within one bucket width.
    EXPECT_NEAR(h.quantile(0.5), 50.0, 100.0 - 10.0);
}

TEST(Histogram, QuantileClampsToObservedRange)
{
    // A lone sample sits somewhere inside its bucket, not at the
    // bucket midpoint: every quantile reports the sample itself.
    Histogram h({10, 100, 1000});
    h.sample(42);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(Histogram, QuantileOverflowBucketUsesMax)
{
    Histogram h({10});
    h.sample(5000);
    h.sample(5000);
    // Both samples in the overflow bucket; interpolation can never
    // exceed the largest observed value.
    EXPECT_LE(h.quantile(0.99), 5000.0);
    EXPECT_GE(h.quantile(0.99), 10.0);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a({10, 100});
    Histogram b({10, 100});
    a.sample(5);
    a.sample(50);
    b.sample(50);
    b.sample(500);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.max(), 500u);
    EXPECT_EQ(a.counts()[0], 1u);
    EXPECT_EQ(a.counts()[1], 2u);
    EXPECT_EQ(a.counts()[2], 1u);
    EXPECT_NEAR(a.mean(), (5 + 50 + 50 + 500) / 4.0, 1e-9);
}

} // namespace
} // namespace prism
